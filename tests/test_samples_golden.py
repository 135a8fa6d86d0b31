"""Byte-for-byte CLI output on samples/ against stored golden files.

Only exact outputs are stored (nothing computed by LAPACK), so the files hold
on every machine.  A deliberate format change regenerates them with

    PYTHONPATH=src python tests/test_samples_golden.py

and records the change in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

from pmicert.cli import main

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"
GOLDEN = Path(__file__).resolve().parent / "golden"

CONSTRAINT = str(SAMPLES / "matrix_constraint.pmi")
TARGET = str(SAMPLES / "matrix_target.pmi")

# golden file -> argv; "{out}" marks a command whose --out file is compared
# instead of its stdout
CASES = {
    "scalarize.txt": ["scalarize", CONSTRAINT],
    "scalarize.json": ["scalarize", CONSTRAINT, "--json"],
    "scalarize_charpoly.txt": ["scalarize", CONSTRAINT, "--charpoly"],
    "scalarize_charpoly.json": ["scalarize", CONSTRAINT, "--charpoly", "--json"],
    "matrix_target.polya": ["polya", TARGET, "--max-degree", "10", "--out", "{out}"],
    "matrix_target.qmc": ["certify-simplex", TARGET, "--out", "{out}"],
}


def run_case(name: str, workdir: Path) -> str:
    """Run one case through cli.main and return the bytes it is judged on."""
    out = workdir / name
    argv = [str(out) if a == "{out}" else a for a in CASES[name]]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, f"{argv} exited {code}"
    return out.read_text() if "{out}" in CASES[name] else buf.getvalue()


def test_outputs_match_golden(tmp_path):
    for name in CASES:
        assert run_case(name, tmp_path) == (GOLDEN / name).read_text(), name


def test_certificate_verifies(tmp_path):
    run_case("matrix_target.qmc", tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", str(tmp_path / "matrix_target.qmc"), TARGET]) == 0


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            (GOLDEN / case).write_text(run_case(case, Path(tmp)))
            print(f"wrote {GOLDEN / case}", file=sys.stderr)

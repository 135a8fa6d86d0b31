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

import pytest

from pmicert.certify import deserialize, serialize
from pmicert.cli import main

ROOT = Path(__file__).resolve().parent.parent
SAMPLES = ROOT / "samples"
GOLDEN = Path(__file__).resolve().parent / "golden"

CONSTRAINT = str(SAMPLES / "matrix_constraint.pmi")
TARGET = str(SAMPLES / "matrix_target.pmi")
# n = ell = 2 on the ball, Polya degree 3 (one elevation), entries over
# Q(sqrt 2): perfbench/families.simplex_target(random.Random("golden"), 2, 2, 3)
SIMPLEX_N2 = str(GOLDEN / "simplex_n2.pmi")

# golden file -> argv; "{out}" marks a command whose --out file is compared
# instead of its stdout
CASES = {
    "scalarize.txt": ["scalarize", CONSTRAINT],
    "scalarize.json": ["scalarize", CONSTRAINT, "--json"],
    "scalarize_charpoly.txt": ["scalarize", CONSTRAINT, "--charpoly"],
    "scalarize_charpoly.json": ["scalarize", CONSTRAINT, "--charpoly", "--json"],
    "matrix_target.polya": ["polya", TARGET, "--max-degree", "10", "--out", "{out}"],
    "matrix_target.qmc": ["certify-simplex", TARGET, "--out", "{out}"],
    "simplex_n2.qmc": ["certify-simplex", SIMPLEX_N2, "--out", "{out}"],
    "simplex_n2_certify.json": ["certify-simplex", SIMPLEX_N2, "--json"],
    "simplex_n2_refute.json": ["polya", SIMPLEX_N2, "--max-degree", "2", "--json"],
}
# cases that exit nonzero on purpose
EXIT = {"simplex_n2_refute.json": 1}

# exact `bound` evaluations with non-unit rational inputs (no libm values:
# the rate and the past-budget floats are not stored)
BOUND_ARGS = ["--n", "2", "--m", "3", "--d", "2", "--d-G", "3", "--ratio", "5/3",
              "--kappa", "7/4", "--eta", "2", "--C", "3/2"]
for formula in ("putinar-matrix", "putinar-scalar", "licq", "pv"):
    CASES[f"bound_{formula}.txt"] = ["bound", "--formula", formula, *BOUND_ARGS]
    CASES[f"bound_{formula}.json"] = ["bound", "--formula", formula, *BOUND_ARGS, "--json"]
CASES["bound_theta.txt"] = ["bound", "--formula", "theta", "--m", "4"]
for setting in ("scalar", "matrix", "homogenized"):
    CASES[f"bound_eta_{setting}.txt"] = ["bound", "--formula", "eta", "--setting", setting,
                                         "--n", "2", "--m", "3", "--d-G", "3"]
CASES["bound_eta_matrix.json"] = CASES["bound_eta_matrix.txt"] + ["--json"]
CASES["bound_perturbation.json"] = ["bound", "--formula", "perturbation", "--eps", "2/7",
                                    "--eta", "3", "--C", "5/2", "--json"]


def run_case(name: str, workdir: Path) -> str:
    """Run one case through cli.main and return the bytes it is judged on."""
    out = workdir / name
    argv = [str(out) if a == "{out}" else a for a in CASES[name]]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == EXIT.get(name, 0), f"{argv} exited {code}"
    return out.read_text() if "{out}" in CASES[name] else buf.getvalue()


def test_outputs_match_golden(tmp_path):
    for name in CASES:
        assert run_case(name, tmp_path) == (GOLDEN / name).read_text(), name


def test_certificate_verifies(tmp_path):
    run_case("matrix_target.qmc", tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", str(tmp_path / "matrix_target.qmc"), TARGET]) == 0


def test_n2_certificate_verifies_and_tampered_fails(tmp_path):
    text = (GOLDEN / "simplex_n2.qmc").read_text()
    assert "*sqrt(2)" in text
    cert = deserialize(text)
    cert.multipliers[0].scale = cert.multipliers[0].scale * 2
    (tmp_path / "c.qmc").write_text(text)
    (tmp_path / "tampered.qmc").write_text(serialize(cert))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", str(tmp_path / "c.qmc"), SIMPLEX_N2, "--mode", "exact"]) == 0
        assert main(["verify", str(tmp_path / "tampered.qmc"), SIMPLEX_N2,
                     "--mode", "exact"]) == 1


@pytest.mark.parametrize("name", ["matrix_target.qmc", "matrix_target_unmerged.qmc"])
def test_stored_certificate_verifies_and_tampered_fails(name, tmp_path):
    # matrix_target_unmerged.qmc is the older layout, one term per Bernstein
    # coefficient, sigma square and LDL^T column of that coefficient, with
    # value-equal vectors that QMCertificate.reconstruction folds once; no
    # longer written, still read
    text = (GOLDEN / name).read_text()
    cert = deserialize(text)
    # the reader shares repeated lines, so value-equal vectors are one object
    vectors = [tuple(id(p) for row in t.matrix.entries for p in row) for t in cert.multipliers]
    assert (len(set(vectors)) < len(vectors)) == (name == "matrix_target_unmerged.qmc")
    cert.multipliers[0].scale = cert.multipliers[0].scale * 2
    (tmp_path / "c.qmc").write_text(text)
    (tmp_path / "tampered.qmc").write_text(serialize(cert))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", str(tmp_path / "c.qmc"), TARGET, "--mode", "exact"]) == 0
        assert main(["verify", str(tmp_path / "tampered.qmc"), TARGET, "--mode", "exact"]) == 1


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            (GOLDEN / case).write_text(run_case(case, Path(tmp)))
            print(f"wrote {GOLDEN / case}", file=sys.stderr)

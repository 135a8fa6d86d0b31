"""What the tools/bench_*.py scripts share: source-tree variants given as
--variant label=path, run in fresh processes with PYTHONPATH set to the
variant's tree and numpy's BLAS held to one thread, the variants alternating
from one item to the next, and a JSON record naming the machine.

Importing this module also puts perfbench/ on sys.path, so the scripts can
import its workload and family generators.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

CLI = "import sys; from pmicert.cli import main; sys.exit(main())"


def parser(description: str, out: str) -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=description)
    ap.add_argument("--variant", action="append", required=True,
                    help="label=path of a source tree holding the pmicert package")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default=out)
    return ap


def variants(args) -> list:
    """[(label, source tree)] in the order given."""
    return [tuple(v.split("=", 1)) for v in args.variant]


def in_turn(variants: list, i: int) -> list:
    """The variants for item i: as given for even i, reversed for odd i."""
    return variants if i % 2 == 0 else variants[::-1]


def run_python(src: str, argv: list, cwd: str | None = None) -> subprocess.CompletedProcess:
    """python argv in a fresh process on the source tree src, one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, *argv], env=env, cwd=cwd, capture_output=True,
                          text=True)


def write(path: str, args, variants: list, summary: dict, records: list, **extra) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"variants": [label for label, _ in variants], "seed": args.seed, **extra,
                   "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                               "platform": platform.platform()},
                   "summary": summary, "records": records}, fh, indent=1)
        fh.write("\n")

"""Iterations, process CPU time and exit of `pmicert relax --json` per instance,
for one or more source trees of the program.

    git archive <commit> | tar -x -C /tmp/parent
    python3 tools/bench_relax.py --variant parent=/tmp/parent/src \\
        --variant new=src --seed 7 --out BENCH_relax.json

Instances: the relax jobs of the benchmark's `relax` workload at --seed
(perfbench/workloads.py), and 32 box instances at k = 2: the two degenerate
ones 4 x1^2 - 8 x1 - 3 x2^2 - 2 x2 and x1^2 + x1 + 2 x2^2 + 4 x2, and
perfbench's box_separable(Random(s), n) for s in 0..14 and n in {2, 3}, the
draws of tests/test_relax.py.  Each instance runs once per variant, the
variants alternating, in a fresh process with PYTHONPATH set to the
variant's source tree and numpy's BLAS held to one thread; CPU time is the
child's user plus system time, interpreter start-up and imports included.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import families as fam  # noqa: E402
import workloads  # noqa: E402
from refmath import write_problem  # noqa: E402

DEGENERATE_BOXES = [("box-opt-9", [4, -3], [-8, -2]), ("box-opt-2.25", [1, 2], [1, 4])]


def instances(seed: int, workdir: str):
    """(job, n, k, .pmi path) of every instance."""
    out = []
    manifest = workloads.generate("relax", seed, workdir)
    for job in manifest["jobs"]:
        out.append((job["id"], job["data"]["n"], job["data"]["k"],
                    os.path.join(workdir, job["problem"])))
    boxes = list(DEGENERATE_BOXES)
    for s in range(15):
        for n in (2, 3):
            a, b = fam.box_separable(random.Random(s), n)
            boxes.append((f"box-s{s}-n{n}", a, b))
    for name, a, b in boxes:
        n = len(a)
        A = [[a[i] if i == j else 0 for j in range(n)] for i in range(n)]
        path = os.path.join(workdir, "in", f"{name}.pmi")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(write_problem(n, [[fam.quad_poly(n, A, b)]], fam.box_grid(n)))
        out.append((name, n, 2, path))
    return out


def run(src: str, path: str, k: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    argv = [sys.executable, "-c", "import sys; from pmicert.cli import main; sys.exit(main())",
            "relax", path, "--order", str(k), "--json"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    payload = json.loads(proc.stdout) if proc.stdout.startswith("{") else {}
    exit_ = payload.get("status") or payload.get("error") or proc.stderr.strip()
    iterations = payload.get("iterations")
    budget = re.fullmatch(r"iteration budget (\d+) exhausted", exit_)
    if budget:
        iterations = int(budget.group(1))
    return {"iterations": iterations, "cpu_s": round(cpu, 4), "exit": exit_,
            "gamma": payload.get("gamma")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--variant", action="append", required=True,
                    help="label=path of a source tree holding the pmicert package")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default="BENCH_relax.json")
    args = ap.parse_args()
    variants = [v.split("=", 1) for v in args.variant]
    records = []
    with tempfile.TemporaryDirectory() as workdir:
        for job, n, k, path in instances(args.seed, workdir):
            rec = {"job": job, "n": n, "k": k}
            for label, src in variants:
                rec[label] = run(src, path, k)
            records.append(rec)
            print(job, *(f"{label}={rec[label]['iterations']}" for label, _ in variants),
                  file=sys.stderr)
    summary = {}
    for label, _ in variants:
        its = [r[label]["iterations"] for r in records if r[label]["iterations"] is not None]
        summary[label] = {
            "ok": sum(r[label]["exit"] == "ok" for r in records),
            "iterations_total": sum(its),
            "iterations_median": statistics.median(its) if its else None,
            "cpu_s_total": round(sum(r[label]["cpu_s"] for r in records), 3),
        }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"variants": [label for label, _ in variants], "seed": args.seed,
                   "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                               "platform": platform.platform()},
                   "summary": summary, "records": records}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

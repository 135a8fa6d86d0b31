"""Iterations, process CPU time, exit and output digests of `pmicert relax
--json` per instance, and the in-process CPU time of the solver and of the
certificate extraction, for one or more source trees of the program.

    git archive <commit> | tar -x -C /tmp/parent
    python3 tools/bench_relax.py --variant parent=/tmp/parent/src \\
        --variant new=src --seed 7 --repeats 21 --out BENCH_relax.json

Instances: the relax jobs of the benchmark's `relax` workload at --seed
(perfbench/workloads.py), and 32 box instances at k = 2: the two degenerate
ones 4 x1^2 - 8 x1 - 3 x2^2 - 2 x2 and x1^2 + x1 + 2 x2^2 + 4 x2, and
perfbench's box_separable(Random(s), n) for s in 0..14 and n in {2, 3}, the
draws of tests/test_relax.py.  Each instance runs once per variant, the
variants alternating, in a fresh process with PYTHONPATH set to the
variant's source tree and numpy's BLAS held to one thread (tools/harness.py);
CPU time is the child's user plus system time, interpreter start-up and
imports included.  The run also writes the numeric certificate
(--emit-certificate) and the SDPA file (--export-sdpa), and the record gives
the sha256 of each (None if it was not written), so that byte-identical
output across variants can be read off: the summary counts them as
qmc_as_<first variant> and sdpa_as_<first variant>.  A second fresh process
per instance and variant builds the relaxation and times --repeats calls of
solve_sdp on it after one untimed call: solve_s is their median process CPU
time and eval_us that median over the evaluation count, so start-up and
parsing drop out.  extract_s is the median process CPU time of --repeats
calls of extract_certificate on the solved result (None when the solver
reports the relaxation infeasible).  An instance whose gamma or iteration count differs
between variants is listed under "differs" in the summary.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import resource
import statistics
import sys
import tempfile

import harness  # puts perfbench/ on sys.path
import families as fam
import workloads
from refmath import write_problem

# run as python -c SOLVE_TIMER <problem> <order> <repeats>
SOLVE_TIMER = """
import json, statistics, sys, time
from pmicert.problemio import load_problem
from pmicert.relax import RelaxResult, build_relaxation, extract_certificate, solve_sdp
prob = load_problem(sys.argv[1])
p = build_relaxation(prob.F[0, 0], prob.G, int(sys.argv[2]))
result = solve_sdp(p)

def median_cpu(call):
    times = []
    for _ in range(int(sys.argv[3])):
        start = time.process_time()
        call()
        times.append(time.process_time() - start)
    return statistics.median(times)

solve_s = median_cpu(lambda: solve_sdp(p))
extract_s = (median_cpu(lambda: extract_certificate(result, p))
             if isinstance(result, RelaxResult) else None)
print(json.dumps({"solve_s": solve_s, "extract_s": extract_s,
                  "evaluations": result.iterations}))
"""

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


def solve_time(src: str, path: str, k: int, repeats: int) -> dict:
    """Median in-process CPU seconds of solve_sdp, and per evaluation in µs,
    and of extract_certificate; None for all when the solver raises."""
    proc = harness.run_python(src, ["-c", SOLVE_TIMER, path, str(k), str(repeats)])
    if proc.returncode != 0:
        return {"solve_s": None, "eval_us": None, "extract_s": None}
    timed = json.loads(proc.stdout)
    extract = timed["extract_s"]
    return {"solve_s": round(timed["solve_s"], 6),
            "eval_us": round(timed["solve_s"] / timed["evaluations"] * 1e6, 2),
            "extract_s": None if extract is None else round(extract, 7)}


def digest(path: str) -> str | None:
    """sha256 of the file at path, which is then removed; None if there is none."""
    if not os.path.exists(path):
        return None
    with open(path, "rb") as fh:
        data = fh.read()
    os.remove(path)
    return hashlib.sha256(data).hexdigest()


def run(src: str, path: str, k: int) -> dict:
    qmc, sdpa = path + ".qmc", path + ".sdpa"
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = harness.run_python(src, ["-c", harness.CLI, "relax", path, "--order", str(k),
                                    "--json", "--emit-certificate", qmc, "--export-sdpa", sdpa])
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    payload = json.loads(proc.stdout) if proc.stdout.startswith("{") else {}
    exit_ = payload.get("status") or payload.get("error") or proc.stderr.strip()
    iterations = payload.get("iterations")
    budget = re.fullmatch(r"iteration budget (\d+) exhausted", exit_)
    if budget:
        iterations = int(budget.group(1))
    return {"iterations": iterations, "cpu_s": round(cpu, 4), "exit": exit_,
            "gamma": payload.get("gamma"), "qmc_sha256": digest(qmc),
            "sdpa_sha256": digest(sdpa)}


def main() -> int:
    ap = harness.parser(__doc__.split("\n\n")[0], "BENCH_relax.json")
    ap.add_argument("--repeats", type=int, default=21,
                    help="timed solve_sdp and extract_certificate calls per instance and "
                         "variant")
    args = ap.parse_args()
    variants = harness.variants(args)
    records = []
    with tempfile.TemporaryDirectory() as workdir:
        for i, (job, n, k, path) in enumerate(instances(args.seed, workdir)):
            rec = {"job": job, "n": n, "k": k}
            for label, src in harness.in_turn(variants, i):
                rec[label] = run(src, path, k)
                rec[label].update(solve_time(src, path, k, args.repeats))
            records.append(rec)
            print(job, *(f"{label}={rec[label]['iterations']}" for label, _ in variants),
                  file=sys.stderr)
    first = variants[0][0]
    summary = {}
    for label, _ in variants:
        its = [r[label]["iterations"] for r in records if r[label]["iterations"] is not None]
        summary[label] = {
            "ok": sum(r[label]["exit"] == "ok" for r in records),
            "iterations_total": sum(its),
            "iterations_median": statistics.median(its) if its else None,
            "cpu_s_total": round(sum(r[label]["cpu_s"] for r in records), 3),
            "solve_s_total": round(sum(r[label]["solve_s"] or 0.0 for r in records), 4),
            "extract_s_total": round(sum(r[label]["extract_s"] or 0.0 for r in records), 5),
            **{f"{kind}_as_{first}": sum(r[label][f"{kind}_sha256"] == r[first][f"{kind}_sha256"]
                                         for r in records if r[first][f"{kind}_sha256"])
               for kind in ("qmc", "sdpa")},
        }
    summary["differs"] = [
        r["job"] for r in records
        if len({(r[label]["gamma"], r[label]["iterations"]) for label, _ in variants}) > 1
    ]
    harness.write(args.out, args, variants, summary, records)
    return 0


if __name__ == "__main__":
    sys.exit(main())

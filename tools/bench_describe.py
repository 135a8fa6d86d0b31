"""CPU time and witness checks of the describe commands per input, and the
sphere estimate on constrained instances, for one or more source trees of
the program.

    git archive <commit> | tar -x -C /tmp/parent
    python3 tools/bench_describe.py --variant parent=/tmp/parent/src \\
        --variant new=src --seed 7 --out BENCH_describe.json

Jobs: the jobs of the benchmark's `describe` workload at --seed
(perfbench/workloads.py).  Each job runs once per variant, the variants
alternating, in a fresh process with PYTHONPATH set to the variant's source
tree and numpy's BLAS held to one thread (tools/harness.py).  For a
`scalarize`, `scalarize --charpoly` or `homogenize` job the child calls
`pmicert.cli.main` once untimed, counting `scalarize.verify_witness` calls,
and then --repeats times; cpu_s is the median of those calls' process CPU
times (imports excluded), and the record gives a digest of the standard
output.  For a `dehomogenize_certificate` job the child loads the problem
and the sphere certificate, lifts the problem and transfers the certificate
once untimed, then times --repeats batches of DEHOMOGENIZE_CALLS transfers,
and the median batch over DEHOMOGENIZE_CALLS is the CPU time of one
transfer.  A transfer takes about a millisecond, so a job runs in
DEHOMOGENIZE_ROUNDS such children per variant, the variants alternating
from round to round; cpu_s is the median over the rounds, and the record
gives a digest of the first round's serialized output.  So byte-identical
output across variants can be read off every job.

Constrained suite: the 60 instances of tests/constrained_suite.py, each
estimated by `estimate_homogenized_min` at its defaults, in blocks of
SUITE_BLOCK instances: one child per block and variant, the variants
alternating from block to block as they do from job to job; gap is the
estimate minus the SLSQP reference, which this process computes without
pmicert.  Each record also gives the estimate and its argmin in float.hex,
and bitwise_as_<first variant> counts the instances whose two agree bit for
bit with the first variant's.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile

import harness  # puts perfbench/ on sys.path
import workloads

sys.path.insert(0, os.path.join(harness.ROOT, "tests"))
import constrained_suite  # noqa: E402  (numpy and scipy only at import)

JOB_CHILD = """
import contextlib, hashlib, io, json, statistics, sys, time
from pmicert.cli import main
scalarize = sys.modules["pmicert.scalarize"]  # the package attribute is the function
argv, repeats = json.loads(sys.argv[1]), int(sys.argv[2])
checks = [0]
original = scalarize.verify_witness
def counted(*args):
    checks[0] += 1
    return original(*args)
scalarize.verify_witness = counted
def once():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()
code, stdout = once()
witness_checks = checks[0]
times = []
for _ in range(repeats):
    start = time.process_time()
    once()
    times.append(time.process_time() - start)
print(json.dumps({"cpu_s": statistics.median(times), "exit": code,
                  "witness_checks": witness_checks,
                  "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest()}))
"""

DEHOMOGENIZE_CHILD = """
import hashlib, json, statistics, sys, time
from pmicert.certify import deserialize, serialize
from pmicert.homogenize import dehomogenize_certificate, lift_problem
from pmicert.problemio import load_problem
problem, certificate, _ = json.loads(sys.argv[1])
repeats, calls = int(sys.argv[2]), int(sys.argv[3])
data = load_problem(problem)
with open(certificate, encoding="utf-8") as fh:
    cert = deserialize(fh.read())
lifted = lift_problem(data.F, data.G)
k, out = dehomogenize_certificate(cert, lifted)
times = []
for _ in range(repeats):
    start = time.process_time()
    for _ in range(calls):
        dehomogenize_certificate(cert, lifted)
    times.append((time.process_time() - start) / calls)
print(json.dumps({"cpu_s": statistics.median(times), "k": k,
                  "output_sha256": hashlib.sha256(serialize(out).encode()).hexdigest()}))
"""

SUITE_CHILD = """
import json, sys, time
sys.path.insert(0, sys.argv[1])
import constrained_suite
from pmicert.homogenize import estimate_homogenized_min, lift_problem
out = []
for inst in constrained_suite.instances()[int(sys.argv[2]):int(sys.argv[3])]:
    F, G = constrained_suite.problem(inst)
    start = time.process_time()
    est = estimate_homogenized_min(lift_problem(F, G))
    out.append({"estimate": est.value, "cpu_s": time.process_time() - start,
                "estimate_hex": est.value.hex(), "argmin_hex": [c.hex() for c in est.argmin]})
print(json.dumps(out))
"""

SUITE_BLOCK = 10
DEHOMOGENIZE_CALLS = 20
DEHOMOGENIZE_ROUNDS = 5
KINDS = ("scalarize", "charpoly", "homogenize", "dehomogenize")


def jobs(seed: int, workdir: str) -> list:
    """(job id, kind, argv) of the describe workload's jobs, kind one of KINDS;
    a dehomogenize job's argv is (problem, sphere certificate, output)."""
    manifest = workloads.generate("describe", seed, workdir)
    return [(job["id"], _kind(job), job["argv"]) for job in manifest["jobs"]]


def child(src: str, argv: list, cwd: str | None = None):
    proc = harness.run_python(src, argv, cwd=cwd)
    if proc.returncode != 0:
        raise SystemExit(f"child on {src} exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout)


def main() -> int:
    ap = harness.parser(__doc__.split("\n\n")[0], "BENCH_describe.json")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    variants = harness.variants(args)
    records = []
    with tempfile.TemporaryDirectory() as workdir:
        for i, (job, kind, argv) in enumerate(jobs(args.seed, workdir)):
            rec = {"job": job, "kind": kind}
            if kind == "dehomogenize":
                code = [DEHOMOGENIZE_CHILD, json.dumps(argv), str(args.repeats),
                        str(DEHOMOGENIZE_CALLS)]
            else:
                rec["argv"] = argv[:1] + argv[2:]
                code = [JOB_CHILD, json.dumps(argv), str(args.repeats)]
            runs = {label: [] for label, _ in variants}
            for r in range(DEHOMOGENIZE_ROUNDS if kind == "dehomogenize" else 1):
                for label, src in harness.in_turn(variants, i + r):
                    runs[label].append(child(src, ["-c", *code], cwd=workdir))
            for label, _ in variants:
                cpu = statistics.median(run["cpu_s"] for run in runs[label])
                rec[label] = dict(runs[label][0], cpu_s=round(cpu, 6))
            records.append(rec)
            print(job, *(f"{label}={rec[label]['cpu_s']:.4f}s" for label, _ in variants),
                  file=sys.stderr)

    references = [constrained_suite.reference_min(inst)
                  for inst in constrained_suite.instances()]
    suite = {label: [] for label, _ in variants}
    for i, start in enumerate(range(0, len(references), SUITE_BLOCK)):
        block = [os.path.join(harness.ROOT, "tests"), str(start), str(start + SUITE_BLOCK)]
        for label, src in harness.in_turn(variants, i):
            suite[label] += child(src, ["-c", SUITE_CHILD, *block])
    constrained = []
    for k, ref in enumerate(references):
        rec = {"instance": k, "reference": ref}
        for label, _ in variants:
            run = suite[label][k]
            rec[label] = dict(run, gap=run["estimate"] - ref, cpu_s=round(run["cpu_s"], 6))
        constrained.append(rec)

    first = variants[0][0]
    summary = {}
    for label, _ in variants:
        kinds = {}
        for kind in KINDS:
            sel = [r for r in records if r["kind"] == kind]
            digest = "output" if kind == "dehomogenize" else "stdout"
            kinds[kind] = {
                "jobs": len(sel),
                "cpu_s_total": round(sum(r[label]["cpu_s"] for r in sel), 6),
                digest + "_as_" + first: sum(r[label][digest + "_sha256"]
                                             == r[first][digest + "_sha256"] for r in sel),
            }
            if kind != "dehomogenize":
                kinds[kind]["witness_checks_per_job"] = statistics.mean(
                    r[label]["witness_checks"] for r in sel)
        gaps = [r[label]["gap"] for r in constrained]
        delta = [r[label]["gap"] - r[first]["gap"] for r in constrained]
        kinds["constrained"] = {
            "instances": len(gaps),
            "gap_mean": statistics.mean(gaps),
            "gap_max": max(gaps),
            "gap_min": min(gaps),
            "above_1e-3": sum(g > 1e-3 for g in gaps),
            "worse_than_" + first: sum(d > 1e-6 for d in delta),
            "better_than_" + first: sum(d < -1e-6 for d in delta),
            "bitwise_as_" + first: sum(_bits(r[label]) == _bits(r[first]) for r in constrained),
            "cpu_s_total": round(sum(r[label]["cpu_s"] for r in constrained), 4),
        }
        summary[label] = kinds
    harness.write(args.out, args, variants, summary, records, repeats=args.repeats,
                  constrained=constrained)
    return 0


def _bits(run: dict) -> tuple:
    return run["estimate_hex"], run["argmin_hex"]


def _kind(job: dict) -> str:
    if job["kind"] == "dehomogenize":
        return "dehomogenize"
    return "charpoly" if "--charpoly" in job["argv"] else job["argv"][0]


if __name__ == "__main__":
    sys.exit(main())

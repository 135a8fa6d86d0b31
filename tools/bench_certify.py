"""CPU time and output digests of the certify-simplex jobs, for one or more
source trees of the program.

    git archive <commit> | tar -x -C /tmp/parent
    python3 tools/bench_certify.py --variant parent=/tmp/parent/src \\
        --variant new=src --seed 7 --out BENCH_certify.json

Jobs: the `certify-simplex` jobs of the benchmark's `certify` workload at
--seed (perfbench/workloads.py).  Each job runs once per variant, the
variants alternating, in a fresh process with PYTHONPATH set to the
variant's source tree and numpy's BLAS held to one thread
(tools/harness.py).  The child calls `pmicert.cli.main` once untimed,
counting `certify.verify_certificate` calls, and then --repeats times;
cpu_s is the median of those calls' process CPU times (imports excluded).
Each record also gives the size of the written .qmc in bytes, its
multiplier term count, and the sha256 of the standard output and of the
.qmc, so that byte-identical output across variants can be read off (a
change of certificate layout reads 0 there).  The summary repeats the
totals per Polya degree t of the jobs (the `-t<t>-` of the job id).
"""

from __future__ import annotations

import json
import re
import statistics
import sys
import tempfile

import harness  # puts perfbench/ on sys.path
import workloads

CHILD = """
import contextlib, hashlib, io, json, statistics, sys, time
from pmicert.cli import main
import pmicert.certify as certify
argv, out, repeats = json.loads(sys.argv[1]), sys.argv[2], int(sys.argv[3])
calls = [0]
original = certify.verify_certificate
def counted(*args, **kwargs):
    calls[0] += 1
    return original(*args, **kwargs)
certify.verify_certificate = counted
def once():
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = main(argv)
    return code, text.getvalue()
code, stdout = once()
verify_calls = calls[0]
with open(out, "rb") as fh:
    qmc = fh.read()
times = []
for _ in range(repeats):
    start = time.process_time()
    once()
    times.append(time.process_time() - start)
terms = next(int(line.split()[1]) for line in qmc.decode().splitlines()
             if line.startswith("multipliers "))
print(json.dumps({"cpu_s": statistics.median(times), "exit": code,
                  "verify_calls": verify_calls, "qmc_bytes": len(qmc),
                  "multiplier_terms": terms,
                  "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
                  "qmc_sha256": hashlib.sha256(qmc).hexdigest()}))
"""


def jobs(seed: int, workdir: str) -> list:
    """(job id, command, .qmc path) of the certify workload's certify-simplex jobs."""
    manifest = workloads.generate("certify", seed, workdir)
    return [(job["id"], job["argv"], job["writes"]["out"]) for job in manifest["jobs"]
            if job["argv"][0] == "certify-simplex"]


def totals(label: str, records: list) -> dict:
    """Job count, CPU seconds, multiplier terms and .qmc bytes of label's records."""
    return {
        "jobs": len(records),
        "cpu_s_total": round(sum(r[label]["cpu_s"] for r in records), 4),
        "cpu_s_median": round(statistics.median(r[label]["cpu_s"] for r in records), 6),
        "multiplier_terms_per_job": round(
            statistics.mean(r[label]["multiplier_terms"] for r in records), 2),
        "qmc_bytes_total": sum(r[label]["qmc_bytes"] for r in records),
    }


def main() -> int:
    ap = harness.parser(__doc__.split("\n\n")[0], "BENCH_certify.json")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    variants = harness.variants(args)
    records = []
    with tempfile.TemporaryDirectory() as workdir:
        for i, (job, argv, out) in enumerate(jobs(args.seed, workdir)):
            rec = {"job": job}
            for label, src in harness.in_turn(variants, i):
                proc = harness.run_python(src, ["-c", CHILD, json.dumps(argv), out,
                                                str(args.repeats)], cwd=workdir)
                if proc.returncode != 0:
                    raise SystemExit(f"{job} on {src} exited {proc.returncode}: {proc.stderr}")
                rec[label] = json.loads(proc.stdout)
                rec[label]["cpu_s"] = round(rec[label]["cpu_s"], 6)
            records.append(rec)
            print(job, *(f"{label}={rec[label]['cpu_s']:.4f}s" for label, _ in variants),
                  file=sys.stderr)
    first = variants[0][0]
    degrees = sorted({re.search(r"-t(\d+)-", r["job"]).group(1) for r in records}, key=int)
    summary = {}
    for label, _ in variants:
        summary[label] = dict(
            totals(label, records),
            exit_0=sum(r[label]["exit"] == 0 for r in records),
            verify_calls_per_job=statistics.mean(r[label]["verify_calls"] for r in records),
            **{"stdout_as_" + first: sum(r[label]["stdout_sha256"] == r[first]["stdout_sha256"]
                                         for r in records),
               "qmc_as_" + first: sum(r[label]["qmc_sha256"] == r[first]["qmc_sha256"]
                                      for r in records)},
            by_degree={f"t{t}": totals(label, [r for r in records if f"-t{t}-" in r["job"]])
                       for t in degrees})
    harness.write(args.out, args, variants, summary, records, repeats=args.repeats)
    return 0


if __name__ == "__main__":
    sys.exit(main())

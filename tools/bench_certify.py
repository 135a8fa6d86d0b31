"""CPU time and output digests of the certify-simplex and polya jobs, for
one or more source trees of the program.

    git archive <commit> | tar -x -C /tmp/parent
    python3 tools/bench_certify.py --variant parent=/tmp/parent/src \\
        --variant new=src --seed 7 --out BENCH_certify.json

Jobs: the `certify-simplex` jobs and the `polya` refutation jobs of the
benchmark's `certify` workload at --seed (perfbench/workloads.py); the
refutations run the longest elevation chains.  Each job runs once per
variant, the variants alternating, in a fresh process with PYTHONPATH set
to the variant's source tree and numpy's BLAS held to one thread
(tools/harness.py).  The child calls `pmicert.cli.main` once, counting
`certify.verify_certificate` calls, and then --repeats times; cold_cpu_s is
the first call's process CPU time, what a one-shot `pmicert` process spends
past its imports with every per-shape table empty, and cpu_s the median of
the repeats', with the tables warm (imports excluded from both).
Each record also gives the sha256 of the standard output and, for a
certify-simplex job, the size of the written .qmc in bytes, its multiplier
term count and the sha256 of the .qmc, so that byte-identical output
across variants can be read off (a change of certificate layout reads 0
there).  The summary repeats the totals per Polya degree t of the
certify-simplex jobs (the `-t<t>-` of the job id) and for the refutations.
`shapes` counts the distinct (n, t) of the certify-simplex jobs and the jobs
whose (n, t) an earlier job of the round has: a process that runs the round
reads those from its per-shape tables.
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
start = time.process_time()
code, stdout = once()
cold = time.process_time() - start
verify_calls = calls[0]
times = []
for _ in range(repeats):
    start = time.process_time()
    once()
    times.append(time.process_time() - start)
rec = {"cpu_s": statistics.median(times), "cold_cpu_s": cold, "exit": code,
       "verify_calls": verify_calls,
       "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest()}
if out:
    with open(out, "rb") as fh:
        qmc = fh.read()
    rec.update(qmc_bytes=len(qmc), qmc_sha256=hashlib.sha256(qmc).hexdigest(),
               multiplier_terms=next(int(line.split()[1]) for line in qmc.decode().splitlines()
                                     if line.startswith("multipliers ")))
print(json.dumps(rec))
"""


def jobs(seed: int, workdir: str) -> list:
    """(job id, command, .qmc path or "") of the certify workload's
    certify-simplex and polya jobs."""
    manifest = workloads.generate("certify", seed, workdir)
    return [(job["id"], job["argv"], job["writes"].get("out", "")) for job in manifest["jobs"]
            if job["argv"][0] in ("certify-simplex", "polya")]


def totals(label: str, records: list) -> dict:
    """Job count and CPU seconds (warm and cold) of label's records, and the
    multiplier terms and .qmc bytes of those that wrote a certificate."""
    certs = [r[label] for r in records if "qmc_bytes" in r[label]]
    out = {"jobs": len(records)}
    for key in ("cpu_s", "cold_cpu_s"):
        out[key + "_total"] = round(sum(r[label][key] for r in records), 4)
        out[key + "_median"] = round(statistics.median(r[label][key] for r in records), 6)
    if certs:
        out["multiplier_terms_per_job"] = round(
            statistics.mean(c["multiplier_terms"] for c in certs), 2)
        out["qmc_bytes_total"] = sum(c["qmc_bytes"] for c in certs)
    return out


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
                for key in ("cpu_s", "cold_cpu_s"):
                    rec[label][key] = round(rec[label][key], 6)
            records.append(rec)
            print(job, *(f"{label}={rec[label]['cpu_s']:.4f}s" for label, _ in variants),
                  file=sys.stderr)
    first = variants[0][0]
    groups, seen, reused = {}, set(), 0
    for r in records:
        t = re.search(r"-t(\d+)-", r["job"])
        groups.setdefault(f"t{t.group(1)}" if t else "refute", []).append(r)
        shape = re.search(r"-n(\d+)-.*-t(\d+)-", r["job"])
        if shape:
            reused += shape.groups() in seen
            seen.add(shape.groups())
    summary = {}
    for label, _ in variants:
        summary[label] = dict(
            totals(label, records),
            exit_0=sum(r[label]["exit"] == 0 for r in records),
            verify_calls_per_job=statistics.mean(r[label]["verify_calls"] for r in records),
            **{"stdout_as_" + first: sum(r[label]["stdout_sha256"] == r[first]["stdout_sha256"]
                                         for r in records),
               "qmc_as_" + first: sum(r[label].get("qmc_sha256") == r[first].get("qmc_sha256")
                                      for r in records if "qmc_sha256" in r[first])},
            by_degree={g: totals(label, groups[g])
                       for g in sorted(groups, key=lambda g: (g == "refute", len(g), g))})
    harness.write(args.out, args, variants, summary, records, repeats=args.repeats,
                  shapes={"distinct": len(seen), "jobs_reusing_a_shape": reused})
    return 0


if __name__ == "__main__":
    sys.exit(main())

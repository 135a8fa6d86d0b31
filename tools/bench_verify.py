"""CPU time of `verify_certificate` per certificate, for one or more source
trees of the program.

    git archive <commit> | tar -x -C /tmp/parent
    python3 tools/bench_verify.py --variant parent=/tmp/parent/src \\
        --variant new=src --seed 7 --out BENCH_verify.json

Certificates: the outputs of the certify-simplex jobs of the benchmark's
`certify` workload and the set-up builds of its `verify` workload (exact
ones from certify-simplex, numeric ones from relax), at --seed
(perfbench/workloads.py).  Each variant's CLI builds its own copy, in its
own directory, so that a variant verifies the certificates it writes.
Each certificate is then verified once per variant, the variants
alternating, in a fresh process with PYTHONPATH set to the variant's source
tree and numpy's BLAS held to one thread (tools/harness.py).  The child
loads the problem and the certificate, shifts F by gamma as `pmicert verify
--gamma` does, calls `verify_certificate` once untimed and then --repeats
times; cpu_s is the median of those calls' process CPU times (parsing and
imports excluded).  Those calls reuse whatever the certificate kept from
the first call; first_s is the median CPU time of --repeats calls that
each verify a certificate freshly deserialized from the text, the cost
`pmicert verify` pays.  deserialize_s is the median CPU time of --repeats
`deserialize` calls on the certificate's text (the file read once, before).
Each record also gives the certificate's size in bytes, its multiplier
term count, the SOS Gram size, whether it verified, and the sha256 of the
report (ok, the messages, and the repr of the residual norm and of each
Gram margin); the summary counts the reports equal to the first
variant's (report_as_<first>).
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import tempfile
from fractions import Fraction

import harness  # puts perfbench/ on sys.path
import workloads

CHILD = """
import hashlib, json, statistics, sys, time
from pmicert.algebra import SymPolyMatrix
from pmicert.certify import deserialize, verify_certificate
from pmicert.problemio import load_problem
from pmicert.ring import parse_ext_rational
problem, path, mode, tol, gamma, repeats = sys.argv[1:]
prob = load_problem(problem)
with open(path, encoding="utf-8") as fh:
    text = fh.read()
cert = deserialize(text)
parse_times = []
for _ in range(int(repeats)):
    start = time.process_time()
    deserialize(text)
    parse_times.append(time.process_time() - start)
g = parse_ext_rational(gamma)
F = SymPolyMatrix([[prob.F[i, j] - g if i == j else prob.F[i, j] for j in range(prob.ell)]
                   for i in range(prob.ell)])
report = verify_certificate(F, prob.G, cert, mode=mode, tol=float(tol))
first_times = []
for _ in range(int(repeats)):
    fresh = deserialize(text)
    start = time.process_time()
    verify_certificate(F, prob.G, fresh, mode=mode, tol=float(tol))
    first_times.append(time.process_time() - start)
times = []
for _ in range(int(repeats)):
    start = time.process_time()
    verify_certificate(F, prob.G, cert, mode=mode, tol=float(tol))
    times.append(time.process_time() - start)
digest = json.dumps([report.ok, report.messages, repr(report.residual_norm),
                     [repr(m) for m in report.gram_margins]])
print(json.dumps({"cpu_s": statistics.median(times), "first_s": statistics.median(first_times),
                  "report_sha256": hashlib.sha256(digest.encode()).hexdigest(),
                  "deserialize_s": statistics.median(parse_times), "ok": report.ok,
                  "qmc_bytes": len(text.encode()),
                  "multiplier_terms": len(cert.multipliers),
                  "gram_dim": sum(b.size() for b in cert.sos_blocks)}))
"""


def certificates(seed: int, workdir: str, src: str):
    """(job, workload, problem, certificate, mode, gamma) of every certificate,
    built by the CLI of the source tree src with paths relative to workdir."""
    out = []
    manifest = workloads.generate("certify", seed, workdir)
    builds = [{"id": job["id"], "argv": job["argv"], "cert": job["writes"]["out"],
               "gamma": False, "workload": "certify", "problem": job["problem"]}
              for job in manifest["jobs"] if job["argv"][0] == "certify-simplex"]
    manifest = workloads.generate("verify", seed, workdir)
    for build in manifest["builds"]:
        build = dict(build, workload="verify", problem=build["argv"][1])
        builds.append(build)
    for build in builds:
        proc = harness.run_python(src, ["-c", harness.CLI, *build["argv"]], cwd=workdir)
        if proc.returncode != 0:
            raise SystemExit(f"build {build['id']} exited {proc.returncode}: {proc.stderr}")
        gamma = "0"
        if build["gamma"]:
            gamma = str(Fraction(float(json.loads(proc.stdout)["gamma"])))
        mode = "numeric" if build["gamma"] else "exact"
        out.append((build["id"], build["workload"], build["problem"], build["cert"], mode,
                    gamma))
    return out


def run(src: str, workdir: str, problem: str, cert: str, mode: str, gamma: str,
        tol: str, repeats: int) -> dict:
    proc = harness.run_python(src, ["-c", CHILD, problem, cert, mode, tol, gamma, str(repeats)],
                              cwd=workdir)
    if proc.returncode != 0:
        raise SystemExit(f"verify of {cert} exited {proc.returncode}: {proc.stderr}")
    rec = json.loads(proc.stdout)
    for key in ("cpu_s", "first_s", "deserialize_s"):
        rec[key] = round(rec[key], 6)
    return rec


def main() -> int:
    ap = harness.parser(__doc__.split("\n\n")[0], "BENCH_verify.json")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    variants = harness.variants(args)
    records = []
    with tempfile.TemporaryDirectory() as tmp:
        workdirs = {label: os.path.join(tmp, label) for label, _ in variants}
        built = {label: certificates(args.seed, workdirs[label], src) for label, src in variants}
        for i, certs in enumerate(zip(*built.values())):
            job, workload, _, _, mode, _ = certs[0]
            rec = {"job": job, "workload": workload, "mode": mode}
            mine = dict(zip(built, certs))
            for label, src in harness.in_turn(variants, i):
                _, _, problem, cert, _, gamma = mine[label]
                rec[label] = run(src, workdirs[label], problem, cert, mode, gamma,
                                 workloads.VERIFY_TOL, args.repeats)
            records.append(rec)
            print(job, *(f"{label}={rec[label]['cpu_s']:.4f}s" for label, _ in variants),
                  file=sys.stderr)
    summary = {}
    first = variants[0][0]
    for label, _ in variants:
        summary.setdefault(label, {})["report_as_" + first] = sum(
            r[label]["report_sha256"] == r[first]["report_sha256"] for r in records)
        for workload in ("certify", "verify"):
            times = [r[label]["cpu_s"] for r in records if r["workload"] == workload]
            fresh = [r[label]["first_s"] for r in records if r["workload"] == workload]
            parse = [r[label]["deserialize_s"] for r in records if r["workload"] == workload]
            summary.setdefault(label, {})[workload] = {
                "certificates": len(times),
                "ok": sum(r[label]["ok"] for r in records if r["workload"] == workload),
                "cpu_s_total": round(sum(times), 4),
                "cpu_s_median": round(statistics.median(times), 6),
                "first_s_total": round(sum(fresh), 4),
                "first_s_median": round(statistics.median(fresh), 6),
                "deserialize_s_total": round(sum(parse), 4),
                "deserialize_s_median": round(statistics.median(parse), 6),
                "multiplier_terms_total": sum(r[label]["multiplier_terms"] for r in records
                                              if r["workload"] == workload),
                "qmc_bytes_total": sum(r[label]["qmc_bytes"] for r in records
                                       if r["workload"] == workload),
            }
    harness.write(args.out, args, variants, summary, records, repeats=args.repeats)
    return 0


if __name__ == "__main__":
    sys.exit(main())

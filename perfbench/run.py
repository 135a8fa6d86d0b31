"""pmicert benchmark: one workload per process, one job in flight at a time.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload relax --seed 1 --seconds 15 --trace 1
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --workload verify --spread 10 --seed 100

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See README.md for the workloads, metrics
and checks.
"""

from __future__ import annotations

import os

# numpy's BLAS pool is held to one thread from here, before anything imports it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from fractions import Fraction  # noqa: E402

import runner  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_REPEATS = 3
CHILD_TIMEOUT = 170
# every run times whole rounds until --seconds of program time have passed
# and at least MIN_PASSED jobs passed; job_s_tail is the percentile with at
# least ten passed jobs beyond it at that count (relax: see README)
MIN_PASSED = {"certify": 40, "verify": 40, "describe": 40, "relax": 0}
TAIL_PERCENTILE = {"certify": 75, "verify": 75, "describe": 75, "relax": 50}

# Jobs and set-ups are timed in CPU seconds (runner.cpu_seconds), so time
# the host gives to other work does not count.  The processor's speed still
# drifts by 10 to 30% over tens of seconds on a shared host, and a run's raw
# times move with the period it fell in.  A fixed probe of pure-Python work
# (Fraction polynomial products and a float matrix product, about 4 ms) runs
# before every job and around every set-up, and each time is scaled to the
# reference speed at which the probe takes PROBE_REF_S:
# seconds x PROBE_REF_S / (median of the nearby probes).  The probe is the
# benchmark's code, so a change to the program does not move it.
PROBE_REF_S = 0.004
PROBE_WINDOW = 3       # a job's probes: this many before it and after it
SETUP_PROBES = 5       # probes before and after each set-up
_rng = random.Random(0)
_PROBE_POLY = {(i, j): Fraction(_rng.randint(-9, 9), _rng.randint(1, 9))
               for i in range(4) for j in range(4 - i)}
_PROBE_MATRIX = [[_rng.uniform(-1.0, 1.0) for _ in range(12)] for _ in range(12)]


def probe() -> float:
    """CPU seconds of the fixed probe work, with the collector off so that
    the program's heap does not enter the probe."""
    gc.disable()
    start = runner.cpu_seconds()
    for _ in range(6):
        prod = {}
        for (a1, a2), ca in _PROBE_POLY.items():
            for (b1, b2), cb in _PROBE_POLY.items():
                e = (a1 + b1, a2 + b2)
                prod[e] = prod.get(e, 0) + ca * cb
    for _ in range(2):
        [[sum(x * y for x, y in zip(row, col)) for col in zip(*_PROBE_MATRIX)]
         for row in _PROBE_MATRIX]
    seconds = runner.cpu_seconds() - start
    gc.enable()
    return seconds


def _scale(probes) -> float:
    return PROBE_REF_S / statistics.median(probes)


def _setup(manifest, workdir):
    """runner.setup with its program seconds scaled to the reference speed."""
    before = [probe() for _ in range(SETUP_PROBES)]
    seconds, program, jobs = runner.setup(manifest, workdir)
    after = [probe() for _ in range(SETUP_PROBES)]
    return seconds * _scale(before + after), program, jobs


def percentile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta(p(n+1), (1-p)(n+1))
    weighted mean of the order statistics.  It moves far less with the
    jitter of single jobs than one order statistic does."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def pdf(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x) - log_beta)

    steps = 16  # Simpson's rule on each [i/n, (i+1)/n]
    weights = []
    for i in range(n):
        lo, h = i / n, 1.0 / (n * steps)
        total = pdf(lo) + pdf(lo + steps * h)
        total += sum((4 if k % 2 else 2) * pdf(lo + k * h) for k in range(1, steps))
        weights.append(total * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def _workdir(workload: str) -> str:
    return os.path.join(BENCH_DIR, ".work", workload)


def _result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


def _child(args: list, timeout: int = CHILD_TIMEOUT) -> dict:
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise runner.BenchError(f"child {args} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(lines[-1])


class Judge:
    """Checks each output once; a later round's output is compared with the
    checked one byte for byte and checked again only if it differs."""

    def __init__(self):
        import checks  # imports numpy: only after set-up, which must pay for it

        self.checks = checks
        self.seen = {}

    def __call__(self, job, rc, stdout, files):
        key = (rc, stdout, tuple(sorted((k, v) for k, v in files.items() if v is not None)))
        prev = self.seen.get(job["id"])
        if prev is not None and prev[0] == key:
            return prev[1]
        try:
            verdict = self.checks.CHECKS[job["check"]](job["data"], rc, stdout, files)
        except Exception as exc:  # a malformed output is a wrong output
            verdict = self.checks.Verdict(self.checks.WRONG, f"{type(exc).__name__}: {exc}")
        self.seen[job["id"]] = (key, verdict)
        return verdict


def _run_job(program, job, judge, records) -> float:
    runner.clear_outputs(job)
    rc, seconds, stdout = program.run(job)
    files = runner.read_files(job)
    verdict = judge(job, rc, stdout, files)
    records.append((job, seconds, verdict, runner.io_bytes(job, stdout, files)))
    return seconds


def _summary(records, judge):
    wrong = [(job["id"], v.message) for job, _, v, _ in records if v.status == judge.checks.WRONG]
    for jid, msg in dict(wrong).items():
        print(f"WRONG {jid}: {msg}", file=sys.stderr)
    failed = sum(v.status != judge.checks.PASS for _, _, v, _ in records)
    return not wrong, len(records), failed


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    start = time.perf_counter()
    runner.require_program()
    workdir = _workdir(workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    manifest = workloads.generate(workload, seed, workdir)
    with open(os.path.join(workdir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    generated = time.perf_counter()
    samples = [_child(["--setup-probe", "--workload", workload])["setup_s"]
               for _ in range(SETUP_REPEATS - 1)]
    own, program, jobs = _setup(manifest, workdir)
    samples.append(own)
    print(f"generate {generated - start:.2f} s, set-up samples "
          + ", ".join(f"{s:.3f}" for s in samples) + " s", file=sys.stderr)
    judge = Judge()
    if trace:
        return _traced(program, jobs, judge, seconds)

    records, probes = [], []
    while True:
        for job in jobs:
            probes.append(probe())
            _run_job(program, job, judge, records)
        measured = sum(r[1] for r in records)
        passed = sum(r[2].status == judge.checks.PASS for r in records)
        if measured >= seconds and passed >= MIN_PASSED[workload]:
            break
    probes.append(probe())
    scaled = [r[1] * _scale(probes[max(0, i - PROBE_WINDOW + 1):i + PROBE_WINDOW + 1])
              for i, r in enumerate(records)]
    passed = [t for t, r in zip(scaled, records) if r[2].status == judge.checks.PASS]
    correct, attempted, failed = _summary(records, judge)
    q = TAIL_PERCENTILE[workload]
    metrics = {
        "jobs_per_s": (len(passed) / sum(scaled), "1/s"),
        "job_s_p50": (percentile(passed, 0.5), "s"),
        "job_s_tail": (percentile(passed, q / 100), "s"),
        "setup_s": (statistics.median(samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "cert_kb": (statistics.fmean(r[3] for r in records) / 1024.0, "KB"),
    }
    print(f"{workload}: {len(records) // len(jobs)} rounds of {len(jobs)} jobs, "
          f"{attempted} attempted, {failed} failed, tail = p{q}, "
          f"{measured:.2f} s timed, {time.perf_counter() - start:.2f} s in all")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<12} {value:.6g} {unit}")
    print(_result_line(correct, attempted, failed, metrics))
    return 0


def _traced(program, jobs, judge, seconds) -> int:
    from tracer import Tracer

    tracer = Tracer()
    records, plain, traced, rounds = [], 0.0, 0.0, 0
    while plain + traced < seconds or rounds == 0:
        # each job runs untraced and traced back to back, in alternating
        # order, so that drift of the machine's speed cancels in the overhead
        for index, job in enumerate(jobs):
            for with_trace in ((False, True) if index % 2 == 0 else (True, False)):
                if with_trace:
                    tracer.install()
                    try:
                        traced += _run_job(program, job, judge, records)
                    finally:
                        tracer.uninstall()
                else:
                    plain += _run_job(program, job, judge, records)
        rounds += 1
    correct, attempted, failed = _summary(records, judge)
    metrics = tracer.metrics(rounds * len(jobs))
    metrics["trace.overhead"] = (100.0 * (traced / plain - 1.0), "%")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<26} {value:.6g} {unit}")
    print(_result_line(correct, attempted, failed, metrics))
    return 0


def setup_probe(workload: str) -> int:
    workdir = _workdir(workload)
    with open(os.path.join(workdir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    seconds, _, _ = _setup(manifest, workdir)
    print(json.dumps({"setup_s": seconds}))
    return 0


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(workload: str, runs: int, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload `runs` times on seeds seed, seed+1, ... and report
    each metric's median, quartiles, min and max, and (q3 - q1) / median."""
    results = []
    for i in range(runs):
        res = _child(["--workload", workload, "--seed", str(seed + i), "--seconds",
                      str(seconds), "--trace", str(int(trace))], timeout=600)
        results.append(res)
        print(f"seed {seed + i}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", flush=True)
    report = {}
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, q3 = _quartiles(vals)
        report[name] = {"median": med, "q1": q1, "q3": q3, "min": min(vals), "max": max(vals),
                        "iqr_share": (q3 - q1) / med if med else 0.0,
                        "unit": results[0]["metrics"][name]["unit"]}
        print(f"  {name:<26} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  min {min(vals):.6g}"
              f"  max {max(vals):.6g}  iqr/median {report[name]['iqr_share']:.3f}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "failed_shares": sorted(shares), "spread": report}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; one table, then one JSON line."""
    metrics, correct, attempted, failed = {}, True, 0, 0
    for workload in workloads.WORKLOADS:
        res = _child(["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", str(int(trace))], timeout=600)
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        print(f"{workload}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}")
        for name, m in res["metrics"].items():
            print(f"  {name:<26} {m['value']:.6g} {m['unit']}")
            metrics[f"{workload}.{name}"] = (m["value"], m["unit"])
    print(_result_line(correct, attempted, failed, metrics))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spread", type=int, default=0,
                        help="run the workload this many times on successive seeds")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            return setup_probe(args.workload)
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace))
        if args.spread:
            return spread(args.workload, args.spread, args.seed, args.seconds, bool(args.trace))
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (runner.BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

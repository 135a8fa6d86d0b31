"""Running jobs through the program, in this process, one at a time.

CLI jobs call pmicert.cli.main(argv) exactly as the console script does,
with standard output captured; the dehomogenize job calls the library the
way a command would (load, lift, transfer, serialize).  Only the program's
own calls are timed.  pmicert is imported by setup(), inside its timing.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import resource
import sys
import time
from fractions import Fraction

from refmath import parse_coeff

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def cpu_seconds() -> float:
    """CPU seconds used so far by this process (all its threads) and by the
    children it has waited for.  Time spent off the processor, when the host
    runs someone else, is not the program's and does not count."""
    child = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + child.ru_utime + child.ru_stime


class BenchError(RuntimeError):
    """The benchmark cannot run (missing program, a set-up step failed)."""


def require_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "pmicert", "cli.py")):
        raise BenchError(f"program sources not found under {SRC}")


class Program:
    """Handles on the program's entry points, imported on construction."""

    def __init__(self):
        require_program()
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        self.cli = importlib.import_module("pmicert.cli")
        self.certify = importlib.import_module("pmicert.certify")
        self.homogenize = importlib.import_module("pmicert.homogenize")
        self.problemio = importlib.import_module("pmicert.problemio")

    def run(self, job: dict):
        """(exit code, seconds, standard output) of one job."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = cpu_seconds()
            try:
                if job["kind"] == "cli":
                    rc = self.cli.main(job["argv"])
                else:
                    rc = self._dehomogenize(*job["argv"])
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # an uncaught program error fails the job's check
                rc = -1
                print(f"{type(exc).__name__}: {exc}")
            seconds = cpu_seconds() - start
        return rc, seconds, out.getvalue()

    def _dehomogenize(self, problem: str, certificate: str, out: str) -> int:
        prob = self.problemio.load_problem(problem)
        with open(certificate, "r", encoding="utf-8") as fh:
            cert = self.certify.deserialize(fh.read())
        lifted = self.homogenize.lift_problem(prob.F, prob.G)
        _, result = self.homogenize.dehomogenize_certificate(cert, lifted)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(self.certify.serialize(result))
        return 0


def _tamper(text: str) -> str:
    """Add 1 to the first diagonal Gram entry.  The SOS part then changes by
    z_0^2 for the first basis monomial z_0, which no other term of the
    certificate can cancel, so the identity provably breaks."""
    lines = text.split("\n")
    row = lines.index("gram") + 1
    toks = lines[row].split()
    toks[0] = f"({parse_coeff(toks[0][1:-1]) + 1})"
    lines[row] = " ".join(toks)
    return "\n".join(lines)


def _fill(text: str, values: dict) -> str:
    for key, val in values.items():
        text = text.replace("{" + key + "}", val)
    return text


def setup(manifest: dict, workdir: str):
    """Import the program, run the set-up builds, then one untimed pass over
    the first job of each shape.  Returns (program seconds, Program, jobs)."""
    os.chdir(workdir)
    start = cpu_seconds()
    program = Program()
    seconds = cpu_seconds() - start
    values = {}
    for build in manifest["builds"]:
        rc, dt, stdout = program.run({"kind": "cli", "argv": build["argv"]})
        seconds += dt
        if rc != 0:
            raise BenchError(f"set-up build {build['id']} exited {rc}: {stdout[-300:]}")
        with open(build["cert"], "r", encoding="utf-8") as fh:
            text = fh.read()
        with open(build["cert"].replace(".qmc", "-tampered.qmc"), "w", encoding="utf-8") as fh:
            fh.write(_tamper(text))
        values[f"degree:{build['id']}"] = next(
            ln.split()[1] for ln in text.splitlines() if ln.startswith("degree "))
        if build["gamma"]:
            values[f"gamma:{build['id']}"] = str(Fraction(float(json.loads(stdout)["gamma"])))
    jobs = json.loads(_fill(json.dumps(manifest["jobs"]), values))
    seen = set()
    for job in jobs:
        if job["shape"] not in seen:
            seen.add(job["shape"])
            seconds += program.run(job)[1]
    return seconds, program, jobs


def read_files(job: dict) -> dict:
    """Text of the files a job wrote or read, plus its problem file."""
    files = {}
    for key, path in list(job["writes"].items()) + list(job["reads"].items()):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                files[key] = fh.read()
        except FileNotFoundError:
            files[key] = None
    if job.get("problem"):
        with open(job["problem"], "r", encoding="utf-8") as fh:
            files["problem"] = fh.read()
    return files


def clear_outputs(job: dict) -> None:
    for path in job["writes"].values():
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


def io_bytes(job: dict, stdout: str, files: dict) -> int:
    """Bytes of certificate or description text a job writes (its output
    files, or its standard output when it writes none) or, for verify, reads."""
    keys = list(job["writes"]) or list(job["reads"])
    if keys:
        return sum(len((files.get(k) or "").encode()) for k in keys)
    return len(stdout.encode())

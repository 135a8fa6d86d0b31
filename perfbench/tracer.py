"""Per-layer spans and counters, recorded from outside the program.

install() replaces public functions and methods of the pmicert modules with
wrappers; every module attribute that refers to the same function object is
replaced, so a name imported into another module (pmicert.cli.polya_certificate,
pmicert.certify.congruence, ...) is wrapped where it is looked up.
uninstall() puts the originals back.  Nothing under src/ changes.

A span's self time is its duration minus the time of the spans opened inside
it; totals are kept in memory per span name.  ExtRational operations are
only counted, not timed.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (dotted target in pmicert, span name); a target is module.function or
# module.Class.method
SPANS = [
    ("algebra.Polynomial.__mul__", "algebra.poly_mul"),
    ("algebra.congruence", "algebra.congruence"),
    ("algebra.psd_exact", "algebra.psd"),
    ("algebra.psd_exact_ldlt", "algebra.psd"),
    ("algebra.ldlt", "algebra.psd"),
    ("algebra.RationalSymMatrix.determinant", "algebra.psd"),
    ("algebra.Polynomial.evaluate_float", "algebra.eval"),
    ("algebra.SymPolyMatrix.evaluate_float", "algebra.eval"),
    ("algebra.min_eigenvalue_numeric", "algebra.eig"),
    ("bernstein.to_bernstein", "bernstein.convert"),
    ("bernstein.elevate", "bernstein.elevate"),
    ("bernstein.bernstein_norm", "bernstein.norm"),
    ("bernstein.norm_of_expansion", "bernstein.norm"),
    ("bernstein.bernstein_norm_float", "bernstein.norm"),
    ("polya.polya_certificate", "polya.search"),
    ("polya.grid_min_eigenvalue", "polya.grid"),
    ("certify.assemble_simplex_putinar", "certify.assemble"),
    ("certify.facet_certificate", "certify.facet"),
    ("certify._product_membership", "certify.facet"),
    ("certify.verify_certificate", "certify.verify"),
    ("certify.serialize", "certify.serialize"),
    ("certify.deserialize", "certify.deserialize"),
    ("relax.build_relaxation", "relax.build"),
    ("relax.solve_sdp", "relax.solve"),
    ("relax.solve_relaxation", "relax.sample"),
    ("relax.extract_certificate", "relax.extract"),
    ("sdpa.export_sdpa", "sdpa.export"),
    ("scalarize.scalarize", "scalarize.total"),
    ("scalarize.reduction_step", "scalarize.reduction"),
    ("scalarize.verify_witness", "scalarize.witness"),
    ("scalarize.charpoly_scalarization", "scalarize.charpoly"),
    ("homogenize.lift_problem", "homogenize.lift"),
    ("homogenize.estimate_homogenized_min", "homogenize.estimate"),
    ("homogenize.dehomogenize_certificate", "homogenize.dehomogenize"),
    ("bounds.theta", "bounds"),
    ("bounds.eta_estimate", "bounds"),
    ("bounds.putinar_matrix_bound", "bounds"),
    ("bounds.putinar_scalar_bound", "bounds"),
    ("bounds.licq_bound", "bounds"),
    ("bounds.pv_bound", "bounds"),
    ("bounds.convergence_rate", "bounds"),
    ("bounds.markov_gradient_bound", "bounds"),
    ("bounds.perturbation_bound", "bounds"),
    ("problemio.load_problem", "problemio.load"),
    ("cli.main", "cli"),
]
COUNTERS = [
    ("ring.ExtRational.__mul__", "ring.mul"),
    ("ring.ExtRational.__add__", "ring.add"),
    ("ring.ExtRational.inverse", "ring.inv"),
]


def _polya_degrees(args, kwargs, result, exc):
    F = args[0]
    d = max(F.degree, 0)
    if exc is None:
        return result.degree - d + 1
    max_degree = args[1] if len(args) > 1 else kwargs["max_degree"]
    return max_degree - d + 1 if type(exc).__name__ == "NotPositiveDefiniteOnSimplex" else 0


def _elevate_steps(args, kwargs, result, exc):
    return 0 if exc else result.degree - args[0].degree


# span name -> [(counter, f(args, kwargs, result, exception) -> amount)]
EXTRA = {
    "polya.search": [("polya.degrees_tried", _polya_degrees)],
    "bernstein.elevate": [("bernstein.elevate_steps", _elevate_steps)],
    "certify.assemble": [
        ("certify.multiplier_terms", lambda a, k, r, e: 0 if e else len(r.multipliers)),
        ("certify.gram_dim", lambda a, k, r, e: 0 if e else sum(b.size() for b in r.sos_blocks)),
    ],
    "relax.solve": [("relax.dr_iters", lambda a, k, r, e: 0 if e else r.iterations)],
    "relax.build": [("relax.constraints", lambda a, k, r, e: 0 if e else r.constraint_count())],
    "homogenize.estimate": [("homogenize.samples", lambda a, k, r, e: 0 if e else r.samples)],
}


class Tracer:
    def __init__(self):
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []          # child time accumulated by each open span
        self._eval_depth = 0
        self._saved = []          # (owner, attribute, original)

    # -- recording -----------------------------------------------------

    def _span(self, name, fn):
        extras = EXTRA.get(name, ())
        stack, clock = self._stack, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            outer = name == "algebra.eval" and tracer._eval_depth == 0
            if name == "algebra.eval":
                tracer._eval_depth += 1
                if outer:
                    tracer.counts["algebra.eval_points"] += 1
            stack.append(0.0)
            start = clock()
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                dur = clock() - start
                child = stack.pop()
                tracer.self_time[name] += dur - child
                tracer.calls[name] += 1
                if stack:
                    stack[-1] += dur
                if name == "algebra.eval":
                    tracer._eval_depth -= 1
                for counter, amount in extras:
                    tracer.counts[counter] += amount(args, kwargs, result, exc)

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "pmicert" or key.startswith("pmicert.")]
        for targets, make in ((SPANS, self._span), (COUNTERS, self._counter)):
            for target, name in targets:
                mod_name, *path = target.split(".")
                owner = sys.modules[f"pmicert.{mod_name}"]
                for attr in path[:-1]:
                    owner = getattr(owner, attr)
                original = owner.__dict__[path[-1]]
                wrapped = make(name, original)
                places = modules if len(path) == 1 else [owner]
                for place in places:
                    for attr, value in list(vars(place).items()):
                        if value is original:
                            self._saved.append((place, attr, original))
                            setattr(place, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def metrics(self, jobs: int) -> dict:
        """Per-layer metrics per traced job (iter_us per DR iteration)."""
        s, c, n = self.self_time, self.counts, max(jobs, 1)
        out = {
            "ring.mul": (c["ring.mul"] / n, "count/job"),
            "ring.add": (c["ring.add"] / n, "count/job"),
            "ring.inv": (c["ring.inv"] / n, "count/job"),
            "algebra.poly_mul": (self.calls["algebra.poly_mul"] / n, "count/job"),
            "algebra.psd_calls": (self.calls["algebra.psd"] / n, "count/job"),
            "algebra.eval_points": (c["algebra.eval_points"] / n, "count/job"),
            "algebra.eig_calls": (self.calls["algebra.eig"] / n, "count/job"),
            "certify.verify_calls": (self.calls["certify.verify"] / n, "count/job"),
            "scalarize.reduction_steps": (self.calls["scalarize.reduction"] / n, "count/job"),
            "scalarize.witness_checks": (self.calls["scalarize.witness"] / n, "count/job"),
            "problemio.loads": (self.calls["problemio.load"] / n, "count/job"),
        }
        for counter in ("bernstein.elevate_steps", "polya.degrees_tried",
                        "certify.multiplier_terms", "certify.gram_dim", "relax.dr_iters",
                        "relax.constraints", "homogenize.samples"):
            out[counter] = (c[counter] / n, "count/job")
        timed = {
            "algebra.poly_mul_s": "algebra.poly_mul", "algebra.congruence_s": "algebra.congruence",
            "algebra.psd_s": "algebra.psd", "algebra.eval_s": "algebra.eval",
            "algebra.eig_s": "algebra.eig", "bernstein.convert_s": "bernstein.convert",
            "bernstein.elevate_s": "bernstein.elevate", "bernstein.norm_s": "bernstein.norm",
            "polya.search_s": "polya.search", "polya.grid_s": "polya.grid",
            "certify.assemble_s": "certify.assemble", "certify.facet_s": "certify.facet",
            "certify.verify_s": "certify.verify", "certify.serialize_s": "certify.serialize",
            "certify.deserialize_s": "certify.deserialize", "relax.build_s": "relax.build",
            "relax.solve_s": "relax.solve", "relax.sample_s": "relax.sample",
            "relax.extract_s": "relax.extract", "sdpa.export_s": "sdpa.export",
            "scalarize.total_s": "scalarize.total", "scalarize.reduction_s": "scalarize.reduction",
            "scalarize.witness_s": "scalarize.witness", "scalarize.charpoly_s": "scalarize.charpoly",
            "homogenize.lift_s": "homogenize.lift", "homogenize.estimate_s": "homogenize.estimate",
            "homogenize.dehomogenize_s": "homogenize.dehomogenize", "bounds.s": "bounds",
            "problemio.load_s": "problemio.load", "cli.self_s": "cli",
        }
        for metric, span in timed.items():
            out[metric] = (s[span] / n, "s/job")
        iters = c["relax.dr_iters"]
        out["relax.iter_us"] = (1e6 * s["relax.solve"] / iters if iters else 0.0, "us")
        return out

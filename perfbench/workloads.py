"""The four workloads: seeded job lists and the program inputs they need.

generate(workload, seed, workdir) writes the inputs under workdir and
returns a manifest (plain JSON data): the jobs of one round, in order, and
for `verify` the program runs that build its certificates during set-up.
Each job names its command line (paths relative to workdir), the problem
shape it belongs to (the warm pass runs the first job of each shape), the
files it writes or reads, and the data its check needs.  Nothing here
imports pmicert.

Every instance is a template, drawn from a generator that does not depend on
the seed, changed by a Symmetry drawn from the seed: variables permuted (and
sign-flipped where the domain allows), matrices congruent by a signed
permutation.  The seed so changes every input the program sees, but not the
work a job costs, and runs on different seeds measure the same work.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction

import families as fam
from refmath import poly_degree, write_problem

# certify: (n, ell, Polya degree reached, constraint form, copies per round).
# Job costs cluster by slot; the mix keeps the median inside the n = 1,
# t = 2 cluster and p75 inside the n = 2 cluster, away from the gaps between
# clusters, so the percentiles do not jump with noise.
CERTIFY_SLOTS = [
    (1, 2, 2, "ball", 3), (1, 2, 2, "arrow", 3), (1, 3, 2, "ball", 3), (1, 3, 2, "arrow", 3),
    (1, 2, 3, "ball", 2), (1, 2, 3, "arrow", 2),
    (2, 2, 2, "ball", 3), (2, 2, 2, "arrow", 3),
    (1, 3, 3, "ball", 1), (1, 2, 4, "arrow", 1), (2, 3, 2, "ball", 1),
]
# polya refutations: (n, ell, --max-degree)
REFUTE_SLOTS = [(1, 2, 8), (1, 3, 6), (2, 2, 5), (2, 3, 4)]

# verify: exact certificates from certify-simplex, numeric ones from relax
VERIFY_EXACT = [(1, 2, 2, "ball"), (1, 3, 2, "arrow"), (2, 2, 2, "ball"), (2, 2, 2, "ball"),
                (2, 2, 2, "arrow")]
VERIFY_NUMERIC = [("ball-quadratic", 2, 2), ("ball-linear", 3, 1)]
VERIFY_TOL = "1e-6"

# relax: seeded (family, n, k); the minimizer sits on the program's sampling grid
RELAX_SEEDED = [
    ("ball-quadratic", 2, 1), ("ball-quadratic", 3, 2), ("ball-quadratic", 4, 1),
    ("ball-linear", 2, 2), ("ball-linear", 3, 1), ("box-separable", 2, 1),
    ("box-separable", 3, 1),
]
# relax: fixed instances on which the loose-bound fault of the solver shows on
# every run (README, "Known fault"); they do not depend on the seed
RELAX_FIXED = [
    # -x1^2 - 3 x2^2 - x1 + x2 on the unit disc, k = 1: optimum -4.0998
    ("fixed-nonconvex", {"family": "ball-quadratic", "A": [[-1, 0], [0, -3]],
                         "b": [-1, 1], "c": 0}, 2, 1),
    # x1 + 2 x2 on the unit disc, k = 1: optimum -sqrt(5)
    ("fixed-linear", {"family": "ball-linear", "b": [1, 2]}, 2, 1),
    # (x1 - 1/3)^2 + (x2 + 1/5)^2 on the unit disc, k = 2: optimum 0
    ("fixed-convex", {"family": "ball-quadratic", "A": [[1, 0], [0, 1]],
                      "b": ["-2/3", "2/5"], "c": "34/225"}, 2, 2),
    # x1^2 + 2 x1 + 3 x2^2 + 6 x2 on [-1, 1]^2, k = 2: optimum -4 at (-1, -1),
    # on the grid, yet reported about 1.2e-4 low
    ("fixed-box", {"family": "box-separable", "a": [1, 3], "b": [2, 6]}, 2, 2),
]

# describe
SCALARIZE_SLOTS = [(2, 1, 2, 2), (2, 2, 2, 2), (3, 1, 1, 3), (3, 1, 2, 1)]  # (m, n, deg, copies)
CHARPOLY_SLOTS = [(2, 2, 2), (3, 1, 2), (3, 2, 1)]                          # (m, n, deg)
HOMOGENIZE_SLOTS = [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)]                 # (n, ell)
DEHOMOGENIZE_SLOTS = [(1, 1, 1, 1), (1, 2, 1, 1), (2, 1, 1, 1), (2, 2, 1, 1),
                      (2, 1, 2, 1), (3, 1, 1, 1)]                           # (n, ell, h, lift)

WORKLOADS = ("certify", "verify", "relax", "describe")


def _write(workdir: str, rel: str, text: str) -> str:
    path = os.path.join(workdir, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return rel


def _job(jid, shape, argv, check, data=None, writes=(), reads=(), problem=None,
         kind="cli"):
    data = dict(data or {})
    data.setdefault("points_seed", jid)
    return {"id": jid, "shape": shape, "kind": kind, "argv": list(argv), "check": check,
            "data": data, "writes": dict(writes), "reads": dict(reads), "problem": problem}


def _constraint(n: int, form: str):
    return fam.ball_grid(n) if form == "ball" else fam.arrow_grid(n)


def _certify_inputs(rng, sym_rng, workdir, jid, n, ell, t, form):
    """Problem (and ball witness for the arrow form) of one certify target;
    returns the problem path and the remaining certify-simplex arguments.
    Sign flips keep the scaled simplex only for n = 1."""
    F = fam.Symmetry(sym_rng, n, ell, flip=n == 1).grid(fam.simplex_target(rng, n, ell, t))
    prob = _write(workdir, f"in/{jid}.pmi", write_problem(n, F, _constraint(n, form)))
    extra = []
    if form == "arrow":
        extra = ["--ball-witness", _write(workdir, f"in/{jid}-w.qmc", fam.arrow_witness_text(n))]
    return prob, extra


def _certify(rng, sym_rng, workdir):
    jobs = []
    for n, ell, t, form, copies in CERTIFY_SLOTS:
        for c in range(copies):
            jid = f"cert-n{n}-l{ell}-t{t}-{form}-{c}"
            prob, extra = _certify_inputs(rng, sym_rng, workdir, jid, n, ell, t, form)
            out = f"out/{jid}.qmc"
            jobs.append(_job(jid, f"certify-simplex n={n} {form}",
                             ["certify-simplex", prob, *extra, "--out", out, "--json"],
                             "certificate", writes={"out": out}, problem=prob))
    for n, ell, D in REFUTE_SLOTS:
        jid = f"refute-n{n}-l{ell}-D{D}"
        F = fam.Symmetry(sym_rng, n, ell, flip=n == 1).grid(fam.indefinite_target(rng, n, ell))
        prob = _write(workdir, f"in/{jid}.pmi", write_problem(n, F, fam.ball_grid(n)))
        jobs.append(_job(jid, f"polya n={n}",
                         ["polya", prob, "--max-degree", str(D), "--json"],
                         "refutation", problem=prob))
    return {"jobs": jobs, "builds": []}


def _relax_problem(rng, sym_rng, family: str, n: int):
    """(objective, constraint, reference spec) of one seeded relax instance;
    the ball and the box are symmetric under the whole Symmetry."""
    sym = fam.Symmetry(sym_rng, n)
    if family == "ball-quadratic":
        A, b, c = fam.ball_quadratic(rng, n)
        spec = {"family": family, "A": sym.form(A), "b": sym.vector(b), "c": c}
    elif family == "ball-linear":
        spec = {"family": family, "b": sym.vector(fam.ball_linear(rng, n))}
    else:
        a, b = fam.box_separable(rng, n)
        spec = {"family": family, "a": sym.permute(a), "b": sym.vector(b)}
    f, G = _spec_problem(spec, n)
    return f, G, spec


def _spec_problem(spec: dict, n: int):
    """(objective, constraint) of a relax instance given by its reference spec."""
    b = [Fraction(v) for v in spec["b"]]
    if spec["family"] == "ball-linear":
        return fam.quad_poly(n, [[0] * n for _ in range(n)], b), fam.ball_grid(n)
    if spec["family"] == "box-separable":
        A = [[Fraction(spec["a"][i]) if i == j else 0 for j in range(n)] for i in range(n)]
        return fam.quad_poly(n, A, b), fam.box_grid(n)
    A = [[Fraction(v) for v in row] for row in spec["A"]]
    return fam.quad_poly(n, A, b, Fraction(spec["c"])), fam.ball_grid(n)


def _stringify(spec: dict) -> dict:
    def conv(v):
        if isinstance(v, list):
            return [conv(x) for x in v]
        return str(v) if isinstance(v, Fraction) else v

    return {k: conv(v) for k, v in spec.items()}


def _relax_job(workdir, jid, f, G, spec, n, k, known_fault=False):
    prob = _write(workdir, f"in/{jid}.pmi", write_problem(n, [[f]], G))
    out, sdpa = f"out/{jid}.qmc", f"out/{jid}.dat-s"
    d_G = max(poly_degree(p) for row in G for p in row)
    job = _job(jid, f"relax n={n}",
               ["relax", prob, "--order", str(k), "--json", "--emit-certificate", out,
                "--export-sdpa", sdpa],
               "relax", {"n": n, "k": k, "m": len(G), "d_G": d_G, "spec": _stringify(spec)},
               writes={"out": out, "sdpa": sdpa}, problem=prob)
    job["known_fault"] = known_fault
    return job


def _relax(rng, sym_rng, workdir):
    jobs = []
    for name, spec, n, k in RELAX_FIXED:
        f, G = _spec_problem(spec, n)
        jobs.append(_relax_job(workdir, f"relax-{name}", f, G, spec, n, k, known_fault=True))
    for family, n, k in RELAX_SEEDED:
        f, G, spec = _relax_problem(rng, sym_rng, family, n)
        jobs.append(_relax_job(workdir, f"relax-{family}-n{n}-k{k}", f, G, spec, n, k))
    return {"jobs": jobs, "builds": []}


def _verify(rng, sym_rng, workdir):
    """Certificates are built by the program during set-up (the builds), then
    copied and tampered by the benchmark; see runner.finish_builds."""
    builds, jobs = [], []
    for idx, (n, ell, t, form) in enumerate(VERIFY_EXACT):
        bid = f"vx{idx}-n{n}-l{ell}-t{t}-{form}"
        prob, extra = _certify_inputs(rng, sym_rng, workdir, bid, n, ell, t, form)
        cert = f"build/{bid}.qmc"
        builds.append({"id": bid, "argv": ["certify-simplex", prob, *extra, "--out", cert,
                                           "--json"], "cert": cert, "gamma": False})
        for tampered in (False, True):
            path = f"build/{bid}-tampered.qmc" if tampered else cert
            jobs.append(_job(f"{bid}-{'bad' if tampered else 'ok'}",
                             f"verify exact n={n} tampered={tampered} degree={{degree:{bid}}}"
                             if tampered else f"verify exact n={n}",
                             ["verify", path, prob], "exit", {"expect": 1 if tampered else 0},
                             reads={"cert": path}))
    for family, n, k in VERIFY_NUMERIC:
        bid = f"vn-{family}-n{n}-k{k}"
        f, G, _ = _relax_problem(rng, sym_rng, family, n)
        prob = _write(workdir, f"in/{bid}.pmi", write_problem(n, [[f]], G))
        cert = f"build/{bid}.qmc"
        builds.append({"id": bid, "argv": ["relax", prob, "--order", str(k), "--json",
                                           "--emit-certificate", cert],
                       "cert": cert, "gamma": True})
        for tampered in (False, True):
            path = f"build/{bid}-tampered.qmc" if tampered else cert
            jobs.append(_job(f"{bid}-{'bad' if tampered else 'ok'}",
                             f"verify numeric n={n} degree={2 * k}",
                             ["verify", path, prob, "--mode", "numeric", "--tol", VERIFY_TOL,
                              f"--gamma={{gamma:{bid}}}"],
                             "exit", {"expect": 1 if tampered else 0}, reads={"cert": path}))
    return {"jobs": jobs, "builds": builds}


def _describe(rng, sym_rng, workdir):
    jobs = []
    for m, n, deg, copies in SCALARIZE_SLOTS:
        for c in range(copies):
            jid = f"scal-m{m}-n{n}-d{deg}-{c}"
            G = fam.Symmetry(sym_rng, n, m).grid(fam.constraint_matrix(rng, n, m, deg))
            prob = _write(workdir, f"in/{jid}.pmi", write_problem(n, [[fam.const(n, 1)]], G))
            jobs.append(_job(jid, f"scalarize n={n}", ["scalarize", prob, "--json"],
                             "scalarize", problem=prob))
    for m, n, deg in CHARPOLY_SLOTS:
        jid = f"charpoly-m{m}-n{n}-d{deg}"
        G = fam.Symmetry(sym_rng, n, m).grid(fam.constraint_matrix(rng, n, m, deg))
        prob = _write(workdir, f"in/{jid}.pmi", write_problem(n, [[fam.const(n, 1)]], G))
        jobs.append(_job(jid, f"scalarize --charpoly n={n}",
                         ["scalarize", prob, "--charpoly", "--json"], "charpoly", problem=prob))
    for n, ell in HOMOGENIZE_SLOTS:
        jid = f"homog-n{n}-l{ell}"
        F, forms = fam.unbounded_quadratic(rng, n, ell)
        sym = fam.Symmetry(sym_rng, n, ell)
        F = sym.grid(F)
        forms = [sym.form(forms[q], offset=1) for q in sym.mperm]
        prob = _write(workdir, f"in/{jid}.pmi", write_problem(n, F, [[fam.const(n, 1)]]))
        jobs.append(_job(jid, f"homogenize n={n}", ["homogenize", prob, "--json"],
                         "homogenize", {"forms": [[[str(v) for v in row] for row in M]
                                                  for M in forms]}, problem=prob))
    for n, ell, h, lift in DEHOMOGENIZE_SLOTS:
        jid = f"dehom-n{n}-l{ell}-h{h}"
        F, text = fam.sphere_certificate(rng, n, ell, h, lift, fam.Symmetry(sym_rng, n))
        prob = _write(workdir, f"in/{jid}.pmi", write_problem(n, F, [[fam.const(n, 1)]]))
        cert = _write(workdir, f"in/{jid}-sphere.qmc", text)
        out = f"out/{jid}.qmc"
        jobs.append(_job(jid, f"dehomogenize n={n}", [prob, cert, out], "dehomogenize",
                         writes={"out": out}, problem=prob, kind="dehomogenize"))
    return {"jobs": jobs, "builds": []}


def generate(workload: str, seed: int, workdir: str) -> dict:
    for sub in ("in", "out", "build"):
        os.makedirs(os.path.join(workdir, sub), exist_ok=True)
    templates = random.Random(f"{workload}:templates")
    symmetries = random.Random(f"{workload}:{seed}")
    make = {"certify": _certify, "verify": _verify, "relax": _relax,
            "describe": _describe}[workload]
    manifest = make(templates, symmetries, workdir)
    manifest["workload"] = workload
    manifest["seed"] = seed
    return manifest

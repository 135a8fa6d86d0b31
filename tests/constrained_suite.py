"""Seeded sphere-lift instances whose constraint is active at the minimum, and
a second route to their minimum.

Instance k of `instances(seed, count)` has n in {2, 3} variables,
F = c + sum_i a_i (x_i - b_i)^2 + e x1 x2 and G = [r - ||x||^2 + s x1], all
coefficients small rationals drawn from random.Random(seed).  The lifted
problem minimises F~(y) over the sphere ||y|| = 1 (y = (x0, x)) subject to
G^(y) = r x0^2 - ||x||^2 + s x0 x1 >= 0; r > 0 keeps y = e_0 feasible, and a
centre b outside the ball puts the minimiser on the constraint boundary.

`reference_min` solves that problem with scipy's SLSQP from seeded starts on
the sphere, without pmicert; `problem` builds (F, G) with pmicert's types.
Only the standard library, numpy and scipy are imported at module level, so
a benchmark driver can compute references without importing pmicert.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

FEASIBILITY_SLACK = 1e-9


def instances(seed: int = 11, count: int = 60) -> list:
    """count instances as dicts of Fractions: n, c, a, b, e, r, s."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        n = 2 + k % 2
        out.append({
            "n": n,
            "c": Fraction(rng.randint(-4, 8), 4),
            "a": [Fraction(rng.randint(1, 12), 4) for _ in range(n)],
            "b": [Fraction(rng.randint(-12, 12), 4) for _ in range(n)],
            "e": Fraction(rng.randint(-3, 3), 4),
            "r": Fraction(rng.randint(1, 8), 4),
            "s": Fraction(rng.randint(-4, 4), 4),
        })
    return out


def problem(inst: dict):
    """(F, G) of the instance as 1 x 1 SymPolyMatrix objects in n variables."""
    from pmicert.algebra import Polynomial, SymPolyMatrix

    n = inst["n"]
    xs = [Polynomial.variable(n, i) for i in range(n)]
    F = Polynomial.const(n, inst["c"]) + xs[0] * xs[1] * inst["e"]
    G = Polynomial.const(n, inst["r"]) + xs[0] * inst["s"]
    for a, b, xi in zip(inst["a"], inst["b"], xs):
        F = F + (xi - b) * (xi - b) * a
        G = G - xi * xi
    return SymPolyMatrix.scalar(F), SymPolyMatrix.scalar(G)


def _lifted(inst: dict):
    """F~, G^ and their gradients as functions of y = (x0, x1, ..., xn)."""
    c, e, r, s = (float(inst[k]) for k in ("c", "e", "r", "s"))
    a = np.array([float(v) for v in inst["a"]])
    b = np.array([float(v) for v in inst["b"]])
    cross = np.zeros(len(a))  # d(x1 x2)/dx = (x2, x1, 0, ...)

    def objective(y):
        x0, x = y[0], y[1:]
        return c * x0 * x0 + float(np.sum(a * (x - b * x0) ** 2)) + e * x[0] * x[1]

    def objective_grad(y):
        x0, x = y[0], y[1:]
        u = 2 * a * (x - b * x0)
        cross[0], cross[1] = x[1], x[0]
        return np.concatenate([[2 * c * x0 - float(u @ b)], u + e * cross])

    def constraint(y):
        x0, x = y[0], y[1:]
        return r * x0 * x0 - float(x @ x) + s * x0 * x[0]

    def constraint_grad(y):
        x0, x = y[0], y[1:]
        g = np.concatenate([[2 * r * x0 + s * x[0]], -2 * x])
        g[1] += s * x0
        return g

    return objective, objective_grad, constraint, constraint_grad


def reference_min(inst: dict, starts: int = 8, seed: int = 0) -> float:
    """Smallest F~ over SLSQP runs from `starts` seeded points on the sphere,
    keeping only results within FEASIBILITY_SLACK of the sphere and of
    G^ >= 0."""
    from scipy.optimize import minimize

    objective, objective_grad, constraint, constraint_grad = _lifted(inst)
    cons = [{"type": "eq", "fun": lambda y: float(y @ y) - 1.0, "jac": lambda y: 2 * y},
            {"type": "ineq", "fun": constraint, "jac": constraint_grad}]
    rng = np.random.default_rng(seed)
    dim = inst["n"] + 1
    best = np.inf
    for _ in range(starts):
        y0 = rng.standard_normal(dim)
        res = minimize(objective, y0 / np.linalg.norm(y0), jac=objective_grad,
                       method="SLSQP", constraints=cons,
                       options={"ftol": 1e-14, "maxiter": 500})
        y = res.x
        if abs(float(y @ y) - 1.0) > FEASIBILITY_SLACK or constraint(y) < -FEASIBILITY_SLACK:
            continue
        best = min(best, objective(y))
    if not np.isfinite(best):
        raise RuntimeError("no SLSQP start ended feasible")
    return float(best)

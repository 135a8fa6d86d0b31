"""Homogenization machinery for membership certificates on unbounded sets.

The problem (F, G) in n variables lifts to the unit sphere in n+1 variables:
F becomes its homogenization F~ (extra variable x0 first), the constraint
becomes G^ = x0^d0 * G~ with d0 in {0, 1} chosen so the entries of G^ are
homogeneous of even degree, and the sphere x0^2 + ||x||^2 = 1 closes the set.
A membership certificate for F~ over {G^ >= 0, sphere} transfers back to one
for (1 + ||x||^2)^k F over G by substituting (1, x)/sqrt(1 + ||x||^2): the
sphere multiplier vanishes identically, and every other piece splits by
parity into polynomial and sqrt-carrying parts.  For a valid input the
sqrt-carrying parts cancel, so the transfer keeps the polynomial parts and
one exact verification of the result decides it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ring import ExtRational, ONE
from .algebra import (
    FloatEvaluator,
    PolyMatrix,
    Polynomial,
    SymPolyMatrix,
    _accumulate,
    _at,
    _finish,
    _pack,
    _symmetric_stack,
    _unpack,
    min_eigenvalue_numeric,
    monomials_upto,
    multinomial,
)
from .certify import (
    MultiplierTerm,
    QMCertificate,
    blocks_to_vector_squares,
    gram_from_squares,
    verify_certificate,
)

FEASIBILITY_TOL = 1e-9
# refine sweeps scored per batch: on the describe workload's homogenize
# problems an estimate took 1.7 times as long at 1 as at 8, 1.2 times at 2,
# 1.07 at 16 and 1.27 at 50, and within 3% of it at 4 to 12
SWEEP_BATCH = 8


class EmptyFeasibleSample(Exception):
    """No sphere sample point satisfied the lifted constraint."""


class OddPartNonzero(Exception):
    """The input does not certify this lifted problem: the polynomial part of
    the substituted certificate failed its exact verification for
    (1 + ||x||^2)^k F over G."""


@dataclass
class HomogenizedProblem:
    F: SymPolyMatrix          # original target, n variables
    G: SymPolyMatrix          # original constraint, n variables
    F_tilde: SymPolyMatrix    # homogenization, n+1 variables (x0 first)
    G_tilde: SymPolyMatrix
    G_hat: SymPolyMatrix      # x0^d0 * G_tilde, entries homogeneous of 2*ceil(d_G/2)
    d0: int
    n: int
    deg_f: int
    d_G: int


def lift_problem(F: SymPolyMatrix, G: SymPolyMatrix) -> HomogenizedProblem:
    """Build the sphere-constrained lift of (F, G)."""
    n = F.nvars
    if G.nvars != n:
        raise ValueError("F and G must share variables")
    deg_f = max(F.degree, 0)
    d_G = max(G.degree, 0)
    d0 = 2 * (-(-d_G // 2)) - d_G
    F_tilde = F.homogenize(deg_f)
    G_tilde = G.homogenize(d_G)
    if d0:
        x0 = Polynomial.variable(n + 1, 0)
        G_hat = SymPolyMatrix(G_tilde.scale_poly(x0**d0).entries)
    else:
        G_hat = G_tilde
    return HomogenizedProblem(F, G, F_tilde, G_tilde, G_hat, d0, n, deg_f, d_G)


# ---------------------------------------------------------------------------
# numeric minimum of the lifted objective over the feasible sphere


@dataclass
class SphereMinEstimate:
    value: float
    argmin: list
    samples: int
    feasible: int


def _sphere_samples(dim: int, count: int) -> np.ndarray:
    """Deterministic quasi-uniform points on the unit sphere in R^dim."""
    if dim == 1:
        return np.array([[1.0], [-1.0]])
    if dim == 2:
        angles = np.linspace(0.0, 2 * math.pi, count, endpoint=False)
        return np.stack([np.cos(angles), np.sin(angles)], axis=1)
    if dim == 3:
        # Fibonacci spiral
        idx = np.arange(count, dtype=float) + 0.5
        phi = math.pi * (3.0 - math.sqrt(5.0)) * idx
        z = 1.0 - 2.0 * idx / count
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)
    rng = np.random.default_rng(12345)
    pts = rng.standard_normal((count, dim))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def estimate_homogenized_min(
    prob: HomogenizedProblem, grid: int = 64, refine_iters: int = 50
) -> SphereMinEstimate:
    """Numeric minimum of lambda_min(F~) over the feasible part of the sphere.

    Dense deterministic sphere sampling filtered by lambda_min(G^) >= -1e-9,
    then `refine_iters` sweeps of projected coordinate descent from the best
    sample: a sweep scores the 2(n+1) moves point +- step e_a, normalised onto
    the sphere, moves to the best feasible one if it improves the estimate
    and halves the step otherwise.  One FloatEvaluator over the upper
    triangles of G^ and F~ scores every batch, an infeasible point at +inf.
    The sweeps of the next SWEEP_BATCH step sizes (step, step/2, ...) are
    scored as one batch and then replayed in order: the first that improves
    moves and keeps its step, the ones after it are dropped, and each one
    replayed counts against `refine_iters`.  A point's score does not depend
    on its batch, so the result is that of one sweep at a time.  The value
    is advisory (it feeds the bound calculators); a nonpositive one flags
    that the positivity hypotheses fail.
    """
    if grid < 8:
        raise ValueError("grid must be at least 8")
    if refine_iters < 0:
        raise ValueError("refine_iters must be at least 0")
    dim = prob.n + 1
    count = min(grid * grid, 20000) if dim <= 3 else min(grid**2, 8192)
    pts = _sphere_samples(dim, count)
    G, F = prob.G_hat, prob.F_tilde
    g_entries = G.upper()
    split = len(g_entries)
    evaluate = FloatEvaluator(dim, g_entries + F.upper())

    def scores(p):
        """lambda_min(F~) at each row of p, +inf where lambda_min(G^) < -1e-9."""
        values = evaluate(p)
        low_g = min_eigenvalue_numeric(_symmetric_stack(values[:split], G.size))
        feasible = low_g >= -FEASIBILITY_TOL
        out = np.full(len(p), math.inf)
        out[feasible] = min_eigenvalue_numeric(
            _symmetric_stack(values[split:, feasible], F.size))
        return out

    start = scores(pts)
    n_feas = int(np.count_nonzero(start < math.inf))
    if not n_feas:
        raise EmptyFeasibleSample(
            f"none of {len(pts)} sphere samples satisfied the lifted constraint"
        )
    k = int(np.argmin(start))
    best, point = float(start[k]), pts[k]
    step = 4.0 / math.sqrt(len(pts))
    moves = np.vstack([np.eye(dim), -np.eye(dim)])
    left = refine_iters
    while left:
        steps = []
        for _ in range(min(SWEEP_BATCH, left)):
            steps.append(step)
            step *= 0.5  # the next sweep's step if this one does not improve
        cands = (point + np.array(steps)[:, None, None] * moves).reshape(-1, dim)
        cands /= np.linalg.norm(cands, axis=1, keepdims=True)
        sweeps = scores(cands).reshape(len(steps), len(moves))
        for s, (k, value) in enumerate(zip(sweeps.argmin(axis=1).tolist(),
                                           sweeps.min(axis=1).tolist())):
            left -= 1
            if value < best - 1e-15:
                best, point, step = value, cands[s * len(moves) + k], steps[s]
                break
    return SphereMinEstimate(best, [float(c) for c in point], len(pts), n_feas)


# ---------------------------------------------------------------------------
# certificate transfer back to the original variables


def _one_plus_norm2(n: int) -> Polynomial:
    u = Polynomial.const(n, 1)
    for i in range(n):
        xi = Polynomial.variable(n, i)
        u = u + xi * xi
    return u


def _split_rescaled(q: Polynomial, N: int, u_pows) -> tuple:
    """Exact split s^N q((1,x)/s) = even + s*odd with s = sqrt(1+||x||^2).

    q lives in n+1 variables (x0 first); even/odd are returned in n
    variables.  Requires N >= deg q.  A term c x0^a x^beta of q, e = N minus
    its degree, adds c x^beta u^(e // 2) to even (e even) or odd (e odd),
    u = 1 + ||x||^2 = u_pows[1]: each part is one sum over j of h_j u^j, h_j
    the terms of q that meet u^j.
    """
    n = q.nvars - 1
    mons, ps, qs, rs, den = q._f
    w = max(q._w, u_pows[-1]._w)  # the highest power is the widest
    parts = ({}, {})  # by parity of e: {j: [monomials, ps, qs, rs] of h_j}
    for k, key in enumerate(mons):
        e = N - (key >> q._w * (n + 1))
        if e < 0:
            raise ValueError("normalization degree below a term degree")
        h = parts[e % 2].setdefault(e // 2, ([], [], [], []))
        h[0].append(_pack(_unpack(key, n + 1, q._w)[1:], w))
        h[1].append(ps[k])
        if qs:
            h[2].append(qs[k])
            h[3].append(rs[k])
    even, odd = (_finish(n, w, *_accumulate([((hm, hp, hq or None, hr or None, den),
                                              _at(u_pows[j], w), None)
                                             for j, (hm, hp, hq, hr) in part.items()]))
                 for part in parts)
    return even, odd


def _split_matrix(P: PolyMatrix, N: int, u_pows):
    split = [[_split_rescaled(p, N, u_pows) for p in row] for row in P.entries]
    P1 = PolyMatrix([[s[0] for s in row] for row in split])
    P2 = PolyMatrix([[s[1] for s in row] for row in split])
    return P1, P2


def _u_power_squares(j: int, n: int):
    """(1+||x||^2)^j as a sum of squared monomials: list of (weight, exponent)."""
    out = []
    for gamma in monomials_upto(n, j):
        out.append((ExtRational(multinomial(j, gamma + (j - sum(gamma),))), gamma))
    return out


def dehomogenize_certificate(cert: QMCertificate, prob: HomogenizedProblem):
    """Transfer a sphere certificate for F~ into one for (1+||x||^2)^k F.

    The certificate must be exact and shaped for prob (ValueError names the
    field otherwise), and deg F must be even (as the positivity of the
    leading form requires).  Returns (k, certificate over G).  Only the
    polynomial parts are kept: for a valid input the sqrt-carrying parts
    cancel identically, and the output is verified exactly before returning,
    so an input that does not certify F~ raises OddPartNonzero.
    """
    if cert.mode != "exact":
        raise ValueError("dehomogenization requires an exact certificate")
    n = prob.n
    for field, have, want in (("nvars", cert.nvars, n + 1), ("ell", cert.ell, prob.F.size),
                              ("m", cert.m, prob.G.size)):
        if have != want:
            raise ValueError(f"certificate {field} {have} does not match the problem's {want}")
    d = prob.deg_f
    if d % 2 != 0:
        raise ValueError("degree of F must be even (leading form cannot be PD otherwise)")
    deg_hat = prob.d0 + prob.d_G  # homogeneous degree of the entries of G^

    vec_squares = blocks_to_vector_squares(cert)
    k_exp = d
    for _, vec in vec_squares:
        dv = max(max(p.degree for p in vec), 0)
        k_exp = max(k_exp, 2 * dv)
    for term in cert.multipliers:
        k_exp = max(k_exp, 2 * max(term.matrix.degree, 0) + deg_hat)
    if cert.sphere_multiplier is not None:
        k_exp = max(k_exp, max(cert.sphere_multiplier.degree, 0) + 2)
    k = max(0, -(-(k_exp - d) // 2))
    total = 2 * k + d

    max_u = total // 2 + 2
    u = _one_plus_norm2(n)
    u_pows = [Polynomial.const(n, 1)]
    for _ in range(max_u):
        u_pows.append(u_pows[-1] * u)

    # total - 2 dv and total - 2 Np - deg_hat below are even and nonnegative:
    # d and deg_hat are even, and k was chosen to cover both
    out_squares = []
    for w, vec in vec_squares:
        dv = max(max(p.degree for p in vec), 0)
        splits = [_split_rescaled(p, dv, u_pows) for p in vec]
        j = (total - 2 * dv) // 2
        for jj, V in ((j, [s[0] for s in splits]), (j + 1, [s[1] for s in splits])):
            if all(p.is_zero() for p in V):
                continue
            for weight, gamma in _u_power_squares(jj, n):
                mono = Polynomial(n, {gamma: ONE})
                out_squares.append((w * weight, [mono * p for p in V]))

    out_mults = []
    for term in cert.multipliers:
        Np = max(term.matrix.degree, 0)
        P1, P2 = _split_matrix(term.matrix, Np, u_pows)
        j = (total - 2 * Np - deg_hat) // 2
        for jj, Q in ((j, P1), (j + 1, P2)):
            if Q.is_zero():
                continue
            # u^jj = (u^(jj // 2))^2, times u = 1 + sum x_i^2 for odd jj,
            # which splits the term over {1, x_i}
            base = Q.scale_poly(u_pows[jj // 2])
            odd = [Polynomial.variable(n, i) for i in range(n)] if jj % 2 else []
            out_mults.append(MultiplierTerm(term.scale, base))
            out_mults += [MultiplierTerm(term.scale, base.scale_poly(xi)) for xi in odd]

    # the sphere multiplier term vanishes identically under the substitution
    block = gram_from_squares(out_squares, n, cert.ell)
    out = QMCertificate(n, cert.ell, prob.G.size, total, "exact", [block], out_mults)
    target = SymPolyMatrix(prob.F.scale_poly(u_pows[k]).entries)
    report = verify_certificate(target, prob.G, out, mode="exact")
    if not report.ok:
        raise OddPartNonzero(f"the input does not certify the lifted problem: {report.messages}")
    return k, out


def perturb_for_nonneg(F: SymPolyMatrix, eps, d: int | None = None) -> SymPolyMatrix:
    """F + eps * (1 + ||x||^2)^ceil((d+1)/2) * I, the standard perturbation
    that turns a merely-PSD matrix into one with positive-definite leading
    form (even degree 2*ceil((d+1)/2))."""
    if isinstance(eps, float):
        raise TypeError("eps must be rational for an exact perturbation")
    eps = ExtRational.coerce(eps)
    if eps.sign() <= 0:
        raise ValueError("eps must be positive")
    if d is None:
        d = max(F.degree, 0)
    e = -(-(d + 1) // 2)  # ceil((d + 1) / 2)
    shift = _one_plus_norm2(F.nvars) ** e * eps
    return SymPolyMatrix([[p + shift if i == j else p for j, p in enumerate(row)]
                          for i, row in enumerate(F.entries)])

"""Homogenization machinery for membership certificates on unbounded sets.

The problem (F, G) in n variables lifts to the unit sphere in n+1 variables:
F becomes its homogenization F~ (extra variable x0 first), the constraint
becomes G^ = x0^d0 * G~ with d0 in {0, 1} chosen so the entries of G^ are
homogeneous of even degree, and the sphere x0^2 + ||x||^2 = 1 closes the set.
A membership certificate for F~ over {G^ >= 0, sphere} transfers back to one
for (1 + ||x||^2)^k F over G by substituting (1, x)/sqrt(1 + ||x||^2): the
sphere multiplier vanishes identically, every other piece splits by parity
into polynomial and sqrt-carrying parts, and the sqrt-carrying aggregate
must cancel exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ring import ExtRational, ONE
from .algebra import (
    PolyMatrix,
    Polynomial,
    SymPolyMatrix,
    congruence,
    min_eigenvalue_numeric,
    monomials_upto,
)
from .certify import (
    MultiplierTerm,
    QMCertificate,
    blocks_to_vector_squares,
    gram_from_squares,
    verify_certificate,
)

FEASIBILITY_TOL = 1e-9


class EmptyFeasibleSample(Exception):
    """No sphere sample point satisfied the lifted constraint."""


class OddPartNonzero(Exception):
    """The sqrt-carrying aggregate of a substituted certificate did not cancel,
    so the input certificate cannot have been valid."""


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
    followed by projected coordinate descent from the best sample.  The value
    is advisory (it feeds the bound calculators); a nonpositive result flags
    that the positivity hypotheses fail.
    """
    if grid < 8:
        raise ValueError("grid must be at least 8")
    dim = prob.n + 1
    count = min(grid * grid, 20000) if dim <= 3 else min(grid**2, 8192)
    pts = _sphere_samples(dim, count)

    def feasible(p):
        return min_eigenvalue_numeric(prob.G_hat.evaluate_float(p)) >= -FEASIBILITY_TOL

    def objective(p):
        return min_eigenvalue_numeric(prob.F_tilde.evaluate_float(p))

    feasible_pts = pts[feasible(pts)]
    n_feas = len(feasible_pts)
    if not n_feas:
        raise EmptyFeasibleSample(
            f"none of {len(pts)} sphere samples satisfied the lifted constraint"
        )
    values = objective(feasible_pts)
    first = int(np.argmin(values))
    best = float(values[first])
    step = 4.0 / math.sqrt(len(pts))
    point = np.array(feasible_pts[first], dtype=float)
    for _ in range(refine_iters):
        improved = False
        for axis in range(dim):
            for sign in (1.0, -1.0):
                cand = point.copy()
                cand[axis] += sign * step
                cand /= np.linalg.norm(cand)
                if not feasible(cand):
                    continue
                v = objective(cand)
                if v < best - 1e-15:
                    best, point = v, cand
                    improved = True
        if not improved:
            step *= 0.5
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
    variables.  Requires N >= deg q.
    """
    n = q.nvars - 1
    even = Polynomial.zero(n)
    odd = Polynomial.zero(n)
    for alpha, c in q.terms.items():
        e = N - sum(alpha)
        if e < 0:
            raise ValueError("normalization degree below a term degree")
        mono = Polynomial(n, {alpha[1:]: c})
        if e % 2 == 0:
            even = even + mono * u_pows[e // 2]
        else:
            odd = odd + mono * u_pows[(e - 1) // 2]
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
        rest = j - sum(gamma)
        w = math.factorial(j)
        for g in gamma:
            w //= math.factorial(g)
        w //= math.factorial(rest)
        out.append((ExtRational(w), gamma))
    return out


def dehomogenize_certificate(cert: QMCertificate, prob: HomogenizedProblem):
    """Transfer a sphere certificate for F~ into one for (1+||x||^2)^k F.

    The certificate must be exact, verify for F~ over {G^ >= 0, sphere}, and
    deg F must be even (as the positivity of the leading form requires).
    Returns (k, certificate over G); the output is re-verified exactly before
    returning, and OddPartNonzero is raised if the sqrt-carrying aggregate of
    the substitution fails to cancel.
    """
    if cert.mode != "exact":
        raise ValueError("dehomogenization requires an exact certificate")
    n = prob.n
    d = prob.deg_f
    if d % 2 != 0:
        raise ValueError("degree of F must be even (leading form cannot be PD otherwise)")
    ell = cert.ell
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

    out_squares = []
    odd_agg = PolyMatrix.zero(ell, ell, n)
    for w, vec in vec_squares:
        dv = max(max(p.degree for p in vec), 0)
        splits = [_split_rescaled(p, dv, u_pows) for p in vec]
        V1 = [s[0] for s in splits]
        V2 = [s[1] for s in splits]
        e = total - 2 * dv
        if e < 0 or e % 2:
            raise AssertionError("degree bookkeeping failed for an SOS square")
        j = e // 2
        for jj, V in ((j, V1), (j + 1, V2)):
            if all(p.is_zero() for p in V):
                continue
            for weight, gamma in _u_power_squares(jj, n):
                mono = Polynomial(n, {gamma: ONE})
                out_squares.append((w * weight, [mono * p for p in V]))
        cross = PolyMatrix(
            [[V1[i] * V2[jx] + V2[i] * V1[jx] for jx in range(ell)] for i in range(ell)]
        )
        odd_agg = odd_agg + cross.scale_poly(u_pows[j]).scale(w)

    out_mults = []
    for term in cert.multipliers:
        Np = max(term.matrix.degree, 0)
        P1, P2 = _split_matrix(term.matrix, Np, u_pows)
        e = total - 2 * Np - deg_hat
        if e < 0 or e % 2:
            raise AssertionError("degree bookkeeping failed for a multiplier")
        j = e // 2
        for jj, Q in ((j, P1), (j + 1, P2)):
            if Q.is_zero():
                continue
            if jj % 2 == 0:
                out_mults.append(
                    MultiplierTerm(term.scale, Q.scale_poly(u_pows[jj // 2]))
                )
            else:
                base = Q.scale_poly(u_pows[(jj - 1) // 2])
                out_mults.append(MultiplierTerm(term.scale, base))
                for i in range(n):
                    out_mults.append(
                        MultiplierTerm(
                            term.scale, base.scale_poly(Polynomial.variable(n, i))
                        )
                    )
        cross = (P1.transpose() @ prob.G @ P2) + (P2.transpose() @ prob.G @ P1)
        odd_agg = odd_agg + cross.scale_poly(u_pows[j]).scale(term.scale)

    # the sphere multiplier term vanishes identically under the substitution
    if not odd_agg.is_zero():
        raise OddPartNonzero(
            "sqrt-carrying terms did not cancel; the input certificate is invalid"
        )

    block = gram_from_squares(out_squares, n, ell)
    out = QMCertificate(n, ell, prob.G.size, total, "exact", [block], out_mults)
    target = SymPolyMatrix(prob.F.scale_poly(u_pows[k]).entries)
    report = verify_certificate(target, prob.G, out, mode="exact")
    if not report.ok:
        raise AssertionError(f"dehomogenized certificate failed: {report.messages}")
    return k, out


def perturb_for_nonneg(F: SymPolyMatrix, eps, d: int | None = None) -> SymPolyMatrix:
    """F + eps * (1 + ||x||^2)^ceil((d+1)/2) * I, the standard perturbation
    that turns a merely-PSD matrix into one with positive-definite leading
    form (even degree 2*ceil((d+1)/2))."""
    eps = ExtRational.coerce(eps) if not isinstance(eps, float) else eps
    if isinstance(eps, float):
        raise TypeError("eps must be rational for an exact perturbation")
    if eps.sign() <= 0:
        raise ValueError("eps must be positive")
    if d is None:
        d = max(F.degree, 0)
    n = F.nvars
    e = -(-(d + 1) // 2)
    bump = _one_plus_norm2(n) ** e
    grid = [
        [
            F.entries[i][j] + bump * eps if i == j else F.entries[i][j]
            for j in range(F.size)
        ]
        for i in range(F.size)
    ]
    return SymPolyMatrix(grid)

"""Polya-type positivity certificates on the scaled simplex.

A certificate for a symmetric polynomial matrix F that is positive definite
on the scaled simplex is a Bernstein expansion of F in which every
coefficient matrix is positive definite.  The engine searches by unit degree
elevation starting from deg F, so the returned degree is minimal; the
classical bound degree is computed alongside as advisory information only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ring import ExtRational, ONE
from .algebra import (
    Polynomial,
    RationalSymMatrix,
    SymPolyMatrix,
    ldlt,
    min_eigenvalue_numeric,
    monomials_upto,
    psd_exact,
)
from .bernstein import (
    BernsteinExpansion,
    elevate,
    lattice_resolution_for,
    norm_of_expansion,
    simplex_lattice,
    simplex_lattice_float,
    to_bernstein,
)


class NotPositiveDefiniteOnSimplex(Exception):
    """Raised when no positive-definite expansion exists within the degree cap.

    If a simplex point with nonpositive smallest eigenvalue was found (an
    exact refutation), it is attached as .witness (coordinate list) together
    with .witness_eigenvalue.
    """

    def __init__(self, message, witness=None, witness_eigenvalue=None):
        super().__init__(message)
        self.witness = witness
        self.witness_eigenvalue = witness_eigenvalue


def polya_bound(d: int, normB, fmin) -> int:
    """Smallest k > d(d-1) * normB / (2 fmin) - d, floored at 0."""
    if fmin <= 0:
        raise ValueError("fmin must be positive")
    if normB < fmin:
        raise ValueError("normB must be at least fmin")
    if isinstance(normB, float) or isinstance(fmin, float):
        value = d * (d - 1) * normB / (2.0 * fmin) - d
        return max(0, math.floor(value) + 1)
    value = Fraction(d * (d - 1)) * Fraction(normB) / (2 * Fraction(fmin)) - d
    return max(0, math.floor(value) + 1)


@dataclass
class PolyaCertificate:
    degree: int
    expansion: BernsteinExpansion
    pd_margins: dict
    fmin_estimate: float | None = None
    norm_estimate: float | None = None
    advisory_degree: int | None = None


def _pd_margin(mat: RationalSymMatrix) -> float | None:
    """Exact PD test with margin: None if mat is not positive definite, else
    its smallest leading principal minor as a float.

    The k-th leading principal minor of a PD matrix is the product
    d_1 ... d_k of its first k LDL^T pivots, so the margin is
    min_k float(d_1 ... d_k), computed exactly before rounding.
    """
    try:
        _, pivots = ldlt(mat)
    except ValueError:
        return None
    if len(pivots) < mat.size:
        return None
    minor, margin = ONE, math.inf
    for d in pivots:
        minor = minor * d
        margin = min(margin, float(minor))
    return margin


def grid_min_eigenvalue(F: SymPolyMatrix, target_points: int):
    """Numeric min of the smallest eigenvalue of F over a simplex lattice.

    Returns (value, float point, resolution).
    """
    n = F.nvars
    res = lattice_resolution_for(n, target_points)
    pts = simplex_lattice_float(n, res)
    eigs = min_eigenvalue_numeric(F.evaluate_float(pts))
    first = int(np.argmin(eigs))
    return float(eigs[first]), pts[first], res


def _markov_refined_lower(F: SymPolyMatrix, grid_min: float, resolution: int) -> float:
    """Lower bound on min lambda_min over the simplex from a lattice minimum.

    lambda_min is 1-Lipschitz in the spectral norm, which is bounded by the
    Frobenius norm of entrywise changes; each entry obeys the Markov gradient
    inequality on the simplex.
    """
    from .bounds import markov_gradient_bound

    n = F.nvars
    grads = [
        markov_gradient_bound(p) for row in F.entries for p in row
    ]
    rate = math.sqrt(sum(g * g for g in grads))
    covering = (n + math.sqrt(n)) * math.sqrt(n) / resolution
    return grid_min - rate * covering


def polya_certificate(
    F: SymPolyMatrix, max_degree: int, grid_points: int | None = None
) -> PolyaCertificate:
    """Minimal-degree expansion of F with all coefficient matrices PD.

    Searches degrees deg F, deg F + 1, ... up to max_degree by exact degree
    elevation.  On failure the simplex lattice is scanned for a refutation
    point (smallest eigenvalue <= 0, confirmed exactly) which is reported in
    the raised error.
    """
    d = max(F.degree, 0)
    if max_degree < d:
        raise ValueError(f"max_degree {max_degree} below deg F = {d}")
    expansion = to_bernstein(F, d)
    for t in range(d, max_degree + 1):
        margins = {}
        for alpha, mat in expansion.items():
            margins[alpha] = _pd_margin(mat)
            if margins[alpha] is None:
                break
        else:
            cert = PolyaCertificate(t, expansion, margins)
            _attach_advisory(cert, F, d, grid_points)
            return cert
        if t < max_degree:
            expansion = elevate(expansion, t + 1)

    # failed within the cap: look for an exact refutation point
    n = F.nvars
    res = lattice_resolution_for(n, grid_points or 10**n * (d + 1))
    exact_pts = simplex_lattice(n, res)
    eigs = min_eigenvalue_numeric(F.evaluate_float(np.array(exact_pts, dtype=float)))
    witness = None
    witness_eig = None
    for idx in np.flatnonzero(eigs < 1e-9):
        if not psd_exact(F.evaluate(exact_pts[idx]), strict=True):
            witness = exact_pts[idx]
            witness_eig = float(eigs[idx])
            break
    msg = f"no positive-definite expansion up to degree {max_degree}"
    if witness is not None:
        msg += (
            "; refuted at simplex point ("
            + ", ".join(str(c) for c in witness)
            + f") with smallest eigenvalue {witness_eig:.3g}"
        )
    raise NotPositiveDefiniteOnSimplex(msg, witness, witness_eig)


def _attach_advisory(cert, F, d, grid_points):
    try:
        grid_min, _, res = grid_min_eigenvalue(F, grid_points or 10**F.nvars * (d + 1))
        cert.fmin_estimate = grid_min
        cert.norm_estimate = norm_of_expansion(to_bernstein(F, d))
        refined = _markov_refined_lower(F, grid_min, res)
        fmin = refined if refined > 0 else grid_min
        if fmin > 0 and cert.norm_estimate >= fmin:
            cert.advisory_degree = d + polya_bound(d, cert.norm_estimate, fmin)
    except (ValueError, ArithmeticError):
        pass  # advisory numbers must never break the certificate itself


def scherer_hol_step(Fh: SymPolyMatrix, k: int) -> dict:
    """Coefficient matrices of (y_1+...+y_N)^k * Fh in the scaled monomial basis.

    Fh must be homogeneous; the basis member for beta (|beta| = deg + k) is
    multinom(deg+k; beta) y^beta, so the returned values are the monomial
    coefficient matrices divided by the multinomial factor.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    deg = max(Fh.degree, 0)
    if not Fh.is_homogeneous_of(deg):
        raise ValueError("input matrix must be homogeneous")
    N = Fh.nvars
    ones = Polynomial.zero(N)
    for i in range(N):
        ones = ones + Polynomial.variable(N, i)
    scaled = Fh.scale_poly(ones**k) if k else Fh
    total = deg + k
    out = {}
    for beta in monomials_upto(N, total):
        if sum(beta) != total:
            continue
        mult = math.factorial(total)
        for b in beta:
            mult //= math.factorial(b)
        inv = ExtRational(Fraction(1, mult))
        grid = [
            [scaled.entries[i][j].coeff(beta) * inv for j in range(Fh.size)]
            for i in range(Fh.size)
        ]
        out[beta] = RationalSymMatrix(grid)
    return out


def serialize_polya(cert: PolyaCertificate) -> str:
    """Certificate text: header (degree, the always-exact mode, per-alpha
    margins) followed by the expansion in the shared record format."""
    from .bernstein import serialize_expansion

    lines = [
        "polya-v1",
        f"degree {cert.degree}",
        "mode exact",
        f"margins {len(cert.pd_margins)}",
    ]
    for alpha in sorted(cert.pd_margins):
        lines.append(
            "alpha " + " ".join(str(v) for v in alpha) + f" margin {cert.pd_margins[alpha]!r}"
        )
    return "\n".join(lines) + "\n" + serialize_expansion(cert.expansion)


def parse_polya(text: str) -> PolyaCertificate:
    from .bernstein import ExpansionParseError, parse_expansion

    lines = text.splitlines()
    if not lines or lines[0] != "polya-v1":
        raise ExpansionParseError("line 1: missing polya-v1 header")
    degree = int(lines[1].removeprefix("degree "))
    if lines[2:3] != ["mode exact"]:
        raise ExpansionParseError("line 3: expected 'mode exact'")
    count = int(lines[3].removeprefix("margins "))
    margins = {}
    for idx in range(count):
        toks = lines[4 + idx].split()
        if toks[0] != "alpha" or "margin" not in toks:
            raise ExpansionParseError(f"line {5 + idx}: malformed margin record")
        sep = toks.index("margin")
        margins[tuple(int(t) for t in toks[1:sep])] = float(toks[sep + 1])
    expansion = parse_expansion("\n".join(lines[4 + count:]) + "\n")
    return PolyaCertificate(degree, expansion, margins)


def simplex_form(e: BernsteinExpansion) -> SymPolyMatrix:
    """Homogeneous matrix on the standard simplex whose scaled-basis
    coefficients are the Bernstein coefficients of e (the substitution link
    between the two bases)."""
    n, t, ell = e.nvars, e.degree, e.ell
    grid = [[Polynomial.zero(n + 1) for _ in range(ell)] for _ in range(ell)]
    for alpha, mat in e.items():
        slack = t - sum(alpha)
        mult = math.factorial(t)
        for a in alpha:
            mult //= math.factorial(a)
        mult //= math.factorial(slack)
        mono = alpha + (slack,)
        for i in range(ell):
            for j in range(ell):
                if mat[i, j].is_zero():
                    continue
                grid[i][j] = grid[i][j] + Polynomial(
                    n + 1, {mono: mat[i, j] * mult}
                )
    return SymPolyMatrix(grid)

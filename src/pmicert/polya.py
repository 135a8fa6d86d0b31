"""Polya-type positivity certificates on the scaled simplex.

A certificate for a symmetric polynomial matrix F that is positive definite
on the scaled simplex is a Bernstein expansion of F in which every
coefficient matrix is positive definite.  The engine searches by unit degree
elevation starting from deg F, so the returned degree is minimal.  The
classical bound degree is advisory information only: `advisory` computes it
from grid estimates where it is reported (`pmicert polya`), never the search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ring import ExtRational, ZERO
from .algebra import (
    LineReader,
    Polynomial,
    RationalSymMatrix,
    SymPolyMatrix,
    _eliminate,
    min_eigenvalue_numeric,
    monomials_upto,
    multinomial,
    psd_exact,
)
from .bernstein import (
    BernsteinExpansion,
    ExpansionParseError,
    elevate,
    lattice_resolution_for,
    norm_of_expansion,
    read_expansion,
    serialize_expansion,
    simplex_lattice_point,
    simplex_lattice_rounded,
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
        raise ValueError(f"smallest-eigenvalue estimate {float(fmin):.3g} is not positive")
    if normB < fmin:
        raise ValueError(f"expansion norm {float(normB):.3g} is below the "
                         f"smallest-eigenvalue estimate {float(fmin):.3g}")
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


@dataclass
class Advisory:
    """Grid estimates and the classical degree bound they give; note says
    why degree is None."""
    fmin_estimate: float | None = None
    degree: int | None = None
    note: str | None = None


def _pd_margin(mat: RationalSymMatrix) -> float | None:
    """Exact PD test with margin: None if mat is not positive definite, else
    its smallest leading principal minor as a float.

    The fraction-free elimination of L mat (algebra._eliminate) has the
    k-th leading principal minor of L mat as its k-th pivot B_k = p + q
    sqrt(r); the k-th minor of mat is B_k / L^k, whose float() is p/L^k +
    q/L^k sqrt(r).  A minor past the float range is positive: its float is inf.
    """
    try:
        L, r, steps = _eliminate(mat)
    except ValueError:
        return None
    if len(steps) < mat.size:
        return None
    margin, scale, root = math.inf, 1, math.sqrt(r)
    for _, ps, qs in steps:
        scale *= L
        try:
            margin = min(margin, ps[0] / scale + qs[0] / scale * root)
        except OverflowError:
            pass
    return margin


def _lattice_scan(F: SymPolyMatrix, target_points: int) -> tuple:
    """(resolution, compositions, float points, smallest eigenvalue of F at
    each point) of the simplex lattice with at least target_points points."""
    n = F.nvars
    res = lattice_resolution_for(n, target_points)
    betas, pts = simplex_lattice_rounded(n, res)
    return res, betas, pts, min_eigenvalue_numeric(F.evaluate_float(pts))


def grid_min_eigenvalue(F: SymPolyMatrix, target_points: int):
    """Numeric min of the smallest eigenvalue of F over a simplex lattice.

    Returns (value, float point, resolution).
    """
    res, _, pts, eigs = _lattice_scan(F, target_points)
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


def polya_certificate(F: SymPolyMatrix, max_degree: int) -> PolyaCertificate:
    """Minimal-degree expansion of F with all coefficient matrices PD.

    Searches degrees deg F, deg F + 1, ... up to max_degree by exact degree
    elevation.  On failure the simplex lattice is scanned for a refutation
    point (smallest eigenvalue <= 0, confirmed exactly) which is reported in
    the raised error.  Success makes no grid estimate: see advisory.
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
            return PolyaCertificate(t, expansion, margins)
        if t < max_degree:
            expansion = elevate(expansion, t + 1)

    # failed within the cap: look for an exact refutation point
    n = F.nvars
    res, betas, _, eigs = _lattice_scan(F, 10**n * (d + 1))
    witness = None
    witness_eig = None
    for idx in np.flatnonzero(eigs < 1e-9):
        point = simplex_lattice_point(n, betas[idx], res)
        if not psd_exact(F.evaluate(point), strict=True):
            witness = point
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


def advisory(F: SymPolyMatrix) -> Advisory:
    """The classical bound deg F + polya_bound(deg F, ||B||, fmin), with
    ||B|| the norm of the degree-deg F expansion and fmin the Markov-refined
    lower estimate from a simplex lattice (the lattice minimum itself if the
    refinement is not positive).  The estimates are numeric: a step that
    fails, a nonpositive fmin or ||B|| < fmin leaves the degree None with the
    reason in note."""
    d = max(F.degree, 0)
    out = Advisory()
    try:
        grid_min, _, res = grid_min_eigenvalue(F, 10**F.nvars * (d + 1))
        out.fmin_estimate = grid_min
        norm = norm_of_expansion(to_bernstein(F, d))
        refined = _markov_refined_lower(F, grid_min, res)
        out.degree = d + polya_bound(d, norm, refined if refined > 0 else grid_min)
    except (ValueError, ArithmeticError) as exc:
        out.note = str(exc)
    return out


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
    views = [[p.terms for p in row] for row in scaled.entries]
    out = {}
    for beta in monomials_upto(N, total):
        if sum(beta) != total:
            continue
        inv = ExtRational(Fraction(1, multinomial(total, beta)))
        grid = [[terms.get(beta, ZERO) * inv for terms in row] for row in views]
        out[beta] = RationalSymMatrix(grid)
    return out


def serialize_polya(cert: PolyaCertificate) -> str:
    """Certificate text: header (degree, the always-exact mode, per-alpha
    margins) followed by the expansion in the shared record format."""
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
    return LineReader(text).parse(_read_polya, ExpansionParseError)


def _read_polya(r: LineReader) -> PolyaCertificate:
    r.literal("polya-v1")
    degree = r.field("degree ")
    r.literal("mode exact")
    margins = {}
    for _ in range(r.field("margins ")):
        head, _, value = r.rest("alpha ").partition(" margin ")
        alpha, margin = r.exponents(head), float(value)
        if alpha in margins:
            raise ValueError(f"alpha {alpha} repeated")
        if not margin >= 0:  # NaN too; _pd_margin writes inf or 0.0 past the float range
            raise ValueError(f"margin {value} of alpha {alpha} is not a float >= 0")
        margins[alpha] = margin
    expansion = read_expansion(r)
    if degree != expansion.degree:
        raise ValueError(f"degree {degree}, but the expansion has degree {expansion.degree}")
    unmatched = sorted(margins.keys() ^ expansion.coeffs.keys())
    if unmatched:
        raise ValueError(f"alpha {unmatched[0]} has a margin or a record, not both")
    return PolyaCertificate(degree, expansion, margins)

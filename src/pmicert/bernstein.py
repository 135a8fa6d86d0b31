"""Bernstein basis on the scaled simplex, conversions and norms.

The scaled simplex is {1 + x_i >= 0 (i=1..n), sqrt(n) - x_1 - ... - x_n >= 0};
it contains the unit ball.  The degree-t basis member for an exponent alpha
with |alpha| <= t is

    multinom(t; alpha, t-|alpha|) * (n + sqrt(n))^(-t)
        * (sqrt(n) - x_1 - ... - x_n)^(t-|alpha|) * prod (1 + x_i)^alpha_i,

an exact polynomial over Q[sqrt(n)].  Monomial -> Bernstein conversion is the
closed form on a simplex (Farouki, "The Bernstein polynomial basis: a
centennial retrospective", CAGD 2012), straight to any degree t >= deg F,
exact, with no linear solve.  Its index tables depend on (n, t, deg F)
only; the last CONVERSION_TABLE_SIZE of them are kept (_conversion_tables).
Degree elevation uses the standard convex-combination recurrence.  Spectral
norms of coefficient matrices are numeric.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from functools import reduce
from operator import mul
from types import MappingProxyType

import numpy as np

from .ring import ExtRational, ONE, ZERO, common_radicand
from .algebra import (
    LineReader,
    Polynomial,
    RationalSymMatrix,
    SymPolyMatrix,
    _sym_matrix,
    _upper_rows,
    lower_triangle_rows,
    monomials_upto,
    multinomial,
)


def basis_poly(alpha, t: int, n: int) -> Polynomial:
    """Degree-t Bernstein basis polynomial for exponent alpha on n variables."""
    alpha = tuple(int(e) for e in alpha)
    if len(alpha) != n:
        raise ValueError(f"alpha has length {len(alpha)}, expected {n}")
    if sum(alpha) > t:
        raise ValueError(f"|alpha| = {sum(alpha)} exceeds degree {t}")
    slack = t - sum(alpha)
    coeff = ExtRational(multinomial(t, alpha + (slack,)))
    coeff = coeff * (ExtRational(n, 1, n) ** (-t)) if t else coeff
    # sqrt(n) - x_1 - ... - x_n
    upper = Polynomial(n, {(0,) * n: ExtRational.sqrt(n)})
    for i in range(n):
        upper = upper - Polynomial.variable(n, i)
    out = Polynomial.const(n, coeff) * upper**slack
    for i, e in enumerate(alpha):
        if e:
            out = out * (Polynomial.variable(n, i) + 1) ** e
    return out


# (n, t, d) shapes whose conversion tables are kept, least recently used
# dropped first
CONVERSION_TABLE_SIZE = 8


@functools.lru_cache(maxsize=CONVERSION_TABLE_SIZE)
def _conversion_tables(n: int, t: int, d: int) -> tuple:
    """(below, weight), read-only, of the degree-t conversion of a matrix of
    degree d: below maps each alpha with |alpha| <= t, in monomials_upto
    order, to the tuple of (beta, prod_i C(alpha_i, beta_i)) over beta <=
    alpha with |beta| <= d, and weight maps each beta with |beta| <= d to
    (-c)^|beta| / multinom(t; beta, t - |beta|), c = n + sqrt(n)."""
    below = {
        alpha: tuple(
            (beta, math.prod(map(math.comb, alpha, beta)))
            for beta in itertools.product(*(range(e + 1) for e in alpha))
            if sum(beta) <= d
        )
        for alpha in monomials_upto(n, t)
    }
    c = ExtRational(n, 1, n)
    powers = [ONE]  # (-c)^k
    for _ in range(d):
        powers.append(powers[-1] * -c)
    weight = {
        beta: powers[sum(beta)] / multinomial(t, beta + (t - sum(beta),))
        for beta in monomials_upto(n, d)
    }
    return MappingProxyType(below), MappingProxyType(weight)


def _monomial_to_bernstein(upper: dict, ell: int, n: int, t: int) -> dict:
    """Degree-t Bernstein coefficients {alpha: ell x ell grid} of the
    symmetric matrix whose entries (i, j), i <= j, are the {exponent:
    coefficient} maps upper[i, j] on n variables, each read once.

    With c = n + sqrt(n), substituting x_i = c*lambda_i - 1, with
    lambda_i = (1 + x_i)/c, turns a_gamma x^gamma into sum_{beta <= gamma}
    C(gamma, beta) (-1)^|gamma - beta| c^|beta| a_gamma lambda^beta, and on
    the simplex lambda^beta = sum_{alpha >= beta} C(alpha, beta) /
    multinom(t; beta, t - |beta|) B_alpha, where C(., .) is the product of
    coordinate binomials.  (-1)^|gamma| goes on the input and (-1)^|beta|
    into the weight, so both steps use one table.
    """
    d = max((sum(g) for terms in upper.values() for g in terms), default=0)
    if t < d:
        raise ValueError(f"target degree {t} below matrix degree {d}")
    below, weight = _conversion_tables(n, t, d)
    grids = {alpha: [[ZERO] * ell for _ in range(ell)] for alpha in below}
    for (i, j), terms in upper.items():
        shifted = {}
        for gamma, a in terms.items():
            if sum(gamma) & 1:
                a = -a
            for beta, k in below[gamma]:
                v = a if k == 1 else a * k
                prev = shifted.get(beta)
                shifted[beta] = v if prev is None else prev + v
        scaled = {beta: v * weight[beta] for beta, v in shifted.items() if v}
        for alpha, pairs in below.items():
            acc = None
            for beta, k in pairs:
                v = scaled.get(beta)
                if v is not None:
                    if k != 1:
                        v = v * k
                    acc = v if acc is None else acc + v
            if acc is not None:
                grids[alpha][i][j] = grids[alpha][j][i] = acc
    return grids


class BernsteinExpansion:
    """Coefficient matrices of a symmetric polynomial matrix in the basis.

    coeffs holds every alpha with |alpha| <= degree, zero matrices included,
    so positivity checks visit the full index set.
    """

    __slots__ = ("nvars", "degree", "ell", "coeffs")

    def __init__(self, nvars: int, degree: int, ell: int, coeffs: dict):
        full = {alpha: coeffs[alpha] for alpha in monomials_upto(nvars, degree)}
        if any(m.size != ell for m in full.values()):
            raise ValueError("coefficient matrix size mismatch")
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "coeffs", full)

    def __setattr__(self, name, value):
        raise AttributeError("BernsteinExpansion is immutable")

    def __getitem__(self, alpha) -> RationalSymMatrix:
        return self.coeffs[tuple(alpha)]

    def items(self):
        return self.coeffs.items()


def to_bernstein(F: SymPolyMatrix, t: int) -> BernsteinExpansion:
    """Exact Bernstein expansion of F at degree t >= deg F."""
    n = F.nvars
    upper = {(i, j): F[i, j].terms for i in range(F.size) for j in range(i, F.size)}
    grids = _monomial_to_bernstein(upper, F.size, n, t)
    return BernsteinExpansion(n, t, F.size, {a: RationalSymMatrix(g) for a, g in grids.items()})


def from_bernstein(e: BernsteinExpansion) -> SymPolyMatrix:
    """Exact reconstruction sum_alpha coeffs[alpha] * B_alpha."""
    return _basis_sum(e, e.nvars, lambda alpha: basis_poly(alpha, e.degree, e.nvars))


def _basis_sum(e: BernsteinExpansion, nvars: int, basis) -> SymPolyMatrix:
    """sum_alpha basis(alpha) * coeffs[alpha], basis(alpha) a polynomial in
    nvars variables."""
    upper = {}
    for alpha, mat in e.items():
        b = basis(alpha)
        for i in range(e.ell):
            for j in range(i, e.ell):
                c = mat[i, j]
                if not c.is_zero():
                    upper[i, j] = upper.get((i, j), Polynomial.zero(nvars)) + b * c
    return SymPolyMatrix.from_upper(e.ell, upper, nvars)


def elevate(e: BernsteinExpansion, target: int) -> BernsteinExpansion:
    """Degree elevation; represents the same matrix at a higher degree.

    A step from degree t sets c'_alpha = ((t + 1 - |alpha|) c_alpha +
    sum_i alpha_i c_(alpha - e_i)) / (t + 1), the terms with |alpha| > t
    or alpha_i = 0 left out.  It runs on the matrices' integer forms over
    one common denominator D, per alpha the upper rows of the rational parts
    and then of the sqrt(r) parts: a step is one integer combination per
    alpha over D (t + 1), and the matrices are made at the target degree
    only.  Two irrational radicands raise RadicandMismatch.
    """
    if target < e.degree:
        raise ValueError(f"cannot elevate from degree {e.degree} down to {target}")
    if target == e.degree:
        return e
    n, ell, t = e.nvars, e.ell, e.degree
    forms = {alpha: mat._f for alpha, mat in e.items()}
    D = math.lcm(*[L for _, _, _, L in forms.values()])
    r = reduce(common_radicand, [x for _, _, x, _ in forms.values()], 0)
    num = {alpha: [v * (D // L) for v in itertools.chain(*ps, *qs)]
           for alpha, (ps, qs, _, L) in forms.items()}
    while t < target:
        step = {}
        for alpha in monomials_upto(n, t + 1):
            terms = [(t + 1 - sum(alpha), num[alpha])] if sum(alpha) <= t else []
            for i, ei in enumerate(alpha):
                if ei:
                    terms.append((ei, num[alpha[:i] + (ei - 1,) + alpha[i + 1:]]))
            weights, rows = zip(*terms)
            step[alpha] = [sum(map(mul, weights, column)) for column in zip(*rows)]
        num, D, t = step, D * (t + 1), t + 1
    half = ell * (ell + 1) // 2  # the upper rows of the ps, then of the qs
    coeffs = {alpha: _sym_matrix(_upper_rows(v[:half], ell), _upper_rows(v[half:], ell), r, D)
              for alpha, v in num.items()}
    return BernsteinExpansion(n, t, ell, coeffs)


def _spectral_norm(mat: np.ndarray) -> float:
    if mat.shape == (1, 1):
        return abs(float(mat[0, 0]))
    eigs = np.linalg.eigvalsh(mat)
    return float(max(abs(eigs[0]), abs(eigs[-1])))


def bernstein_norm(F: SymPolyMatrix, t: int | None = None) -> float:
    """Max spectral norm of the degree-t coefficient matrices (default t = deg F)."""
    if t is None:
        t = max(F.degree, 0)
    return norm_of_expansion(to_bernstein(F, t))


def norm_of_expansion(e: BernsteinExpansion) -> float:
    return max(_spectral_norm(m.to_numpy()) for m in e.coeffs.values())


def bernstein_norm_float(entry_dicts, nvars: int, ell: int, t: int) -> float:
    """Bernstein norm of a float-coefficient symmetric matrix, converted
    exactly: entry_dicts is an ell x ell grid of {exponent tuple: float}
    maps, each float a dyadic rational, of degree <= t.
    """
    upper = {(i, j): Polynomial(nvars, {a: Fraction(v) for a, v in entry_dicts[i][j].items()})
             for i in range(ell) for j in range(i, ell)}
    return bernstein_norm(SymPolyMatrix.from_upper(ell, upper, nvars), t)


# ---------------------------------------------------------------------------
# sample points of the scaled simplex


def _lattice_compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _lattice_compositions(total - head, parts - 1):
            yield (head,) + rest


def simplex_lattice(n: int, resolution: int):
    """Exact lattice points of the scaled simplex (coordinates in Q[sqrt(n)]).

    Images of the uniform lattice on the standard simplex under
    x_i = (n + sqrt(n)) y_i - 1.
    """
    return [simplex_lattice_point(n, beta, resolution)
            for beta in _lattice_compositions(resolution, n + 1)]


def simplex_lattice_point(n: int, beta, resolution: int) -> list:
    """The exact point of simplex_lattice for the composition beta of
    resolution into n + 1 parts."""
    scale = ExtRational(n, 1, n)
    return [scale * Fraction(b, resolution) - 1 for b in beta[:n]]


def simplex_lattice_rounded(n: int, resolution: int) -> tuple:
    """(compositions, points): the compositions of simplex_lattice in its
    order, and the (P, n) array of the float() of each exact coordinate,
    from integers.  With (sp + sq sqrt(sr))/sd the folded parts of
    n + sqrt(n), coordinate b is (sp b - sd res)/(sd res) +
    (sq b)/(sd res) sqrt(sr): the terms ExtRational.__float__ rounds, over
    a denominator that may differ by a common factor, which changes no
    correctly rounded quotient."""
    betas = list(_lattice_compositions(resolution, n + 1))
    sp, sq, sd, sr = ExtRational(n, 1, n).parts()
    b = np.array([beta[:n] for beta in betas], dtype=np.int64).reshape(len(betas), n)
    den = sd * resolution
    return betas, (sp * b - den) / den + (sq * b) / den * math.sqrt(sr)


def lattice_resolution_for(n: int, target_points: int) -> int:
    """Smallest even resolution whose lattice has at least target_points."""
    res = 2
    while math.comb(res + n, n) < target_points:
        res += 2
    return res


# ---------------------------------------------------------------------------
# expansion serialization: one record per exponent, coefficients in the
# canonical text form shared with the certificate files


class ExpansionParseError(ValueError):
    pass


def serialize_expansion(e: BernsteinExpansion) -> str:
    lines = [
        "bexp-v1",
        f"nvars {e.nvars}",
        f"degree {e.degree}",
        f"size {e.ell}",
        f"records {len(e.coeffs)}",
    ]
    for alpha in monomials_upto(e.nvars, e.degree):
        lines.append("alpha " + " ".join(str(v) for v in alpha))
        lines.extend(lower_triangle_rows(e.coeffs[alpha]))
    lines.append("end")
    return "\n".join(lines) + "\n"


def _index_count(nvars: int, degree: int, cap: int) -> int:
    """C(nvars + degree, nvars), or a number above cap once the count passes
    cap: the full count of a declared header can have millions of digits."""
    low, high = sorted((nvars, degree))
    count = 1
    for i in range(1, low + 1):
        count = count * (high + i) // i  # C(high + i, i)
        if count > cap:
            break
    return count


def parse_expansion(text: str) -> BernsteinExpansion:
    return LineReader(text).parse(read_expansion, ExpansionParseError)


def read_expansion(r: LineReader) -> BernsteinExpansion:
    """The expansion record at the reader's cursor: every alpha with
    |alpha| <= degree exactly once, as serialize_expansion writes it."""
    r.literal("bexp-v1")
    nvars = r.field("nvars ", r.chars_left())  # each alpha line names nvars exponents
    degree = r.field("degree ", r.lines_left())
    ell = r.field("size ", r.lines_left())
    records = r.field("records ", r.lines_left() // (ell + 1))
    if records != _index_count(nvars, degree, records):
        raise ValueError(f"records {records}, expected C(nvars + degree, nvars) "
                         f"= C({nvars + degree}, {nvars})")
    coeffs = {}
    for _ in range(records):
        alpha = r.exponents(r.rest("alpha "), nvars)
        if sum(alpha) > degree or alpha in coeffs:
            raise ValueError(f"alpha {alpha} repeated or above degree {degree}")
        coeffs[alpha] = r.sym_matrix(ell, "matrix")
    r.literal("end")
    return BernsteinExpansion(nvars, degree, ell, coeffs)

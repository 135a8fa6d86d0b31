"""Bernstein basis on the scaled simplex, conversions and norms.

The scaled simplex is {1 + x_i >= 0 (i=1..n), sqrt(n) - x_1 - ... - x_n >= 0};
it contains the unit ball.  The degree-t basis member for an exponent alpha
with |alpha| <= t is

    multinom(t; alpha, t-|alpha|) * (n + sqrt(n))^(-t)
        * (sqrt(n) - x_1 - ... - x_n)^(t-|alpha|) * prod (1 + x_i)^alpha_i,

an exact polynomial over Q[sqrt(n)].  Monomial -> Bernstein conversion is an
exact linear solve against the basis (the inverse map is cached per (n, t));
degree elevation uses the standard convex-combination recurrence and never
re-solves.  Spectral norms of coefficient matrices are numeric.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .ring import ExtRational, ZERO, ONE
from .algebra import (
    Polynomial,
    RationalSymMatrix,
    SymPolyMatrix,
    monomials_upto,
)


def _multinomial(t: int, parts) -> int:
    num = math.factorial(t)
    for p in parts:
        num //= math.factorial(p)
    return num


def basis_poly(alpha, t: int, n: int) -> Polynomial:
    """Degree-t Bernstein basis polynomial for exponent alpha on n variables."""
    alpha = tuple(int(e) for e in alpha)
    if len(alpha) != n:
        raise ValueError(f"alpha has length {len(alpha)}, expected {n}")
    if sum(alpha) > t:
        raise ValueError(f"|alpha| = {sum(alpha)} exceeds degree {t}")
    slack = t - sum(alpha)
    coeff = ExtRational(_multinomial(t, alpha + (slack,)))
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


@lru_cache(maxsize=64)
def _basis_cache(n: int, t: int):
    return {alpha: basis_poly(alpha, t, n) for alpha in monomials_upto(n, t)}


def _invert_exact(mat):
    """Gauss-Jordan inverse of a square matrix over Q[sqrt(n)]."""
    k = len(mat)
    a = [row[:] + [ONE if i == j else ZERO for j in range(k)] for i, row in enumerate(mat)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if not a[r][col].is_zero()), None)
        if pivot is None:
            raise ValueError("basis conversion matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv = a[col][col].inverse()
        a[col] = [v * inv for v in a[col]]
        for r in range(k):
            if r == col or a[r][col].is_zero():
                continue
            f = a[r][col]
            a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [row[k:] for row in a]


@lru_cache(maxsize=32)
def _conversion_inverse(n: int, t: int):
    """Inverse of the (Bernstein coefficients -> monomial coefficients) map."""
    alphas = monomials_upto(n, t)
    basis = _basis_cache(n, t)
    mat = [[basis[alpha].coeff(gamma) for alpha in alphas] for gamma in alphas]
    return alphas, _invert_exact(mat)


@lru_cache(maxsize=32)
def _conversion_inverse_float(n: int, t: int) -> np.ndarray:
    _, inv = _conversion_inverse(n, t)
    return np.array([[float(v) for v in row] for row in inv])


class BernsteinExpansion:
    """Coefficient matrices of a symmetric polynomial matrix in the basis.

    Every alpha with |alpha| <= degree is present; zero matrices are stored
    explicitly so positivity checks visit the full index set.
    """

    __slots__ = ("nvars", "degree", "ell", "coeffs")

    def __init__(self, nvars: int, degree: int, ell: int, coeffs: dict):
        full = {}
        for alpha in monomials_upto(nvars, degree):
            m = coeffs.get(alpha)
            if m is None:
                m = RationalSymMatrix([[ZERO] * ell for _ in range(ell)])
            if m.size != ell:
                raise ValueError("coefficient matrix size mismatch")
            full[alpha] = m
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
    d = max(F.degree, 0)
    if t < d:
        raise ValueError(f"target degree {t} below matrix degree {d}")
    n = F.nvars
    alphas, inv = _conversion_inverse(n, d)
    k = len(alphas)
    ell = F.size
    # solve for each upper-triangle entry and assemble symmetric matrices
    coeff_grids = {alpha: [[ZERO] * ell for _ in range(ell)] for alpha in alphas}
    for i in range(ell):
        for j in range(i, ell):
            rhs = [F.entries[i][j].coeff(gamma) for gamma in alphas]
            for r in range(k):
                acc = ZERO
                for c in range(k):
                    if not rhs[c].is_zero():
                        acc = acc + inv[r][c] * rhs[c]
                coeff_grids[alphas[r]][i][j] = acc
                coeff_grids[alphas[r]][j][i] = acc
    expansion = BernsteinExpansion(
        n, d, ell, {a: RationalSymMatrix(g) for a, g in coeff_grids.items()}
    )
    if t > d:
        expansion = elevate(expansion, t)
    return expansion


def from_bernstein(e: BernsteinExpansion) -> SymPolyMatrix:
    """Exact reconstruction sum_alpha coeffs[alpha] * B_alpha."""
    basis = _basis_cache(e.nvars, e.degree)
    ell = e.ell
    grid = [[Polynomial.zero(e.nvars) for _ in range(ell)] for _ in range(ell)]
    for alpha, mat in e.items():
        b = basis[alpha]
        for i in range(ell):
            for j in range(i, ell):
                if mat[i, j].is_zero():
                    continue
                term = b * mat[i, j]
                grid[i][j] = grid[i][j] + term
                if i != j:
                    grid[j][i] = grid[j][i] + term
    return SymPolyMatrix(grid)


def elevate(e: BernsteinExpansion, target: int) -> BernsteinExpansion:
    """Degree elevation; represents the same matrix at a higher degree."""
    if target < e.degree:
        raise ValueError(f"cannot elevate from degree {e.degree} down to {target}")
    out = e
    while out.degree < target:
        t = out.degree
        scale = ExtRational(Fraction(1, t + 1))
        ell = out.ell
        zero = RationalSymMatrix([[ZERO] * ell for _ in range(ell)])
        coeffs = {}
        for alpha in monomials_upto(out.nvars, t + 1):
            acc = zero
            weight = t + 1 - sum(alpha)
            if weight and sum(alpha) <= t:
                acc = acc + out[alpha].scale(weight)
            for i, ei in enumerate(alpha):
                if ei == 0:
                    continue
                lower = list(alpha)
                lower[i] -= 1
                acc = acc + out[tuple(lower)].scale(ei)
            coeffs[alpha] = acc.scale(scale)
        out = BernsteinExpansion(out.nvars, t + 1, ell, coeffs)
    return out


def _spectral_norm(mat: np.ndarray) -> float:
    if mat.shape == (1, 1):
        return abs(float(mat[0, 0]))
    eigs = np.linalg.eigvalsh(mat)
    return float(max(abs(eigs[0]), abs(eigs[-1])))


def bernstein_norm(F: SymPolyMatrix, t: int | None = None, tol: float = 1e-12) -> float:
    """Max spectral norm of the degree-t coefficient matrices (default t = deg F)."""
    if t is None:
        t = max(F.degree, 0)
    e = to_bernstein(F, t)
    return max(_spectral_norm(m.to_numpy()) for m in e.coeffs.values())


def norm_of_expansion(e: BernsteinExpansion) -> float:
    return max(_spectral_norm(m.to_numpy()) for m in e.coeffs.values())


def bernstein_norm_float(entry_dicts, nvars: int, ell: int, t: int) -> float:
    """Bernstein norm of a float-coefficient symmetric matrix.

    entry_dicts is an ell x ell grid of {exponent tuple: float} maps; the
    matrix degree must be <= t.
    """
    alphas = monomials_upto(nvars, t)
    index = {a: r for r, a in enumerate(alphas)}
    inv = _conversion_inverse_float(nvars, t)
    coeff = np.zeros((len(alphas), ell, ell))
    for i in range(ell):
        for j in range(i, ell):
            rhs = np.zeros(len(alphas))
            for gamma, v in entry_dicts[i][j].items():
                if gamma not in index:
                    raise ValueError(f"monomial {gamma} exceeds degree {t}")
                rhs[index[gamma]] = v
            sol = inv @ rhs
            coeff[:, i, j] = sol
            coeff[:, j, i] = sol
    return max(_spectral_norm(coeff[r]) for r in range(len(alphas)))


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
    scale = ExtRational(n, 1, n)
    points = []
    for beta in _lattice_compositions(resolution, n + 1):
        y = [Fraction(b, resolution) for b in beta[:n]]
        points.append([scale * yi - 1 for yi in y])
    return points


def simplex_lattice_float(n: int, resolution: int) -> np.ndarray:
    scale = n + math.sqrt(n)
    pts = []
    for beta in _lattice_compositions(resolution, n + 1):
        pts.append([scale * b / resolution - 1.0 for b in beta[:n]])
    return np.array(pts)


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
        mat = e.coeffs[alpha]
        for i in range(e.ell):
            lines.append(" ".join(f"({mat[i, j]})" for j in range(i + 1)))
    lines.append("end")
    return "\n".join(lines) + "\n"


def parse_expansion(text: str) -> BernsteinExpansion:
    return parse_expansion_lines(text.splitlines(), 0)


def parse_expansion_lines(lines: list, start: int) -> BernsteinExpansion:
    """The expansion record that begins at lines[start]; error messages
    number the lines of the whole list from 1."""
    from .ring import parse_ext_rational

    pos = start

    def take(expect):
        nonlocal pos
        if pos >= len(lines):
            raise ExpansionParseError(f"line {pos + 1}: unexpected end (expected {expect})")
        line = lines[pos]
        pos += 1
        return line

    def count(prefix):
        line = take(prefix)
        try:
            if not line.startswith(prefix):
                raise ValueError
            return int(line[len(prefix):])
        except ValueError:
            raise ExpansionParseError(
                f"line {pos}: expected {prefix!r} and an integer, got {line!r}"
            ) from None

    if take("header") != "bexp-v1":
        raise ExpansionParseError(f"line {pos}: missing bexp-v1 header")
    nvars = count("nvars ")
    degree = count("degree ")
    ell = count("size ")
    records = count("records ")
    coeffs = {}
    for _ in range(records):
        line = take("alpha ")
        try:
            if not line.startswith("alpha "):
                raise ValueError
            alpha = tuple(int(tok) for tok in line[len("alpha "):].split())
        except ValueError:
            raise ExpansionParseError(f"line {pos}: expected 'alpha ', got {line!r}") from None
        grid = [[ZERO] * ell for _ in range(ell)]
        for i in range(ell):
            toks = take("matrix row").split()
            if len(toks) != i + 1:
                raise ExpansionParseError(
                    f"line {pos}: matrix row {i} has {len(toks)} entries, expected {i + 1}"
                )
            for j, tok in enumerate(toks):
                if not (tok.startswith("(") and tok.endswith(")")):
                    raise ExpansionParseError(f"line {pos}: malformed entry {tok!r}")
                try:
                    v = parse_ext_rational(tok[1:-1])
                except ValueError as exc:
                    raise ExpansionParseError(f"line {pos}: {exc}") from None
                grid[i][j] = v
                grid[j][i] = v
        coeffs[alpha] = RationalSymMatrix(grid)
    if take("end") != "end":
        raise ExpansionParseError(f"line {pos}: missing 'end' marker")
    return BernsteinExpansion(nvars, degree, ell, coeffs)

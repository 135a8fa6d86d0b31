"""Scalarization of polynomial matrix inequalities.

An m x m symmetric polynomial matrix inequality G(x) >= 0 is converted into
exactly theta(m) scalar inequalities d_i(x) >= 0 that cut out the same set,
where each d_i comes with an explicit witness column v_i satisfying
d_i = v_i^T G v_i exactly (so d_i visibly belongs to the quadratic module of
G).  The construction eliminates one row/column at a time: for every index
pair i <= j a congruence with determinant-free scalar matrices produces a
pivot polynomial s_ij and a smaller symmetric matrix B_ij, and the recursion
bottoms out at the explicit six-inequality description of the 2 x 2 case.

One exact check states what the output claims, and it runs once, in
`scalarize`, on every emitted pair: d_i = v_i^T G v_i, together with the
theta(m) entry count and the 3^(m-1) d_G degree cap.  The base case and the
reduction steps are not checked on their own; a wrong pivot, block or
transform surfaces as a failed identity of some emitted pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ring import ExtRational
from .bounds import theta
from .algebra import (
    PolyMatrix,
    Polynomial,
    SymPolyMatrix,
    congruence,
    psd_exact,
)

MAX_SCALARIZE_SIZE = 5


def _unit_column(m: int, nvars: int, *indices) -> PolyMatrix:
    one = Polynomial.const(nvars, 1)
    zero = Polynomial.zero(nvars)
    return PolyMatrix.column([one if i + 1 in indices else zero for i in range(m)])


@dataclass
class ScalarizedSystem:
    m: int
    entries: list  # of (Polynomial, PolyMatrix column witness)

    def __len__(self):
        return len(self.entries)

    def polynomials(self):
        return [d for d, _ in self.entries]


@dataclass
class ReductionStep:
    i: int
    j: int
    s: Polynomial
    B: SymPolyMatrix
    transform: PolyMatrix  # X_minus @ T, satisfying transform G transform^T = diag(s^3, B)
    T: PolyMatrix
    X_minus: PolyMatrix
    X_plus: PolyMatrix


def verify_witness(d: Polynomial, v: PolyMatrix, G: SymPolyMatrix) -> bool:
    """True iff d - v^T G v is exactly zero."""
    if v.cols != 1 or v.rows != G.size:
        raise ValueError(f"witness must be a {G.size}x1 column")
    return congruence(v, G).entries[0][0] == d


def scalarize_base2(G: SymPolyMatrix) -> ScalarizedSystem:
    """The six scalar inequalities equivalent to a 2x2 inequality G >= 0.

    Ordering follows the classical display: G11; G22; G11*det; the sum
    s = G11 + 2 G12 + G22; G22*det; and s*(s*G22 - (G12+G22)^2).
    Each pair (d, v) satisfies d = v^T G v; the witnesses are not checked
    here, but by `scalarize` on the pairs it emits.
    """
    if G.size != 2:
        raise ValueError(f"expected a 2x2 matrix, got {G.size}x{G.size}")
    nv = G.nvars
    g11, g12, g22 = G[0, 0], G[0, 1], G[1, 1]
    det = g11 * g22 - g12 * g12
    s = g11 + 2 * g12 + g22
    entries = [
        (g11, _unit_column(2, nv, 1)),
        (g22, _unit_column(2, nv, 2)),
        (g11 * det, PolyMatrix.column([-g12, g11])),
        (s, _unit_column(2, nv, 1, 2)),
        (g22 * det, PolyMatrix.column([g22, -g12])),
        (s * (s * g22 - (g12 + g22) ** 2), PolyMatrix.column([-(g12 + g22), g11 + g12])),
    ]
    return ScalarizedSystem(2, entries)


def reduction_step(G: SymPolyMatrix, i: int, j: int) -> ReductionStep:
    """One elimination step for the index pair 1 <= i <= j <= size.

    Builds the constant row operations T_ij (swap row 1 and i, after adding
    row j to row i when i < j), the pivot s_ij (= G_ii, or
    G_ii + 2 G_ij + G_jj for i < j) and the size-1-smaller matrix
    B_ij = s_ij (s_ij H - beta beta^T).  The congruence identity
    (X_minus T) G (X_minus T)^T = diag(s_ij^3, B_ij) holds by construction
    and is not recomputed here: `scalarize` checks every witness lifted
    through `transform`, which catches a wrong B or transform.
    det T = +-1 and det X_minus = s_ij^size hold by the triangular/permutation
    structure.
    """
    m = G.size
    if not (1 <= i <= j <= m):
        raise ValueError(f"need 1 <= i <= j <= {m}, got ({i}, {j})")
    nv = G.nvars
    one = Polynomial.const(nv, 1)
    zero = Polynomial.zero(nv)

    # row r of T is the 0/1 indicator of rows[r]: rows 1 and i swapped, and
    # row j added to row i when i < j
    order = list(range(m))
    order[0], order[i - 1] = order[i - 1], order[0]
    rows = [[k] for k in order]
    if i < j:
        rows[0].append(j - 1)
    T = PolyMatrix([[one if c in rows[r] else zero for c in range(m)] for r in range(m)])

    def total(polys):
        return sum(polys[1:], polys[0]) if polys else zero

    # T G T^T and X_minus T as index sums: T is constant, so no products
    conj = [[total([G[a, b] for b in rows[c] for a in rows[r]]) for c in range(m)]
            for r in range(m)]
    s = conj[0][0]
    beta = [conj[r][0] for r in range(1, m)]
    H = [[conj[r][c] for c in range(1, m)] for r in range(1, m)]

    top = [s] + [zero] * (m - 1)
    diag = [[s if c == r else zero for c in range(m - 1)] for r in range(m - 1)]
    X_minus = PolyMatrix([top] + [[-b] + row for b, row in zip(beta, diag)])
    X_plus = PolyMatrix([top] + [[b] + row for b, row in zip(beta, diag)])
    # row r of X_minus is nonzero only in columns 0 and r
    transform = PolyMatrix(
        [[total([X_minus[r, k] for k in sorted({0, r}) if c in rows[k]])
          for c in range(m)] for r in range(m)]
    )

    # the upper triangle, mirrored
    B = SymPolyMatrix.from_upper(m - 1, {
        (r, c): s * (s * H[r][c] - beta[r] * beta[c]) for r in range(m - 1) for c in range(r, m - 1)
    }, nv)
    return ReductionStep(i, j, s, B, transform, T, X_minus, X_plus)


def _scalarize_entries(G: SymPolyMatrix) -> list:
    m = G.size
    nv = G.nvars
    if m == 1:
        return [(G[0, 0], _unit_column(1, nv, 1))]
    if m == 2:
        return scalarize_base2(G).entries
    steps = [reduction_step(G, i, j) for i in range(1, m + 1) for j in range(i, m + 1)]
    entries = [(step.s, _unit_column(m, nv, step.i, step.j)) for step in steps]
    zero = Polynomial.zero(nv)
    for step in steps:
        lift = step.transform.transpose()
        for d, w in _scalarize_entries(step.B):
            padded = PolyMatrix.column([zero] + [w[r, 0] for r in range(m - 1)])
            entries.append((d, lift @ padded))
    return entries


def scalarize(G: SymPolyMatrix) -> ScalarizedSystem:
    """Equivalent scalar description of {G(x) >= 0} with exact witnesses.

    Returns exactly theta(m) pairs (d, v) with d = v^T G v; the d's are the
    pivots s_ij (witnessed by e_i or e_i + e_j) followed by the recursively
    scalarized B_ij blocks with witnesses composed through the congruence
    transforms.  This is the one check of the construction: the entry count
    is theta(m), every degree is at most 3^(m-1) d_G, and d = v^T G v holds
    exactly for every emitted pair.  Matrix sizes above 5 are rejected: theta(6)
    is 135,786 entries, too large an output to be of use.
    """
    m = G.size
    if m < 2:
        raise ValueError("scalarize needs a matrix of size at least 2")
    if m > MAX_SCALARIZE_SIZE:
        raise ValueError(
            f"matrix size {m} exceeds the supported maximum {MAX_SCALARIZE_SIZE}"
        )
    entries = _scalarize_entries(G)
    if len(entries) != theta(m):
        raise AssertionError(f"expected theta({m}) = {theta(m)} entries, got {len(entries)}")
    d_G = max(G.degree, 0)
    cap = 3 ** (m - 1) * d_G
    for d, v in entries:
        if d.degree > cap:
            raise AssertionError(f"entry degree {d.degree} exceeds 3^(m-1) d_G = {cap}")
        if not verify_witness(d, v, G):
            raise AssertionError("emitted witness failed exact verification")
    return ScalarizedSystem(m, entries)


@dataclass
class EquivalencePoint:
    point: list
    matrix_psd: bool
    scalars_nonneg: bool

    @property
    def agrees(self) -> bool:
        return self.matrix_psd == self.scalars_nonneg


@dataclass
class EquivalenceReport:
    results: list

    @property
    def violations(self):
        return [r for r in self.results if not r.agrees]

    @property
    def ok(self) -> bool:
        return not self.violations


def equivalence_check(G: SymPolyMatrix, system: ScalarizedSystem, points) -> EquivalenceReport:
    """Exact check that G(x) >= 0 iff all d_i(x) >= 0 at each given point."""
    results = []
    for point in points:
        point = [ExtRational.coerce(c) for c in point]
        mat_ok = psd_exact(G.evaluate(point))
        scal_ok = all(d.evaluate(point).sign() >= 0 for d, _ in system.entries)
        results.append(EquivalencePoint(point, mat_ok, scal_ok))
    return EquivalenceReport(results)


@dataclass
class CharPolyEntry:
    poly: Polynomial
    witnesses: list | None  # columns whose congruences sum to poly, or None


def charpoly_scalarization(G: SymPolyMatrix) -> list:
    """Sign-alternated characteristic polynomial coefficients g_1..g_m with
    det(lambda I - G) = lambda^m + sum (-1)^i g_i lambda^(m-i).

    G >= 0 iff all g_i >= 0, but only g_1 = trace(G) carries a quadratic
    module witness (the unit columns, summed); the others generally do not
    belong to the module, so they are emitted without witnesses.
    """
    m = G.size
    if m < 1:
        raise ValueError("matrix must be nonempty")
    nv = G.nvars
    # Faddeev-LeVerrier: N_1 = G, c_k = -tr(N_k)/k, N_{k+1} = G (N_k + c_k I)
    coeffs = []  # c_1..c_m with charpoly = lambda^m + c_1 lambda^(m-1) + ...
    N = PolyMatrix.identity(m, nv)
    for k in range(1, m + 1):
        N = G @ N
        trace = sum((N.entries[r][r] for r in range(m)), Polynomial.zero(nv))
        c_k = trace * ExtRational(Fraction(-1, k))
        coeffs.append(c_k)
        if k < m:
            N = N + PolyMatrix.identity(m, nv).scale_poly(c_k)
    out = []
    for idx, c in enumerate(coeffs, start=1):
        g = c if idx % 2 == 0 else -c
        if idx == 1:
            witnesses = [_unit_column(m, nv, r + 1) for r in range(m)]
            total = sum((congruence(w, G).entries[0][0] for w in witnesses), Polynomial.zero(nv))
            if total != g:
                raise AssertionError("trace witness identity failed")
            out.append(CharPolyEntry(g, witnesses))
        else:
            out.append(CharPolyEntry(g, None))
    return out

"""Quadratic-module membership certificates: data model, construction,
exact/numeric verification and text serialization.

A certificate for "F is in the quadratic module of G" consists of SOS blocks
(a monomial basis plus a PSD Gram matrix, an algebra.RationalSymMatrix; for
an l x l target the Gram acts on basis (x) kron R^l) and multiplier terms
scale * P^T G P with scale >= 0.  The scale generalizes the plain P^T G P
form: positive constants such as sqrt(n)/2 that the facet identities need
are not sums of squares in Q[sqrt(n)], so they ride along as explicit
nonnegative weights.  A sphere multiplier H (a .qmc's sphere-multiplier
section) adds H (||x||^2 - 1); verify_certificate accepts it on forms only.

SOS parts and multiplier parts reconstruct through one Gram shape.  The
multiplier terms fold into one PSD form W = sum scale vec(P) vec(P)^T over
R^m (x) basis (x) R^l, and entry (i, j) of sum scale P^T G P is
sum_ab G_ab S[(a,i),(b,j)], where S is W collapsed onto monomials as an SOS
block is: exponents are only added, so the multipliers cost m^2 polynomial
products per entry however many terms there are.  W is never stored: each
term's nonzero pairs go straight into S, so memory stays linear in the
distinct monomials, as with one congruence per term.  Terms whose vec(P)
holds the same polynomial objects fold as one square at the exact sum of
their scales.  The reader shares every repeated line (algebra.LineReader),
so in a parsed certificate that repeats a multiplier under different
scales, each distinct vector is folded once; cert.multipliers still keeps
every term.

The fold (_fold_squares), the collapse of SOS blocks (_collapse) and the
Gram assemblies (gram_from_squares, and the Kronecker blocks of
assemble_simplex_putinar) are sums of algebra's one accumulator,
_accumulate: a fold slot sums the products scale v[p] v[q] of its squares
(the upper triangle of the square when p = q), a Gram the upper triangles
of its squares keyed by position, and a reconstructed entry the collapsed
blocks and the products G_ab S[(a,i),(b,j)] at once.  A Gram is made from
its sum by algebra._summed and stays in integers: the collapse reads its
integer form, and the exact check and the LDL^T take it as it is.

All payloads are stored exactly (floats entering from numeric solvers are
dyadic rationals, hence exact); the mode flag only selects the verification
semantics: "exact" demands a zero residual and exactly PSD Grams, "numeric"
tolerates a residual of small Bernstein norm and slightly negative margins.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import add, mul
from types import MappingProxyType

from .ring import ExtRational, ONE, _make, common_radicand
from .algebra import (
    LineReader,
    PolyMatrix,
    Polynomial,
    RationalSymMatrix,
    SymPolyMatrix,
    _accumulate,
    _at,
    _build,
    _constant_form,
    _entry_form,
    _finish,
    _pack,
    _unpack,
    _scaled,
    _summed,
    _width,
    ldlt,
    min_eigenvalue_numeric,
    lower_triangle_rows,
    monomials_upto,
    multinomial,
    psd_exact,
)
from .bernstein import bernstein_norm
from .polya import polya_certificate


class CertificateParseError(ValueError):
    pass


# Shapes kept by each per-shape table of certify-simplex (ball_polynomial and
# the facet identities per n, the Bernstein basis memberships per (n, t), the
# CLI's bound line per (n, m, d, d_G)), the least recently used dropped
# first.  A table's entries are pure functions of their key and immutable;
# the final exact check of every assembled certificate stays the check of
# record.
SHAPE_TABLE_SIZE = 8


@functools.lru_cache(maxsize=SHAPE_TABLE_SIZE)
def ball_polynomial(n: int) -> Polynomial:
    """1 - ||x||^2 in n variables."""
    p = Polynomial.const(n, 1)
    for i in range(n):
        xi = Polynomial.variable(n, i)
        p = p - xi * xi
    return p


def ball_constraint(n: int) -> SymPolyMatrix:
    return SymPolyMatrix.scalar(ball_polynomial(n))


@dataclass
class SOSBlock:
    basis: list               # exponent tuples
    gram: RationalSymMatrix   # (N*ell) x (N*ell), on basis (x) R^ell

    def size(self) -> int:
        return self.gram.size

    def degree(self) -> int:
        return 2 * max((sum(b) for b in self.basis), default=0)


@dataclass
class MultiplierTerm:
    scale: ExtRational       # nonnegative weight
    matrix: PolyMatrix       # m x ell


@dataclass
class QMCertificate:
    nvars: int
    ell: int
    m: int                   # constraint matrix size the multipliers expect
    k: int                   # declared degree of the representation
    mode: str = "exact"
    sos_blocks: list = field(default_factory=list)
    multipliers: list = field(default_factory=list)
    sphere_multiplier: SymPolyMatrix | None = None

    def reconstruction(self, G: SymPolyMatrix) -> SymPolyMatrix:
        """sigma_0 + sum scale P^T G P, plus H (||x||^2 - 1) when the
        certificate has a sphere multiplier H.  The multipliers fold into
        W = sum scale vec(P) vec(P)^T, vec(P)[a ell + i] = P[a][i]; with S
        its collapse onto monomials, built square by square from the nonzero
        terms only, entry (i, j) gains sum_ab G_ab S[(a,i),(b,j)].

        Terms whose vec(P) holds the same polynomial objects (a parsed
        certificate shares every repeated line) are one square whose scale is
        the exact sum of theirs, s1 v v^T + s2 v v^T = (s1 + s2) v v^T, at the
        place of the first: W and S are unchanged, and each distinct vector is
        folded once.  Keys are object identities, not polynomial equality,
        which would hash every entry."""
        n, ell, m = self.nvars, self.ell, G.size
        squares = {}
        for term in self.multipliers:
            P = term.matrix
            if P.rows != m or P.cols != ell:
                raise ValueError(f"multiplier is {P.rows}x{P.cols}, expected {m}x{ell}")
            if P.nvars != n:
                raise ValueError(f"multiplier is in {P.nvars} variables, expected {n}")
            vec = [p for row in P.entries for p in row]
            scale = ExtRational.coerce(term.scale)
            key = tuple(map(id, vec))
            prev = squares.get(key)
            squares[key] = (scale, vec) if prev is None else (prev[0] + scale, vec)
        S = _fold_squares(squares.values(), m * ell)
        # one packing width for every item of an entry's sum
        basis_degree = max((sum(b) for block in self.sos_blocks for b in block.basis), default=0)
        width = max([_width(basis_degree)] + [p._w for p in S.values()]
                    + [p._w for row in G.entries for p in row])
        collapsed = [_collapse(block.basis, block.gram, ell, width) for block in self.sos_blocks]
        out = {}
        for i in range(ell):
            for j in range(i, ell):
                items = [(forms[i, j], None, None) for forms in collapsed if (i, j) in forms]
                for a in range(m):
                    for b in range(m):
                        p, q = a * ell + i, b * ell + j
                        s = S.get((min(p, q), max(p, q)))
                        if s is not None and s._f[0] and G[a, b]._f[0]:
                            items.append((_at(G[a, b], width), _at(s, width), None))
                out[i, j] = _finish(n, width, *_accumulate(items))
        H = self.sphere_multiplier
        if H is not None:
            if H.size != ell or H.nvars != n:
                raise ValueError(f"sphere multiplier is {H.size}x{H.size} in {H.nvars} "
                                 f"variables, expected {ell}x{ell} in {n}")
            r2 = -ball_polynomial(n)  # ||x||^2 - 1
            for i, j in out:
                out[i, j] = out[i, j] + H[i, j] * r2
        return SymPolyMatrix.from_upper(ell, out, n)


def _collapse(basis, gram: RationalSymMatrix, w: int, width: int) -> dict:
    """{(i, j): the integer form of sum_{u,v} gram[u w + i, v w + j]
    x^(basis[u] + basis[v])}, i <= j < w, for the (i, j) with a nonzero
    entry, over gram's denominator: a monomial packed at width (no narrower
    than the basis degree needs) once per (u, v), so one may repeat; the
    sum is left to _accumulate.  The entries are read from gram's upper
    rows in the order (u, v, i, j)."""
    ps, qs, r, L = gram._f
    keys = [_pack(b, width) for b in basis]
    found = {}
    for u, ku in enumerate(keys):
        for v, kv in enumerate(keys):
            for i in range(w):
                for j in range(i, w):
                    a, b = u * w + i, v * w + j
                    lo, hi = (a, b) if a <= b else (b, a)
                    p, q = ps[lo][hi - lo], qs[lo][hi - lo]
                    if p or q:
                        mons, fp, fq = found.setdefault((i, j), ([], [], []))
                        mons.append(ku + kv)
                        fp.append(p)
                        fq.append(q)
    return {ij: (mons, fp, fq, (r,) * len(fq), L) if any(fq) else (mons, fp, None, None, L)
            for ij, (mons, fp, fq) in found.items()}


def _fold_squares(squares, w: int) -> dict:
    """{(p, q): S[p, q]}, p <= q < w, of sum scale v v^T over the (scale, v)
    in squares, v a list of w polynomials, collapsed onto monomials: terms
    c x^mu of v[p] and d x^nu of v[q] add scale c d at mu + nu.  Only
    nonzero terms are paired, so time is the sum of the squared term
    counts, memory the number of distinct sums, and nothing dense is built.
    Slots that no pair reaches are left out.  Two different irrational
    radicands anywhere in the fold raise RadicandMismatch.

    One _accumulate sums every square, each the upper triangle of scale
    v v^T with the terms of v over one denominator.  The slot (p, q) rides
    above the packed monomial: a term of v[p] is keyed p w B + mu as a row
    and p B + mu as a column, B past every sum of two packed monomials, so
    a pair's key is the slot p w + q times B plus mu + nu, and the terms of
    one v[p] are a group whose mirrored pairs share a key."""
    squares = [(s, vec) for s, vec in ((ExtRational.coerce(s), vec) for s, vec in squares)
               if s and any(p._f[0] for p in vec)]
    if not squares:
        return {}
    r = 0
    for s, vec in squares:
        for cr in {s.radicand, *(x for p in vec if p._f[3] for x in p._f[3])}:
            r = common_radicand(r, cr)
    nvars = squares[0][1][0].nvars
    width = max(p._w for _, vec in squares for p in vec)
    shift = 1 << width * (nvars + 1)
    items = []
    for s, vec in squares:
        forms = [(p, _at(poly, width)) for p, poly in enumerate(vec) if poly._f[0]]
        L = math.lcm(*[f[4] for _, f in forms])
        rows, cols, ps, qs, rs, starts = [], [], [], [], [], []
        for p, (mons, fp, fq, fr, den) in forms:
            c, size = L // den, len(mons)
            starts += [len(rows)] * size
            rows += map(add, mons, repeat(p * w * shift))
            cols += map(add, mons, repeat(p * shift))
            ps += fp if c == 1 else map(mul, fp, repeat(c))
            if fq:
                qs += fq if c == 1 else map(mul, fq, repeat(c))
                rs += fr
            else:
                qs += [0] * size
                rs += [0] * size
        if not any(qs):
            qs = rs = None
        col = (cols, ps, qs, rs, L)
        items.append((_scaled((rows,) + col[1:], s.parts()), col, starts))
    acc, D, rational = _accumulate(items)
    slots = {}
    for key, value in acc.items():
        slot, mono = divmod(key, shift)
        slots.setdefault(slot, []).append((mono, value) if rational else (mono, *value))
    out = {}
    for slot, terms in slots.items():
        if rational:
            (mons, ps), qs, rs = zip(*terms), None, None
        else:
            mons, ps, qs, rs = zip(*terms)
        out[divmod(slot, w)] = _build(nvars, width, mons, ps, qs, rs, D)
    return out


def _grlex_basis(polys, nvars: int) -> tuple:
    """(basis, index, width): the monomials of polys in graded-lex order
    (the constant alone if there are none), and index mapping each one,
    packed at width, the widest of polys, to its place in basis."""
    polys = [p for p in polys if p._f[0]]
    width = max([p._w for p in polys], default=8)
    keys = sorted({k for p in polys for k in _at(p, width)[0]}) or [0]
    return [_unpack(k, nvars, width) for k in keys], {k: u for u, k in enumerate(keys)}, width


def _gram_sums(squares, index: dict, width: int, ell: int) -> tuple:
    """The _accumulate result (acc, D, rational) of the Gram matrix of
    sum_r w_r v_r v_r^T on basis (x) R^ell, entry (a, b), a <= b, at key
    a dim + b, dim = len(index) ell: position (u, i) of a term c x^mu of
    v_r[i] is index[mu] ell + i, mu packed at width.  Each square is the
    upper triangle of w_r v_r v_r^T in _accumulate.  Two different
    irrational radicands raise RadicandMismatch."""
    dim = len(index) * ell
    items = []
    r = 0
    for w, col in squares:
        forms = [(i, _at(p, width)) for i, p in enumerate(col) if p._f[0]]
        if not w or not forms:
            continue
        L = math.lcm(*[f[4] for _, f in forms])
        pos, ps, qs, rs = zip(*sorted(
            (index[k] * ell + i, x * (L // den), y * (L // den), z)
            for i, (mons, fp, fq, fr, den) in forms
            for k, x, y, z in zip(mons, fp, fq or repeat(0), fr or repeat(0))))
        if not any(qs):
            qs = rs = None
        for cr in {w.radicand, *(rs or ())}:
            r = common_radicand(r, cr)
        rows = _scaled(([a * dim for a in pos], ps, qs, rs, L), w.parts())
        items.append((rows, (pos, ps, qs, rs, L), range(len(pos))))
    return _accumulate(items)


def gram_from_squares(squares, nvars: int, ell: int) -> SOSBlock:
    """Assemble sum_r w_r v_r v_r^T (w_r >= 0, v_r polynomial columns of
    length ell) into a single PSD Gram block.  Each square fills the upper
    triangle, entry (a, b) at key a dim + b of _gram_sums, and _summed
    makes the matrix."""
    squares = [(ExtRational.coerce(w), col) for w, col in squares]
    if any(w.sign() < 0 for w, _ in squares):
        raise ValueError("square weights must be nonnegative")
    basis, index, width = _grlex_basis((p for _, col in squares for p in col), nvars)
    dim = len(basis) * ell
    return SOSBlock(basis, _summed(dim, *_gram_sums(squares, index, width, ell)))


# ---------------------------------------------------------------------------
# facet certificates on the scaled simplex


def facet_polynomial(kind: str, n: int, index: int = 0) -> Polynomial:
    if kind in ("lower", "lower_i"):
        return Polynomial.variable(n, index) + 1
    if kind in ("upper", "upper_sum"):
        p = Polynomial(n, {(0,) * n: ExtRational.sqrt(n)})
        for i in range(n):
            p = p - Polynomial.variable(n, i)
        return p
    raise ValueError(f"unknown facet kind {kind!r}")


def facet_certificate(kind: str, n: int, index: int = 0):
    """Exact membership of a simplex facet polynomial in the ball module.

    lower facet: 1 + x_i = 1/2 (1 + x_i)^2 + 1/2 sum_{j != i} x_j^2
                           + 1/2 (1 - ||x||^2)
    upper facet: sqrt(n) - sum x_i = (sqrt(n)/2) sum (x_i - 1/sqrt(n))^2
                           + (sqrt(n)/2) (1 - ||x||^2)

    Returns (facet polynomial, certificate).  The identities are closed
    forms, checked by the tests; a certificate assembled from them is checked
    whole by assemble_simplex_putinar's final verification.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    target = facet_polynomial(kind, n, index)
    half = ExtRational(Fraction(1, 2))
    squares = []
    if kind in ("lower", "lower_i"):
        if not 0 <= index < n:
            raise ValueError(f"facet index {index} out of range")
        squares.append((half, [Polynomial.variable(n, index) + 1]))
        for j in range(n):
            if j != index:
                squares.append((half, [Polynomial.variable(n, j)]))
        ball_scale = half
    else:
        root_half = ExtRational(0, Fraction(1, 2), n)  # sqrt(n)/2
        inv_root = ExtRational(0, Fraction(1, n), n)   # 1/sqrt(n)
        for i in range(n):
            squares.append((root_half, [Polynomial.variable(n, i) - inv_root]))
        ball_scale = root_half
    block = gram_from_squares(squares, n, 1)
    mults = [MultiplierTerm(ball_scale, PolyMatrix([[Polynomial.const(n, 1)]]))]
    return target, QMCertificate(n, 1, 1, 2, "exact", [block], mults)


def trivial_ball_witness(n: int) -> QMCertificate:
    """Witness 1 - ||x||^2 = 0 + 1 * (1 - ||x||^2) for G = [1 - ||x||^2]."""
    mult = MultiplierTerm(ONE, PolyMatrix([[Polynomial.const(n, 1)]]))
    return QMCertificate(n, 1, 1, 2, "exact", [], [mult])


# ---------------------------------------------------------------------------
# constructive pipeline: simplex positivity -> membership in QM[G]


def blocks_to_vector_squares(cert: QMCertificate):
    """Decompose the SOS blocks into weighted vector squares: a list of
    (pivot, column of ell polynomials) with sum pivot * v v^T = SOS part."""
    squares = []
    ell = cert.ell
    for block in cert.sos_blocks:
        cols, pivots = ldlt(block.gram)
        N = len(block.basis)
        for col, piv in zip(cols, pivots):
            vec = []
            for i in range(ell):
                terms = {
                    block.basis[u]: col[u * ell + i]
                    for u in range(N)
                    if not col[u * ell + i].is_zero()
                }
                vec.append(Polynomial(cert.nvars, terms))
            squares.append((piv, vec))
    return squares


def _blocks_to_squares(cert: QMCertificate):
    """Scalar-target specialization of blocks_to_vector_squares."""
    if cert.ell != 1:
        raise ValueError("expected a scalar certificate")
    return [(w, vec[0]) for w, vec in blocks_to_vector_squares(cert)]


@functools.lru_cache(maxsize=SHAPE_TABLE_SIZE)
def _facet_table(n: int) -> tuple:
    """The ball-module memberships (squares, ball scale) of the upper facet
    and then of the lower facets 1 + x_i, i < n, from facet_certificate."""
    table = []
    for kind, index in [("upper", 0)] + [("lower", i) for i in range(n)]:
        _, cert = facet_certificate(kind, n, index)
        table.append((tuple(_blocks_to_squares(cert)), cert.multipliers[0].scale))
    return tuple(table)


def _product_membership(alpha, t: int, n: int):
    """Membership of prod facets (upper^(t-|alpha|) * prod (1+x_i)^alpha_i)
    in the ball module: returns (squares, sigma_squares) with
    product = sum squares + (sum sigma_squares) * (1 - ||x||^2)."""
    g = ball_polynomial(n)
    facets = _facet_table(n)
    S = [(ONE, Polynomial.const(n, 1))]
    sigma = []
    multiset = [0] * (t - sum(alpha))
    for i, e in enumerate(alpha):
        multiset.extend([i + 1] * e)
    for idx in multiset:
        fs, fc = facets[idx]
        new_S = [(w1 * w2, q1 * q2) for w1, q1 in S for w2, q2 in fs]
        new_S += [(w * fc, q * g) for w, q in sigma]
        new_sigma = [(w * fc, q) for w, q in S]
        new_sigma += [(w1 * w2, q1 * q2) for w1, q1 in sigma for w2, q2 in fs]
        S, sigma = new_S, new_sigma
    return S, sigma


@functools.lru_cache(maxsize=SHAPE_TABLE_SIZE)
def _basis_memberships(n: int, t: int):
    """{alpha: (squares, sigma)}, read-only, for every alpha with |alpha| <= t:
    the degree-t Bernstein basis polynomial B_alpha = c_alpha b_alpha is
    sum w q^2 + (sum w' q'^2) (1 - ||x||^2), squares the tuple of (w, q) and
    sigma of (w', q'), the squares of _product_membership scaled by c_alpha.
    The squares of one q are one square at the exact sum of their weights,
    at the place of the first, and value-equal q are one object throughout
    the table: at n = 2, t = 6, 20,412 squares become 3,003 over 924
    polynomials."""
    base = ExtRational(n, 1, n) ** (-t) if t else ONE
    table, shared = {}, {}
    for alpha in monomials_upto(n, t):
        c_alpha = base * multinomial(t, alpha + (t - sum(alpha),))
        table[alpha] = tuple(_summed_squares(c_alpha, part, shared)
                             for part in _product_membership(alpha, t, n))
    return MappingProxyType(table)


def _summed_squares(c: ExtRational, squares, shared: dict) -> tuple:
    """The (c w, q) over the distinct q of squares in the order q first
    appears, w the sum of the weights of q's squares; q is shared's object
    of its value (added if new)."""
    summed = {}  # keyed by identity: q is shared's object
    for w, q in squares:
        q = shared.setdefault(q, q)
        prev = summed.get(id(q))
        summed[id(q)] = (w, q) if prev is None else (prev[0] + w, q)
    return tuple((c * w, q) for w, q in summed.values())


def assemble_simplex_putinar(
    F: SymPolyMatrix,
    G: SymPolyMatrix,
    ball_witness: QMCertificate,
    max_degree: int,
) -> QMCertificate:
    """Constructive certificate F in QM[G] for F positive definite on the
    scaled simplex, given a witness that 1 - ||x||^2 lies in QM[G].

    The positive-definite Bernstein expansion F = sum_alpha c_alpha b_alpha
    M_alpha (Polya engine) is expanded facet by facet: b_alpha, a product of
    facets, is a sum of scalar squares w q^2 plus sigma (1 - ||x||^2), and
    sigma's squares route through the supplied witness.  Those expansions
    depend on (n, t) only and are read from _basis_memberships, which keeps
    them for the last SHAPE_TABLE_SIZE shapes.  The SOS part is
    therefore sum_alpha A_alpha (x) M_alpha, A_alpha the Gram matrix of the
    scalar squares of c_alpha b_alpha on the graded-lex union of the
    monomials of every q (one _gram_sums call per alpha).  The Kronecker sum
    is one _accumulate call with one product item (A_alpha, M_alpha) per
    alpha: entry (u, v) of A_alpha is keyed (u ell) dim + v ell and entry
    (i, j) of M_alpha is keyed i dim + j, so a pair lands on entry
    (u ell + i, v ell + j) of the dim x dim Gram; a diagonal block (u = v)
    pairs with the upper triangle of M_alpha only.

    The multiplier terms are rank one in qmcert-v1.  A square w q^2 of the
    sigma of alpha contributes c_alpha w (P_t q)^T G (P_t q) (x) M_alpha for
    each witness term scale s_t P_t^T G P_t, so the squares with the same q
    share one sum N_q = sum c_alpha w M_alpha, positive definite as a
    positive combination of positive definite matrices.  One exact LDL^T of
    each N_q gives one term piv s_t, P = (P_t q) col^T per column col and
    witness term.  The result verifies exactly, and that final check is the
    check of record.
    """
    n = F.nvars
    ell = F.size
    ball = ball_constraint(n)
    # a witness's sphere term, which the assembly drops, fails here: 1 - ||x||^2 is not a form
    bw_report = verify_certificate(ball, G, ball_witness, mode="exact")
    if not bw_report.ok:
        raise ValueError(f"ball witness rejected: {bw_report.messages}")
    bw_squares = _blocks_to_squares(ball_witness)
    bw_mults = ball_witness.multipliers

    pc = polya_certificate(F, max_degree)
    table = _basis_memberships(n, pc.degree)
    expanded = []   # (M_alpha, scalar squares of c_alpha b_alpha)
    merged = {}     # q -> [(c_alpha w, M_alpha)] over the squares w q^2 of each sigma
    for alpha, mat in pc.expansion.items():
        squares, sigma = table[alpha]
        if bw_squares:
            squares = [*squares, *((w * ws, bs * q) for w, q in sigma for ws, bs in bw_squares)]
        for w, q in sigma:
            merged.setdefault(q, []).append((w, mat))
        expanded.append((mat, squares))

    out_mults = []
    for q, parts in merged.items():
        # N_q: one sum of the products c M_alpha, each keyed by position
        forms = [(_constant_form(c), _entry_form(M, ell)[0], None) for c, M in parts]
        cols, pivots = ldlt(_summed(ell, *_accumulate(forms)))
        pqs = [(term.scale, [row[0] * q for row in term.matrix.entries]) for term in bw_mults]
        for col, piv in zip(cols, pivots):
            for s, pq in pqs:
                out_mults.append(MultiplierTerm(piv * s, PolyMatrix([[p * c for c in col]
                                                                     for p in pq])))

    basis, index, width = _grlex_basis((q for _, squares in expanded for _, q in squares), n)
    N, dim = len(basis), len(basis) * ell
    items = []
    for M, squares in expanded:
        acc, D, rational = _gram_sums(((w, [q]) for w, q in squares), index, width, 1)
        # M_alpha's nonzero entries, the strictly lower ones first
        right, first_upper = _entry_form(M, dim, lower=True)
        if not acc or right is None:
            continue
        keys, starts = [], []
        for key in acc:
            u, v = divmod(key, N)
            keys.append(u * ell * dim + v * ell)
            starts.append(first_upper if u == v else 0)
        values = (tuple(acc.values()), None, None) if rational else tuple(zip(*acc.values()))
        items.append(((keys, *values, D), right, starts))
    block = SOSBlock(basis, _summed(dim, *_accumulate(items)))

    d_G = max(G.degree, 0)
    k = block.degree()
    for term in out_mults:
        k = max(k, 2 * max(term.matrix.degree, 0) + d_G)
    cert = QMCertificate(n, ell, G.size, k, "exact", [block], out_mults)
    report = verify_certificate(F, G, cert, mode="exact")
    if not report.ok:
        raise AssertionError(f"assembled certificate failed verification: {report.messages}")
    return cert


# ---------------------------------------------------------------------------
# verification


# Conversion steps that a residual norm may always take; past it, as many as
# cert, F and G hold coefficients.  At degree t the conversion visits each pair
# beta <= alpha of exponents with |alpha| <= t once per upper-triangle entry:
# C(2n + t, 2n) ell (ell + 1) / 2 steps.  At the floor a dense residual takes at
# most 0.46 s (n = 1, t = 243; 0.24 s at n = 2, t = 26) on a 2-core x86-64 with
# Python 3.11; the certificates of the tests and the benchmark need at most 210.
NORM_BUDGET_FLOOR = 30_000


def _coefficient_count(F: SymPolyMatrix, G: SymPolyMatrix, cert: QMCertificate) -> int:
    """Gram entries (lower triangles) plus polynomial terms held by cert, F and G."""
    grids = [F.entries, G.entries] + [term.matrix.entries for term in cert.multipliers]
    if cert.sphere_multiplier is not None:
        grids.append(cert.sphere_multiplier.entries)
    terms = sum(len(p._f[0]) for grid in grids for row in grid for p in row)
    return terms + sum(b.size() * (b.size() + 1) // 2 for b in cert.sos_blocks)


@dataclass
class VerifyReport:
    ok: bool
    residual_norm: float
    grams: list              # the Gram blocks checked
    messages: list = field(default_factory=list)

    @functools.cached_property
    def gram_margins(self) -> list:
        """The numeric least eigenvalue of each Gram block, computed when
        first read: an exact check decides without it."""
        return [min_eigenvalue_numeric(M) for M in self.grams]


def verify_certificate(
    F: SymPolyMatrix,
    G: SymPolyMatrix,
    cert: QMCertificate,
    mode: str = "exact",
    tol: float = 1e-8,
) -> VerifyReport:
    """Check F == cert.reconstruction(G), with cert's sphere term if it has
    one, and PSD-ness of the Gram blocks.  A sphere term proves F PSD on
    {G PSD} only for forms, F of positive degree, as homogenize lifts them:
    {G PSD} is then a cone, and F is PSD on it if it is on its unit sphere.

    exact mode: zero residual and exactly PSD Grams (LDL^T decision, no size
    cap); the report's gram_margins are then computed only if read.
    numeric mode: residual Bernstein norm <= tol and numeric Gram margins
    >= -tol.  Failed checks are reported, never raised.
    A residual whose conversion is past the norm budget (NORM_BUDGET_FLOOR)
    gets the norm inf uncomputed: numeric mode then fails naming its degree.
    A tol not finite and >= 0 raises ValueError; 0 is a strict numeric check.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    messages = []
    if F.size != cert.ell:
        messages.append(f"target size {F.size} != certificate size {cert.ell}")
    if G.size != cert.m:
        messages.append(f"constraint size {G.size} != certificate m {cert.m}")
    if F.nvars != cert.nvars or G.nvars != cert.nvars:
        messages.append("variable count mismatch")
    for idx, term in enumerate(cert.multipliers):
        if term.matrix.rows != G.size or term.matrix.cols != cert.ell:
            messages.append(f"multiplier {idx} has shape "
                            f"{term.matrix.rows}x{term.matrix.cols}")
        if term.matrix.nvars != cert.nvars:
            messages.append(f"multiplier {idx} is in {term.matrix.nvars} variables")
        if ExtRational.coerce(term.scale).sign() < 0:
            messages.append(f"multiplier {idx} has negative scale")
    H = cert.sphere_multiplier
    if H is not None and (H.size != cert.ell or H.nvars != cert.nvars):
        messages.append(f"sphere multiplier has size {H.size} in {H.nvars} variables")
    elif H is not None and not (F.degree != 0 and F.is_homogeneous_of(F.degree)
                                and G.is_homogeneous_of(G.degree)):
        messages.append("sphere multiplier needs F homogeneous of positive degree "
                        "and G homogeneous")
    if messages:
        return VerifyReport(False, math.inf, [], messages)

    recon = cert.reconstruction(G)
    if recon.degree > cert.k:
        messages.append(
            f"reconstruction degree {recon.degree} exceeds declared degree {cert.k}"
        )
        return VerifyReport(False, math.inf, [], messages)
    residual = SymPolyMatrix((F - recon).entries)
    rnorm, unnormed = 0.0, None
    if not residual.is_zero():
        t = residual.degree
        steps = math.comb(2 * cert.nvars + t, 2 * cert.nvars) * cert.ell * (cert.ell + 1) // 2
        budget = max(NORM_BUDGET_FLOOR, _coefficient_count(F, G, cert))
        if steps <= budget:
            rnorm = bernstein_norm(residual)
        else:
            rnorm = math.inf
            unnormed = (f"residual of degree {t} needs {steps} Bernstein conversion steps, "
                        f"past the budget of {budget}; its norm is not computed")
    grams = [block.gram for block in cert.sos_blocks]

    if mode == "exact":
        ok = residual.is_zero()
        if not ok:
            messages.append("nonzero residual")
        for idx, M in enumerate(grams):
            if not psd_exact(M):
                ok = False
                messages.append(f"gram block {idx} is not PSD")
        return VerifyReport(ok, rnorm, grams, messages)

    if mode != "numeric":
        raise ValueError(f"unknown mode {mode!r}")
    report = VerifyReport(rnorm <= tol, rnorm, grams, messages)
    if unnormed:
        messages.append(unnormed)
    elif not report.ok:
        messages.append(f"residual Bernstein norm {rnorm:.3g} exceeds tol {tol:.3g}")
    for idx, margin in enumerate(report.gram_margins):
        if margin < -tol:
            report.ok = False
            messages.append(f"gram block {idx} margin {margin:.3g} below -tol")
    return report


# ---------------------------------------------------------------------------
# serialization


def serialize(cert: QMCertificate) -> str:
    lines = ["qmcert-v1"]
    lines.append(f"mode {cert.mode}")
    lines.append(f"nvars {cert.nvars}")
    lines.append(f"size {cert.ell}")
    lines.append(f"constraint-size {cert.m}")
    lines.append(f"degree {cert.k}")
    lines.append(f"sos-blocks {len(cert.sos_blocks)}")
    for bi, block in enumerate(cert.sos_blocks):
        lines.append(f"block {bi} basis {len(block.basis)}")
        for beta in block.basis:
            lines.append(" ".join(str(e) for e in beta))
        lines.append("gram")
        lines.extend(lower_triangle_rows(block.gram))
    lines.append(f"multipliers {len(cert.multipliers)}")
    for mi, term in enumerate(cert.multipliers):
        lines.append(
            f"multiplier {mi} scale ({term.scale}) "
            f"rows {term.matrix.rows} cols {term.matrix.cols}"
        )
        for r in range(term.matrix.rows):
            for c in range(term.matrix.cols):
                lines.append(term.matrix[r, c].to_text())
    if cert.sphere_multiplier is not None:
        lines.append(f"sphere-multiplier {cert.sphere_multiplier.size}")
        H = cert.sphere_multiplier
        for r in range(H.size):
            for c in range(r, H.size):
                lines.append(H[r, c].to_text())
    else:
        lines.append("sphere-multiplier none")
    lines.append("end")
    return "\n".join(lines) + "\n"


def deserialize(text: str) -> QMCertificate:
    return LineReader(text).parse(_read_certificate, CertificateParseError)


def _read_certificate(r: LineReader) -> QMCertificate:
    r.literal("qmcert-v1")
    mode = r.rest("mode ")
    if mode not in ("exact", "numeric"):
        raise ValueError(f"unknown mode {mode!r}")
    # every basis and polynomial line names all nvars variables
    nvars = r.field("nvars ", r.chars_left())
    ell = r.field("size ", r.chars_left())
    m = r.field("constraint-size ")
    k = r.field("degree ")
    blocks = []
    for bi in range(r.field("sos-blocks ")):
        count = r.field(f"block {bi} basis ", r.lines_left())
        basis = [r.exponents(r.line("basis exponents"), nvars) for _ in range(count)]
        r.literal("gram")
        blocks.append(SOSBlock(basis, r.sym_matrix(count * ell, "gram")))
    mults = []
    for mi in range(r.field("multipliers ")):
        toks = r.rest(f"multiplier {mi} scale ").split()
        if len(toks) != 5 or toks[1::2] != ["rows", "cols"]:
            raise ValueError("expected '(scale) rows R cols C'")
        scale = _make(*r._parts(toks[0]))
        rows = r.natural(toks[2], "multiplier rows", r.lines_left())
        cols = r.natural(toks[4], "multiplier cols", r.lines_left())
        if rows * cols > r.lines_left():
            raise ValueError(f"{rows}x{cols} multiplier is too large for the rest of the file")
        entries = [[r.polynomial(nvars) for _ in range(cols)] for _ in range(rows)]
        mults.append(MultiplierTerm(scale, PolyMatrix(entries)))
    sphere = None
    declared = r.rest("sphere-multiplier ")
    if declared != "none":
        size = r.natural(declared, "sphere-multiplier", r.lines_left())
        upper = {(i, j): r.polynomial(nvars) for i in range(size) for j in range(i, size)}
        sphere = SymPolyMatrix.from_upper(size, upper, nvars)
    r.literal("end")
    return QMCertificate(nvars, ell, m, k, mode, blocks, mults, sphere)

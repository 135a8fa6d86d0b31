"""Quadratic-module membership certificates: data model, construction,
exact/numeric verification and text serialization.

A certificate for "F is in the quadratic module of G" consists of SOS blocks
(a monomial basis plus a PSD Gram matrix; for an l x l target the Gram acts
on basis (x) kron R^l) and multiplier terms scale * P^T G P with scale >= 0.
The scale generalizes the plain P^T G P form: positive constants such as
sqrt(n)/2 that the facet identities need are not sums of squares in
Q[sqrt(n)], so they ride along as explicit nonnegative weights.

All payloads are stored exactly (floats entering from numeric solvers are
dyadic rationals, hence exact); the mode flag only selects the verification
semantics: "exact" demands a zero residual and exactly PSD Grams, "numeric"
tolerates a residual of small Bernstein norm and slightly negative margins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .ring import ExtRational, ZERO, ONE, parse_ext_rational
from .algebra import (
    PolyMatrix,
    Polynomial,
    RationalSymMatrix,
    SymPolyMatrix,
    congruence,
    ldlt,
    min_eigenvalue_numeric,
    parse_polynomial,
    psd_exact,
)
from .bernstein import bernstein_norm
from .polya import polya_certificate


class CertificateParseError(ValueError):
    pass


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
    basis: list        # exponent tuples
    gram: list         # (N*ell) x (N*ell) grid of ExtRational, symmetric

    def size(self) -> int:
        return len(self.gram)

    def matrix(self) -> RationalSymMatrix:
        return RationalSymMatrix(self.gram)

    def to_sym_poly(self, nvars: int, ell: int) -> SymPolyMatrix:
        grid = [[Polynomial.zero(nvars) for _ in range(ell)] for _ in range(ell)]
        N = len(self.basis)
        for u in range(N):
            for v in range(N):
                mono = tuple(a + b for a, b in zip(self.basis[u], self.basis[v]))
                for i in range(ell):
                    for j in range(ell):
                        c = self.gram[u * ell + i][v * ell + j]
                        if not c.is_zero():
                            grid[i][j] = grid[i][j] + Polynomial(nvars, {mono: c})
        return SymPolyMatrix(grid)

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

    def sos_part(self) -> SymPolyMatrix:
        out = SymPolyMatrix.zero(self.ell, self.nvars)
        for block in self.sos_blocks:
            out = SymPolyMatrix(
                (out + block.to_sym_poly(self.nvars, self.ell)).entries
            )
        return out

    def reconstruction(self, G: SymPolyMatrix, sphere: bool = False) -> SymPolyMatrix:
        out = self.sos_part()
        for term in self.multipliers:
            contrib = congruence(term.matrix, G).scale(term.scale)
            out = SymPolyMatrix((out + contrib).entries)
        if sphere and self.sphere_multiplier is not None:
            r2 = -ball_polynomial(self.nvars)  # ||x||^2 - 1
            out = SymPolyMatrix(
                (out + self.sphere_multiplier.scale_poly(r2)).entries
            )
        return out


def gram_from_squares(squares, nvars: int, ell: int) -> SOSBlock:
    """Assemble sum_r w_r v_r v_r^T (w_r >= 0, v_r polynomial columns of
    length ell) into a single PSD Gram block."""
    monos = set()
    for _, col in squares:
        for p in col:
            monos.update(p.terms.keys())
    basis = sorted(monos, key=lambda a: (sum(a), a))
    if not basis:
        basis = [(0,) * nvars]
    index = {b: u for u, b in enumerate(basis)}
    N = len(basis)
    gram = [[ZERO] * (N * ell) for _ in range(N * ell)]
    for w, col in squares:
        w = ExtRational.coerce(w)
        if w.sign() < 0:
            raise ValueError("square weights must be nonnegative")
        vec = {}
        for i, p in enumerate(col):
            for mono, c in p.terms.items():
                vec[index[mono] * ell + i] = c
        items = sorted(vec.items())
        for a, ca in items:
            for b, cb in items:
                gram[a][b] = gram[a][b] + w * ca * cb
    return SOSBlock(basis, gram)


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

    Returns (facet polynomial, certificate); the residual is asserted zero.
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
    cert = QMCertificate(n, 1, 1, 2, "exact", [block], mults)
    report = verify_certificate(
        SymPolyMatrix.scalar(target), ball_constraint(n), cert, mode="exact"
    )
    if not report.ok:
        raise AssertionError(f"facet identity failed: {report.messages}")
    return target, cert


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
        cols, pivots = ldlt(block.matrix())
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


def _facet_membership(kind: str, n: int, index: int = 0):
    _, cert = facet_certificate(kind, n, index)
    squares = [(w, q) for w, q in _blocks_to_squares(cert)]
    ball_scale = cert.multipliers[0].scale
    return squares, ball_scale


def _product_membership(alpha, t: int, n: int, facet_cache):
    """Membership of prod facets (upper^(t-|alpha|) * prod (1+x_i)^alpha_i)
    in the ball module: returns (squares, sigma_squares) with
    product = sum squares + (sum sigma_squares) * (1 - ||x||^2)."""
    g = ball_polynomial(n)
    S = [(ONE, Polynomial.const(n, 1))]
    sigma = []
    multiset = [("upper", 0)] * (t - sum(alpha))
    for i, e in enumerate(alpha):
        multiset.extend([("lower", i)] * e)
    for kind, idx in multiset:
        fs, fc = facet_cache[(kind, idx)]
        new_S = [(w1 * w2, q1 * q2) for w1, q1 in S for w2, q2 in fs]
        new_S += [(w * fc, q * g) for w, q in sigma]
        new_sigma = [(w * fc, q) for w, q in S]
        new_sigma += [(w1 * w2, q1 * q2) for w1, q1 in sigma for w2, q2 in fs]
        S, sigma = new_S, new_sigma
    return S, sigma


def assemble_simplex_putinar(
    F: SymPolyMatrix,
    G: SymPolyMatrix,
    ball_witness: QMCertificate,
    max_degree: int,
) -> QMCertificate:
    """Constructive certificate F in QM[G] for F positive definite on the
    scaled simplex, given a witness that 1 - ||x||^2 lies in QM[G].

    The positive-definite Bernstein expansion of F (Polya engine) is expanded
    facet by facet: products of facet SOS parts stay SOS, occurrences of the
    ball polynomial route through the supplied witness, and the coefficient
    matrices enter through their exact LDL^T factorizations.  The result
    verifies exactly.
    """
    n = F.nvars
    ell = F.size
    ball = ball_constraint(n)
    bw_report = verify_certificate(ball, G, ball_witness, mode="exact")
    if not bw_report.ok:
        raise ValueError(f"ball witness rejected: {bw_report.messages}")
    bw_squares = _blocks_to_squares(ball_witness)
    bw_mults = ball_witness.multipliers

    pc = polya_certificate(F, max_degree)
    t = pc.degree

    facet_cache = {("upper", 0): _facet_membership("upper", n)}
    for i in range(n):
        facet_cache[("lower", i)] = _facet_membership("lower", n, i)

    scale_base = ExtRational(n, 1, n) ** (-t) if t else ONE
    matrix_squares = []
    out_mults = []
    for alpha, mat in pc.expansion.items():
        slack = t - sum(alpha)
        mult = math.factorial(t)
        for a in alpha:
            mult //= math.factorial(a)
        mult //= math.factorial(slack)
        c_alpha = scale_base * mult
        S, sigma = _product_membership(alpha, t, n, facet_cache)
        cols, pivots = ldlt(mat)
        columns = [
            ([Polynomial.const(n, c) for c in col], piv)
            for col, piv in zip(cols, pivots)
        ]
        for w, q in S:
            for col, piv in columns:
                matrix_squares.append((c_alpha * w * piv, [q * p for p in col]))
        for w, q in sigma:
            for col, piv in columns:
                scale = c_alpha * w * piv
                row = PolyMatrix([[q * p for p in col]])  # 1 x ell
                for ws, bs in bw_squares:
                    matrix_squares.append((scale * ws, [bs * q * p for p in col]))
                for term in bw_mults:
                    out_mults.append(
                        MultiplierTerm(scale * term.scale, term.matrix @ row)
                    )

    block = gram_from_squares(matrix_squares, n, ell)
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


@dataclass
class VerifyReport:
    ok: bool
    residual_norm: float
    gram_margins: list
    messages: list = field(default_factory=list)


def verify_certificate(
    F: SymPolyMatrix,
    G: SymPolyMatrix,
    cert: QMCertificate,
    mode: str = "exact",
    tol: float = 1e-8,
    sphere: bool = False,
) -> VerifyReport:
    """Check F == reconstruction(cert, G) and PSD-ness of the Gram blocks.

    exact mode: zero residual and exactly PSD Grams (LDL^T decision, no size
    cap).  numeric mode: residual Bernstein norm <= tol and numeric Gram
    margins >= -tol.  Failed checks are reported, never raised.
    """
    messages = []
    if F.size != cert.ell:
        messages.append(f"target size {F.size} != certificate size {cert.ell}")
    if G.size != cert.m:
        messages.append(f"constraint size {G.size} != certificate m {cert.m}")
    if F.nvars != cert.nvars:
        messages.append("variable count mismatch")
    for idx, term in enumerate(cert.multipliers):
        if term.matrix.rows != G.size or term.matrix.cols != cert.ell:
            messages.append(f"multiplier {idx} has shape "
                            f"{term.matrix.rows}x{term.matrix.cols}")
        if ExtRational.coerce(term.scale).sign() < 0:
            messages.append(f"multiplier {idx} has negative scale")
    if messages:
        return VerifyReport(False, math.inf, [], messages)

    recon = cert.reconstruction(G, sphere=sphere)
    if recon.degree > cert.k:
        messages.append(
            f"reconstruction degree {recon.degree} exceeds declared degree {cert.k}"
        )
        return VerifyReport(False, math.inf, [], messages)
    residual = SymPolyMatrix((F - recon).entries)
    margins = []
    for idx, block in enumerate(cert.sos_blocks):
        margins.append(min_eigenvalue_numeric(block.matrix()))

    if mode == "exact":
        ok = True
        if not residual.is_zero():
            ok = False
            messages.append("nonzero residual")
        for idx, block in enumerate(cert.sos_blocks):
            if not psd_exact(block.matrix()):
                ok = False
                messages.append(f"gram block {idx} is not PSD")
        rnorm = 0.0
        if not residual.is_zero():
            rnorm = bernstein_norm(residual)
        return VerifyReport(ok, rnorm, margins, messages)

    if mode != "numeric":
        raise ValueError(f"unknown mode {mode!r}")
    rnorm = 0.0 if residual.is_zero() else bernstein_norm(residual)
    ok = rnorm <= tol
    if not ok:
        messages.append(f"residual Bernstein norm {rnorm:.3g} exceeds tol {tol:.3g}")
    for idx, margin in enumerate(margins):
        if margin < -tol:
            ok = False
            messages.append(f"gram block {idx} margin {margin:.3g} below -tol")
    return VerifyReport(ok, rnorm, margins, messages)


# ---------------------------------------------------------------------------
# serialization


def _fmt_coeff(v: ExtRational) -> str:
    return f"({v})"


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
        for r in range(len(block.gram)):
            lines.append(" ".join(_fmt_coeff(block.gram[r][c]) for c in range(r + 1)))
    lines.append(f"multipliers {len(cert.multipliers)}")
    for mi, term in enumerate(cert.multipliers):
        lines.append(
            f"multiplier {mi} scale {_fmt_coeff(term.scale)} "
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


class _Reader:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def next(self, expect: str | None = None) -> str:
        if self.pos >= len(self.lines):
            raise CertificateParseError(
                f"line {self.pos + 1}: unexpected end of file"
                + (f" (expected {expect})" if expect else "")
            )
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def expect_prefix(self, prefix: str) -> list:
        line = self.next(prefix)
        if not line.startswith(prefix):
            raise CertificateParseError(
                f"line {self.pos}: expected {prefix!r}, got {line!r}"
            )
        return line[len(prefix):].split()


def _parse_coeff(token: str, where: str) -> ExtRational:
    if not (token.startswith("(") and token.endswith(")")):
        raise CertificateParseError(f"{where}: malformed coefficient {token!r}")
    return parse_ext_rational(token[1:-1])


def deserialize(text: str) -> QMCertificate:
    r = _Reader(text)
    if r.next("header") != "qmcert-v1":
        raise CertificateParseError("line 1: missing qmcert-v1 header")
    mode = r.expect_prefix("mode ")[0]
    nvars = int(r.expect_prefix("nvars ")[0])
    ell = int(r.expect_prefix("size ")[0])
    m = int(r.expect_prefix("constraint-size ")[0])
    k = int(r.expect_prefix("degree ")[0])
    nblocks = int(r.expect_prefix("sos-blocks ")[0])
    blocks = []
    for bi in range(nblocks):
        head = r.expect_prefix(f"block {bi} basis ")
        count = int(head[0])
        basis = []
        for _ in range(count):
            basis.append(tuple(int(tok) for tok in r.next("basis exponents").split()))
        if r.next("gram") != "gram":
            raise CertificateParseError(f"line {r.pos}: expected 'gram'")
        dim = count * ell
        gram = [[ZERO] * dim for _ in range(dim)]
        for row in range(dim):
            toks = r.next("gram row").split()
            if len(toks) != row + 1:
                raise CertificateParseError(
                    f"line {r.pos}: gram row {row} has {len(toks)} entries, expected {row + 1}"
                )
            for col, tok in enumerate(toks):
                v = _parse_coeff(tok, f"line {r.pos}")
                gram[row][col] = v
                gram[col][row] = v
        blocks.append(SOSBlock(basis, gram))
    nmult = int(r.expect_prefix("multipliers ")[0])
    mults = []
    for mi in range(nmult):
        toks = r.expect_prefix(f"multiplier {mi} scale ")
        scale = _parse_coeff(toks[0], f"line {r.pos}")
        rows = int(toks[2])
        cols = int(toks[4])
        entries = []
        for _ in range(rows):
            row = []
            for _ in range(cols):
                row.append(parse_polynomial(r.next("multiplier entry"), nvars))
            entries.append(row)
        mults.append(MultiplierTerm(scale, PolyMatrix(entries)))
    sphere_toks = r.expect_prefix("sphere-multiplier ")
    sphere = None
    if sphere_toks[0] != "none":
        size = int(sphere_toks[0])
        upper = {}
        for i in range(size):
            for j in range(i, size):
                upper[(i, j)] = parse_polynomial(r.next("sphere entry"), nvars)
        sphere = SymPolyMatrix.from_upper(size, upper, nvars)
    if r.next("end") != "end":
        raise CertificateParseError(f"line {r.pos}: missing 'end' marker")
    return QMCertificate(nvars, ell, m, k, mode, blocks, mults, sphere)

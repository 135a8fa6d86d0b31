"""Exact multivariate polynomials and symmetric polynomial matrices.

A Polynomial is kept in integers, the layout of FLINT's fmpq_poly: its
coefficients are numerators p + q sqrt(r) of Z[sqrt(r)] over one common
denominator L, the least one (L and all the p and q have no common factor),
and each monomial is packed into one int.  A monomial alpha of degree d in
n variables packs as d B^n + alpha_1 B^(n-1) + ... + alpha_n with B = 2^w,
so int order is graded-lex order and the monomial of a product is the int
sum of its factors'.  The field width w is the least 8 2^j with
d < 2^(w-1) for the polynomial's degree d (_width): the exponents of a
product of two polynomials of one width stay below 2^w, so no field carries
into the next.  A result whose degree needs another width is repacked, so
equal polynomials have equal packings.  The form is the only state: the
terms view {exponent tuple: ExtRational}, and through it coeff and
evaluate, is made from it on each read; FloatEvaluator, printing (through
ring.format_parts) and the public constructor (through
polynomial_from_parts) read the integers.

Every float value of polynomials comes from one evaluator, FloatEvaluator,
compiled once from a list of polynomials: the union of their monomials and
each coefficient as a float.  A call evaluates them all at a batch of
points, each value by the same IEEE operations in the same order whatever
batch its point sits in.  Polynomial.evaluate_float and
SymPolyMatrix.evaluate_float (over the upper triangle) compile one per
call; homogenize's sphere estimate keeps one for G^ and F~ together.

Every exact sum is one accumulator, _accumulate, keyed by packed monomials
over one common denominator, the lcm of those of its items: a sum of
polynomials, a product (every term pair), a sum of products (an entry of
A @ B, certify's fold of squares) and the upper triangle of a square
(certify's Gram assembly).  A term pair makes int products only: one when
both sides are rational, four with sqrt(r).  A product's terms come in the
order the ExtRational double loop first reaches them, a sum's in the order
of its operands.  RadicandMismatch is raised where ExtRational arithmetic
raises it: two coefficients with different irrational radicands
multiplied, or added into one monomial while its irrational part is
nonzero.

Matrices come in three flavours: general rectangular polynomial matrices
(PolyMatrix), exactly-symmetric square ones (SymPolyMatrix) and constant
symmetric matrices over the coefficient ring (RationalSymMatrix), which
carry the exact positive-semidefiniteness test.  A RationalSymMatrix is
held as its form (ps, qs, r, L): entry (i, j), i <= j, is (ps[i][j - i] +
qs[i][j - i] sqrt(r))/L, L the least common denominator and r the one
irrational radicand (0 if none).  One converter, _parts_matrix, makes it
from the integers (p, q, d, r) of the upper triangle for the constructor
(the route from ExtRational values only), LineReader.sym_matrix and relax's
float Grams; degree elevation and certify's sums (_summed: the Gram blocks
and the N_q) make forms directly.  The elimination behind ldlt and
psd_exact, certify's Kronecker operand (_entry_form) and Gram collapse, and
the printer lower_triangle_rows read them.  The form is the only state:
M[i, j], the grid entries and each float of to_numpy are made from it on each
read.  Two irrational radicands raise RadicandMismatch, naming the two least.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction
from itertools import chain, groupby, repeat, zip_longest
from operator import mul, or_

import numpy as np

from .ring import (ExtRational, ZERO, ONE, RadicandMismatch, _make, common_radicand,
                   format_parts, parse_parts, quotient, sign_of)

_gcd = math.gcd
_new = object.__new__


# ---------------------------------------------------------------------------
# packed monomials


def _width(degree: int) -> int:
    """Field width of a polynomial of this degree: the least w = 8 2^j with
    degree < 2^(w-1), so that two such degrees add below 2^w."""
    w = 8
    while degree >> (w - 1):
        w += w
    return w


def _pack(alpha, w: int) -> int:
    if w == 8:  # every exponent is below 128
        return sum(alpha) << 8 * len(alpha) | int.from_bytes(bytes(alpha), "big")
    key = sum(alpha)
    for e in alpha:
        key = key << w | e
    return key


def _unpack(key: int, n: int, w: int) -> tuple:
    fields = key & ((1 << w * n) - 1)
    if w == 8:
        return tuple(fields.to_bytes(n, "big"))
    mask = (1 << w) - 1
    return tuple(fields >> w * (n - 1 - i) & mask for i in range(n))


def _repacked(form: tuple, n: int, w: int, width: int) -> tuple:
    mons = tuple(_pack(_unpack(k, n, w), width) for k in form[0])
    return (mons,) + form[1:]


# ---------------------------------------------------------------------------
# polynomials


# an integer form (monomials, ps, qs, rs, L): coefficient k is
# (ps[k] + qs[k] sqrt(rs[k]))/L, with qs and rs None when all are rational
_ZERO_FORM = ((), (), None, None, 1)


class Polynomial:
    # nvars, the field width _w and the integer form _f are the state
    __slots__ = ("nvars", "_w", "_f")

    def __new__(cls, nvars: int, terms: dict | None = None):
        alphas, parts = [], []
        for alpha, coeff in (terms or {}).items():
            alpha = tuple(map(int, alpha))
            if len(alpha) != nvars:
                raise ValueError(f"exponent {alpha} has wrong length for nvars={nvars}")
            if alpha and min(alpha) < 0:
                raise ValueError(f"negative exponent in {alpha}")
            alphas.append(alpha)
            parts.append(ExtRational.coerce(coeff).parts())
        return polynomial_from_parts(nvars, alphas, parts)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return _poly(nvars, 8, _ZERO_FORM)

    @classmethod
    def const(cls, nvars: int, value) -> "Polynomial":
        return _poly(nvars, 8, _constant_form(ExtRational.coerce(value)))

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for nvars={nvars}")
        exp = [0] * nvars
        exp[index] = 1
        return _poly(nvars, 8, ((_pack(exp, 8),), (1,), None, None, 1))

    # -- queries ----------------------------------------------------------

    @property
    def terms(self) -> dict:
        """{exponent tuple: ExtRational} in term order, built on each read."""
        mons, ps, qs, rs, den = self._f
        n, w = self.nvars, self._w
        if qs is None:
            qs = rs = repeat(0)
        return {_unpack(k, n, w): _make(p, q, den, r)
                for k, p, q, r in zip(mons, ps, qs, rs)}

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        mons = self._f[0]
        return max(mons) >> self._w * self.nvars if mons else -1

    def is_zero(self) -> bool:
        return not self._f[0]

    def coeff(self, alpha) -> ExtRational:
        return self.terms.get(tuple(alpha), ZERO)

    # -- arithmetic -------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable count mismatch: {self.nvars} vs {other.nvars}"
            )

    def __add__(self, other):
        return self._sum(other, False)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.nvars, self._w, _negated(self._f))

    def __sub__(self, other):
        return self._sum(other, True)

    def __rsub__(self, other):
        return (-self) + other

    def _sum(self, other, negate: bool) -> "Polynomial":
        """self + other, or self - other with negate; other a Polynomial or a
        scalar."""
        if isinstance(other, Polynomial):
            self._check(other)
            g, gw = other._f, other._w
        else:
            g, gw = _constant_form(ExtRational.coerce(other)), 8
        if negate:
            g = _negated(g)
        n, w = self.nvars, max(self._w, gw)
        # a zero operand: the other one, as a new polynomial
        if not g[0]:
            return _poly(n, self._w, self._f)
        if not self._f[0]:
            return _poly(n, gw, g)
        f = self._f if self._w == w else _repacked(self._f, n, self._w, w)
        if gw != w:
            g = _repacked(g, n, gw, w)
        return _finish(n, w, *_accumulate([(f, None, None), (g, None, None)]))

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            scalar = ExtRational.coerce(other)
            if scalar == ONE:
                return self
            return _build(self.nvars, self._w, *_scaled(self._f, scalar.parts()))
        self._check(other)
        f, g = self._f[0], other._f[0]
        if len(f) > 1 and len(g) > 1:
            return _sum_of_products(self.nvars, [(self, other)])
        if not f or not g:
            return Polynomial.zero(self.nvars)
        # a one-term operand is a scalar times a monomial shift; with the
        # scalar 1 only the exponents move
        short, long = (self, other) if len(f) == 1 else (other, self)
        w = max(self._w, other._w)
        (mono,), (p,), q, r, den = _at(short, w)
        form = _at(long, w)
        if mono:
            form = (tuple([k + mono for k in form[0]]),) + form[1:]
        if p == den and not q:
            return _canonical(self.nvars, w, form)
        return _build(self.nvars, w, *_scaled(form, (p, q and q[0], den, r and r[0])))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        if not k:
            return Polynomial.const(self.nvars, 1)
        out, base = None, self
        while True:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if not k:
                return out
            base = base * base

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Polynomial):
            return NotImplemented
        f, g = self._f, other._f
        if (self.nvars != other.nvars or f[4] != g[4] or len(f[0]) != len(g[0])
                or (f[2] is None) != (g[2] is None)):
            return False
        if f[0] == g[0]:
            return f[1:4] == g[1:4]
        return _coeff_map(f) == _coeff_map(g)

    def __hash__(self):
        return hash((self.nvars, self._f[4], frozenset(_coeff_map(self._f).items())))

    # -- evaluation and substitution --------------------------------------

    def evaluate(self, point) -> ExtRational:
        point = [ExtRational.coerce(p) for p in point]
        if len(point) != self.nvars:
            raise ValueError(
                f"point has {len(point)} coordinates, expected {self.nvars}"
            )
        total = ZERO
        for alpha, c in self.terms.items():
            val = c
            for x, e in zip(point, alpha):
                if e:
                    val = val * x**e
            total = total + val
        return total

    def evaluate_float(self, point):
        """Float value at one point (n,), or an array of values at each row of
        a (P, n) batch of points."""
        pts = np.asarray(point, dtype=float)
        total = FloatEvaluator(self.nvars, [self])(np.atleast_2d(pts))[0]
        return float(total[0]) if pts.ndim == 1 else total

    def homogenize(self, target_degree: int) -> "Polynomial":
        """Return x0^target * p(x/x0) in nvars+1 variables (x0 first)."""
        d = self.degree
        if target_degree < d:
            raise ValueError(
                f"target degree {target_degree} below polynomial degree {d}"
            )
        n, w = self.nvars, self._w
        mons = self._f[0]
        width = _width(target_degree) if mons else 8
        if width == w:
            low = (1 << w * n) - 1
            top = target_degree << w * (n + 1)
            mons = tuple([top | (target_degree - (k >> w * n)) << w * n | k & low
                          for k in mons])
        else:
            mons = tuple([_pack((target_degree - sum(a),) + a, width)
                          for a in (_unpack(k, n, w) for k in mons)])
        return _poly(n + 1, width, (mons,) + self._f[1:])

    def dehomogenize(self) -> "Polynomial":
        """Substitute 1 for the first variable and drop it."""
        if self.nvars < 1:
            raise ValueError("no variable to dehomogenize")
        n, w = self.nvars, self._w
        mons, ps, qs, rs, den = self._f
        shift = w * (n - 1)
        low, field = (1 << shift) - 1, (1 << w) - 1
        mons = [(k >> w * n) - (k >> shift & field) << shift | k & low for k in mons]
        return _finish(n - 1, w, *_accumulate([((mons, ps, qs, rs, den), None, None)]))

    # -- text form --------------------------------------------------------

    def to_text(self) -> str:
        """Canonical form: '(coeff) * x1^e1*...*xn^en' terms, graded-lex."""
        mons, ps, qs, rs, den = self._f
        n, w = self.nvars, self._w
        if not mons:
            mono = "*".join(f"x{i + 1}^0" for i in range(n)) or "1"
            return f"(0/1) * {mono}"
        # one {} per exponent; packed keys order as graded-lex
        mono = "*".join([f"x{i}^{{}}" for i in range(1, n + 1)]) or "1"
        low = (1 << w * n) - 1
        if qs is None:
            qs = rs = (0,) * len(mons)
        parts = []
        for k in sorted(range(len(mons)), key=mons.__getitem__, reverse=True):
            exps = (mons[k] & low).to_bytes(n, "big") if w == 8 else _unpack(mons[k], n, w)
            parts.append(f"({format_parts(ps[k], qs[k], den, rs[k])}) * {mono.format(*exps)}")
        return " + ".join(parts)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"Polynomial<{self.nvars}>({self.to_text()})"


# the slots' own setters, past the __setattr__ guard
_set_nvars = Polynomial.nvars.__set__
_set_w = Polynomial._w.__set__
_set_f = Polynomial._f.__set__


def _poly(nvars: int, w: int, form: tuple) -> Polynomial:
    poly = _new(Polynomial)
    _set_nvars(poly, nvars)
    _set_w(poly, w)
    _set_f(poly, form)
    return poly


def _packed(alphas, nvars: int) -> tuple:
    """(w, monomials): the nonempty exponent tuples alphas packed at the
    width of their largest degree."""
    try:  # _pack at width 8, inline: the degree is the top byte
        mons = tuple([int.from_bytes(bytes((sum(a), *a)), "big") for a in alphas])
        top = max(mons) >> 8 * nvars
    except ValueError:  # a degree past a byte
        top = max(map(sum, alphas))
    if top < 128:
        return 8, mons
    w = _width(top)
    return w, tuple([_pack(a, w) for a in alphas])


def _over_lcm(ps, qs, ds, rs) -> tuple:
    """(ps, qs, rs, L): the values (ps[k] + qs[k] sqrt(rs[k]))/ds[k] over L,
    the lcm of the ds; qs and rs None when every qs[k] is 0."""
    if len(ds) == 1:
        return (ps[0],), (qs[0],) if qs[0] else None, (rs[0],) if qs[0] else None, ds[0]
    L = math.lcm(*ds)
    rational = not any(qs)
    if ds.count(L) != len(ds):
        scales = [L // d for d in ds]
        ps = map(mul, ps, scales)
        if not rational:
            qs = map(mul, qs, scales)
    if rational:
        return tuple(ps), None, None, L
    return tuple(ps), tuple(qs), tuple(rs), L


def _canonical(nvars: int, w: int, form: tuple) -> Polynomial:
    """The Polynomial of a reduced form packed at width w, repacked if its
    degree calls for another width; the zero polynomial at width 8."""
    mons = form[0]
    if mons:
        top = max(mons) >> w * nvars
        if top >> (w - 1) or (w > 8 and not top >> (w // 2 - 1)):
            width = _width(top)
            return _poly(nvars, width, _repacked(form, nvars, w, width))
    return _poly(nvars, w if mons else 8, form)


def _build(nvars: int, w: int, mons, ps, qs, rs, den: int) -> Polynomial:
    """The Polynomial of numerators over den at width w: terms with p = q = 0
    dropped, a radicand only where q != 0, and the common factor of den and
    the numerators divided out."""
    if qs is not None and any(qs):
        if 0 in map(or_, ps, qs):  # p | q is 0 only when both are
            mons, ps, qs, rs = zip(*[t for t in zip(mons, ps, qs, rs) if t[1] or t[2]])
        rs = tuple(map(mul, rs, map(bool, qs)))  # 0 where q is
        g = _gcd(den, *ps, *qs)
        if g != 1:
            qs = [q // g for q in qs]
        qs = tuple(qs)
    else:
        qs = rs = None
        if 0 in ps:
            mons = [k for k, p in zip(mons, ps) if p]
            ps = [p for p in ps if p]
        g = _gcd(den, *ps)
    if g != 1:
        ps = [p // g for p in ps]
        den //= g
    return _canonical(nvars, w, (tuple(mons), tuple(ps), qs, rs, den))


def _finish(nvars: int, w: int, acc: dict, den: int, rational: bool) -> Polynomial:
    """The Polynomial of an _accumulate result."""
    if rational:
        return _build(nvars, w, acc.keys(), tuple(acc.values()), None, None, den)
    if not acc:
        return Polynomial.zero(nvars)
    return _build(nvars, w, acc.keys(), *zip(*acc.values()), den)


def _constant_form(c: ExtRational) -> tuple:
    if not c:
        return _ZERO_FORM
    p, q, d, r = c.parts()
    return (0,), (p,), (q,) if q else None, (r,) if q else None, d


def _negated(form: tuple) -> tuple:
    mons, ps, qs, rs, den = form
    return mons, tuple([-p for p in ps]), qs and tuple([-q for q in qs]), rs, den


def _coeff_map(form: tuple) -> dict:
    mons, ps, qs, rs, _ = form
    return dict(zip(mons, ps if qs is None else zip(ps, qs, rs)))


def _at(poly: Polynomial, w: int) -> tuple:
    """The integer form of poly packed at width w >= poly._w."""
    if poly._w == w:
        return poly._f
    return _repacked(poly._f, poly.nvars, poly._w, w)


def _scaled(form: tuple, scale: tuple) -> tuple:
    """(monomials, ps, qs, rs, den) of (sp + sq sqrt(sr))/sd times form, for
    scale = (sp, sq, sd, sr), unreduced.  An irrational scale and an
    irrational coefficient of another radicand raise RadicandMismatch, as
    ExtRational multiplication does."""
    mons, ps, qs, rs, den = form
    sp, sq, sd, sr = scale
    if not sq:
        return mons, [p * sp for p in ps], qs and [q * sp for q in qs], rs, den * sd
    if qs is None:
        return mons, [p * sp for p in ps], [p * sq for p in ps], [sr] * len(ps), den * sd
    xs, ys = [], []
    for p, q, r in zip(ps, qs, rs):
        if q and r != sr:
            common_radicand(r, sr)
        xs.append(p * sp + q * sq * sr)
        ys.append(p * sq + q * sp)
    return mons, xs, ys, [sr] * len(ps), den * sd


# the constant 1 at packed key 0 as the one right term (key, p, q, r) of a
# plain sum
_UNIT = [(0, 1, 0, 0)]


def _accumulate(items) -> tuple:
    """(acc, D, rational): one exact sum of items over D, the lcm of their
    denominators.  An item (f, g, starts) holds integer forms: (f, None,
    None) adds f, (f, g, None) the product f g over every term pair, and
    (f, g, starts) the pairs (k, l) with l >= starts[k] only.  For a square
    v v^T with starts[k] the first term of k's group, the terms that share
    a key offset, that is its upper triangle: a group pairs with itself in
    both orders, its mirrored pairs on one key, and with later groups once.
    starts[k] = k gives the upper triangle of a matrix keyed by position.

    acc maps each key, in the order first reached, to its numerator P over
    D when every form is rational (rational is then True), else to
    [P, Q, R] with R the radicand of the irrational part so far;
    numerators that cancel stay as zeros.  A sum of monomial keys never
    carries between exponent fields when f and g are packed at one width w
    and their degrees are below 2^(w-1), which _width ensures."""
    dens = []
    rational = True
    for f, g, _ in items:
        if g is None:
            dens.append(f[4])
            rational = rational and f[2] is None
        else:
            dens.append(f[4] * g[4])
            rational = rational and f[2] is None and g[2] is None
    D = math.lcm(*dens)
    acc = {}
    get = acc.get
    for (f, g, starts), den in zip(items, dens):
        fm, fp, fq, fr, _ = f
        scale = D // den
        if scale != 1:
            fp = [p * scale for p in fp]
        if rational and g is None:
            for a, x in zip(fm, fp):
                acc[a] = get(a, 0) + x
            continue
        if rational:
            right = list(zip(g[0], g[1]))
            cols = (fm, fp)
        else:
            if fq is None:
                fq = fr = repeat(0)
            elif scale != 1:
                fq = [q * scale for q in fq]
            if g is None:
                right = _UNIT
            else:
                gq = g[2] or repeat(0)
                right = list(zip(g[0], g[1], gq, g[3] or gq))
            cols = (fm, fp, fq, fr)
        # a row is a term of f and the terms of g it pairs with
        if starts is None:
            rows = zip(*cols, repeat(right))
        else:
            rows = zip(*cols, map(right.__getitem__, map(slice, starts, repeat(None))))
        if rational:
            for a, x, pairs in rows:
                for b, y in pairs:
                    key = a + b
                    acc[key] = get(key, 0) + x * y
            continue
        for a, pa, qa, ra, pairs in rows:
            for b, pb, qb, rb in pairs:
                if qa and qb:
                    r = ra if ra == rb else common_radicand(ra, rb)
                    x, y = pa * pb + qa * qb * r, pa * qb + qa * pb
                else:
                    r = rb if qb else ra
                    x, y = pa * pb, pa * qb + qa * pb
                key = a + b
                cur = get(key)
                if cur is None:
                    acc[key] = [x, y, r if y else 0]
                    continue
                if y:
                    if cur[1] and cur[2] != r:
                        common_radicand(cur[2], r)
                    cur[2] = r
                cur[0] += x
                cur[1] += y
    return acc, D, rational


def _sum_of_products(nvars: int, pairs) -> Polynomial:
    """sum f g over the pairs (f, g) of nonzero Polynomials in nvars
    variables, packed at the widest width among them."""
    w = max([max(f._w, g._w) for f, g in pairs], default=8)
    return _finish(nvars, w, *_accumulate([(_at(f, w), _at(g, w), None) for f, g in pairs]))


class FloatEvaluator:
    """The float values of polynomials in nvars variables at the rows of a
    batch of points, compiled once: the union of their monomials closed
    under dropping the last factor, and each coefficient the float() of
    (p + q sqrt(r))/L, read as p/L + q/L sqrt(r) (RationalSymMatrix.to_numpy).

    A call makes the monomial values degree by degree along a leading axis,
    each its parent's value (the monomial less one factor of its last
    variable) times that variable, from 1.0 at degree 0: so each is 1.0
    times its variables in order, each repeated by its exponent.  (numpy's
    power may take a SIMD or a scalar pow by array layout, and the two
    differ in the last bit.)  The polynomials are summed term slot by term
    slot in term order from 0.0; one with fewer terms adds the zero row,
    which leaves a sum begun at +0.0 unchanged.  A reduction over the slot
    axis would reorder the sum by batch size.  So each value is the same
    IEEE operations in the same order whatever batch its point sits in."""

    __slots__ = ("_count", "_rows", "_levels", "_slots")

    def __init__(self, nvars: int, polys):
        terms = []  # per polynomial: [(exponents, coefficient)] in term order
        parents = {(0,) * nvars: None}  # monomial: (its parent, the variable)
        for poly in polys:
            mons, ps, qs, rs, den = poly._f
            if qs is None:
                coeffs = [p / den for p in ps]
            else:
                coeffs = [p / den + q / den * math.sqrt(r) for p, q, r in zip(ps, qs, rs)]
            exps = [_unpack(key, nvars, poly._w) for key in mons]
            terms.append(list(zip(exps, coeffs)))
            for alpha in exps:
                while alpha not in parents:
                    last = max(i for i, e in enumerate(alpha) if e)
                    parent = alpha[:last] + (alpha[last] - 1,) + alpha[last + 1:]
                    parents[alpha] = parent, last
                    alpha = parent
        order = sorted(parents, key=sum)  # a degree is one slice after its parents
        index = {alpha: row for row, alpha in enumerate(order)}
        index[None] = len(order)  # the zero row
        self._count = len(terms)
        self._rows = len(order) + 1
        self._levels = []  # (first row, row past the last, parent rows, variables)
        lo = 1
        for _, level in groupby(order[1:], key=sum):
            level = [parents[alpha] for alpha in level]
            self._levels.append((lo, lo + len(level), np.array([index[p] for p, _ in level]),
                                 np.array([i for _, i in level])))
            lo += len(level)
        self._slots = [(np.array([index[alpha] for alpha, _ in slot]),
                        np.array([[c] for _, c in slot]))
                       for slot in zip_longest(*terms, fillvalue=(None, 0.0))]

    def __call__(self, batch: np.ndarray) -> np.ndarray:
        """The (polynomials, P) values at the rows of the (P, nvars) batch."""
        points = len(batch)
        coords = batch.T
        mono = np.empty((self._rows, points))
        mono[0] = 1.0
        mono[-1] = 0.0
        for lo, hi, parents, variables in self._levels:
            level = mono[lo:hi]
            mono.take(parents, 0, level, "clip")
            level *= coords[variables]
        total = np.zeros((self._count, points))
        term = np.empty((self._count, points))
        for rows, coeffs in self._slots:
            mono.take(rows, 0, term, "clip")  # rows in range; "raise" copies via a buffer
            term *= coeffs
            total += term
        return total


@functools.cache
def _stack_index(size: int) -> np.ndarray:
    """Entry (i, j) of a size x size symmetric matrix, row by row, as an
    index into its upper triangle, row by row; read-only, as it is shared."""
    index = np.array([min(i, j) * (2 * size - min(i, j) + 1) // 2 + abs(j - i)
                      for i in range(size) for j in range(size)], dtype=np.intp)
    index.flags.writeable = False
    return index


def _symmetric_stack(values: np.ndarray, size: int) -> np.ndarray:
    """The (P, size, size) stack of symmetric matrices from the (E, P)
    values of their upper triangles, row by row."""
    return values.T[:, _stack_index(size)].reshape(values.shape[1], size, size)


def _is_natural(token: str) -> bool:
    """A non-negative integer written in ASCII decimal digits only."""
    return token.isascii() and token.isdigit()


# a monomial factor x<digits>^<digits>, ASCII digits only
_FACTOR = re.compile(r"x([0-9]+)\^([0-9]+)").fullmatch


def parse_polynomial(text: str, nvars: int, coefficients: dict | None = None) -> Polynomial:
    """Inverse of Polynomial.to_text.  The coefficients are read as integers
    straight into the integer form; a monomial written twice is summed.
    coefficients, if given, maps each coefficient text already read to its
    parse_parts and takes the new ones."""
    if coefficients is None:
        coefficients = {}
    alphas, parts = [], []
    for chunk in text.split(" + "):
        chunk = chunk.strip()
        if not chunk:
            continue
        if not chunk.startswith("("):
            raise ValueError(f"malformed term {chunk!r}: missing coefficient parens")
        close = chunk.rindex(")")  # the coefficient itself may contain 'sqrt(n)'
        coeff = chunk[1:close]
        value = coefficients.get(coeff)
        if value is None:
            value = coefficients[coeff] = parse_parts(coeff)
        parts.append(value)
        rest = chunk[close + 1 :].lstrip(" *")
        exps = [None] * nvars
        if rest and rest != "1":
            for factor in rest.split("*"):
                m = _FACTOR(factor)
                if m is None:
                    raise ValueError(f"malformed monomial factor {factor!r}")
                var, exp = m.groups()
                idx = int(var) - 1
                if not 0 <= idx < nvars:
                    raise ValueError(f"variable x{var} out of range")
                if exps[idx] is not None:
                    raise ValueError(f"variable x{var} repeated in one monomial")
                exps[idx] = int(exp)
        alphas.append(tuple([e or 0 for e in exps]))
    # every exponent is a checked natural, nvars of them
    return polynomial_from_parts(nvars, alphas, parts)


def polynomial_from_parts(nvars: int, alphas: list, parts: list) -> Polynomial:
    """The polynomial sum_k (p + q sqrt(r))/d x^alphas[k] for the integers
    (p, q, d, r) = parts[k] of ring.parse_parts; each alpha is nvars
    naturals, checked by the caller, and a repeated one is summed."""
    if not alphas:
        return Polynomial.zero(nvars)
    w, mons = _packed(alphas, nvars)
    ps, qs, rs, L = _over_lcm(*zip(*parts))
    if len(set(mons)) == len(mons):
        return _build(nvars, w, mons, ps, qs, rs, L)
    return _finish(nvars, w, *_accumulate([((mons, ps, qs, rs, L), None, None)]))


def lower_triangle_rows(M: RationalSymMatrix) -> list:
    """Row i of M as its first i + 1 entries, each a '(coeff)' token printed
    from the form: the lines LineReader.sym_matrix reads back."""
    ps, qs, r, L = M._f
    return [" ".join([f"({format_parts(ps[j][i - j], qs[j][i - j], L, r)})" for j in range(i + 1)])
            for i in range(M.size)]


class LineReader:
    """Cursor over the lines of a certificate text (.qmc, .bexp, .polya).

    The read methods raise ValueError; parse() reports it as 'line N: ...',
    N the 1-based number of the line being read.  A declared size is checked
    against the text that remains before anything of that size is built.

    memo maps each polynomial line (with its nvars) already parsed to its
    Polynomial, so a repeated line is parsed once and is the same object.
    coefficients maps each coefficient text read, inside '(...)', in a
    polynomial line, a matrix row or a multiplier scale, to its parse_parts
    integers.  Only parses that succeeded are kept, so a malformed line or
    token fails at its first occurrence; each memo holds at most one entry
    per line or token of the text.
    """

    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0  # lines consumed; the last one read is line self.pos
        self.memo = {}
        self.coefficients = {}

    def parse(self, read, error: type):
        """read(self), with each ValueError re-raised as error('line N: ...')."""
        try:
            return read(self)
        except ValueError as exc:
            raise error(f"line {self.pos}: {exc}") from None

    def lines_left(self) -> int:
        return len(self.lines) - self.pos

    def chars_left(self) -> int:
        return sum(map(len, self.lines[self.pos:]))

    def line(self, expect: str) -> str:
        self.pos += 1
        if self.pos > len(self.lines):
            raise ValueError(f"unexpected end of file (expected {expect})")
        return self.lines[self.pos - 1]

    def rest(self, prefix: str) -> str:
        """What follows a required prefix on the next line."""
        line = self.line(repr(prefix))
        if not line.startswith(prefix):
            raise ValueError(f"expected {prefix!r}, got {line!r}")
        return line[len(prefix):]

    def literal(self, text: str) -> None:
        if self.rest(text):
            raise ValueError(f"expected {text!r}, got {self.lines[self.pos - 1]!r}")

    def natural(self, token: str, what: str, limit: int | None = None) -> int:
        """A non-negative decimal integer, at most limit."""
        if not _is_natural(token):
            raise ValueError(f"{what}: expected a non-negative integer, got {token!r}")
        value = int(token)
        if limit is not None and value > limit:
            raise ValueError(f"{what} {value} is too large for the rest of the file")
        return value

    def field(self, prefix: str, limit: int | None = None) -> int:
        """The integer N of a line 'prefix N', at most limit."""
        return self.natural(self.rest(prefix), prefix.strip(), limit)

    def exponents(self, text: str, nvars: int | None = None) -> tuple:
        """Whitespace-separated exponents, exactly nvars of them if given."""
        alpha = tuple(self.natural(tok, "exponent") for tok in text.split())
        if nvars is not None and len(alpha) != nvars:
            raise ValueError(f"expected {nvars} exponents, got {len(alpha)}")
        return alpha

    def _parts(self, token: str) -> tuple:
        """The parse_parts integers of a '(coeff)' token."""
        if not (token.startswith("(") and token.endswith(")")):
            raise ValueError(f"malformed coefficient {token!r}")
        text = token[1:-1]
        value = self.coefficients.get(text)
        if value is None:
            value = self.coefficients[text] = parse_parts(text)
        return value

    def polynomial(self, nvars: int) -> Polynomial:
        """A polynomial line; every written term names all nvars variables, so
        a line holds at most len(line) / nvars terms (this keeps the parse,
        which builds nvars exponents per term, linear in the line)."""
        line = self.line("a polynomial")
        key = (line, nvars)
        value = self.memo.get(key)
        if value is None:
            if (line.count(" + ") + 1) * max(nvars, 1) > len(line):
                raise ValueError(f"more terms than fit on a line in {nvars} variables")
            value = self.memo[key] = parse_polynomial(line, nvars, self.coefficients)
        return value

    def sym_matrix(self, dim: int, what: str) -> RationalSymMatrix:
        """A symmetric dim x dim matrix of '(coeff)' tokens written as its
        lower triangle, row r on one line of r + 1 tokens, made from the
        tokens' integers: upper row i is token i of rows i, i + 1, ..."""
        if dim > self.lines_left():
            raise ValueError(f"{what} size {dim} is too large for the rest of the file")
        rows = []
        for r in range(dim):
            toks = self.line(f"{what} row").split()
            if len(toks) != r + 1:
                raise ValueError(f"{what} row {r} has {len(toks)} entries, expected {r + 1}")
            rows.append([self._parts(tok) for tok in toks])
        return _parts_matrix(dim, [rows[j][i] for i in range(dim) for j in range(i, dim)])


def multinomial(total: int, parts) -> int:
    """total! / prod(p! for p in parts); the parts sum to total."""
    out = math.factorial(total)
    for p in parts:
        out //= math.factorial(p)
    return out


def monomials_upto(nvars: int, degree: int) -> list:
    """All exponent tuples with |alpha| <= degree, in graded-lex order: degree
    by degree, each degree in ascending lex order, so the list up to a lower
    degree is a prefix.  The tuples of degree d in the last m variables are
    a followed by those of degree d - a in the last m - 1, for a = 0..d,
    built from one variable up."""
    if not nvars:
        return [()]
    tails = [[(d,)] for d in range(degree + 1)]  # the last variable alone
    for _ in range(nvars - 1):
        tails = [[(a,) + rest for a in range(d + 1) for rest in tails[d - a]]
                 for d in range(degree + 1)]
    return [alpha for level in tails for alpha in level]


# ---------------------------------------------------------------------------
# polynomial matrices


class PolyMatrix:
    __slots__ = ("rows", "cols", "nvars", "entries")

    def __init__(self, entries):
        entries = [list(row) for row in entries]
        if not entries or not entries[0]:
            raise ValueError("empty matrix")
        rows = len(entries)
        cols = len(entries[0])
        nvars = entries[0][0].nvars
        for row in entries:
            if len(row) != cols:
                raise ValueError("ragged matrix")
            for p in row:
                if not isinstance(p, Polynomial) or p.nvars != nvars:
                    raise ValueError("entries must be polynomials in the same variables")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    @classmethod
    def _of(cls, entries: list, nvars: int) -> "PolyMatrix":
        """Internal results: entries is a nonempty rectangular list of lists
        of Polynomials in nvars variables, kept as it is."""
        out = _new(cls)
        for name, value in (("rows", len(entries)), ("cols", len(entries[0])),
                            ("nvars", nvars), ("entries", entries)):
            object.__setattr__(out, name, value)
        return out

    @classmethod
    def zero(cls, rows: int, cols: int, nvars: int) -> "PolyMatrix":
        z = Polynomial.zero(nvars)
        return cls([[z for _ in range(cols)] for _ in range(rows)])

    @classmethod
    def identity(cls, size: int, nvars: int) -> "PolyMatrix":
        one = Polynomial.const(nvars, 1)
        z = Polynomial.zero(nvars)
        return cls([[one if i == j else z for j in range(size)] for i in range(size)])

    @classmethod
    def column(cls, polys) -> "PolyMatrix":
        return cls([[p] for p in polys])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    @property
    def degree(self) -> int:
        return max(p.degree for row in self.entries for p in row)

    def transpose(self) -> "PolyMatrix":
        return PolyMatrix._of([list(col) for col in zip(*self.entries)], self.nvars)

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return PolyMatrix._of([[p + q for p, q in zip(row, other_row)]
                               for row, other_row in zip(self.entries, other.entries)],
                              self.nvars)

    def __sub__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return PolyMatrix._of([[p - q for p, q in zip(row, other_row)]
                               for row, other_row in zip(self.entries, other.entries)],
                              self.nvars)

    def scale(self, c) -> "PolyMatrix":
        return PolyMatrix._of([[p * c for p in row] for row in self.entries], self.nvars)

    def scale_poly(self, q: Polynomial) -> "PolyMatrix":
        return PolyMatrix._of([[p * q for p in row] for row in self.entries], self.nvars)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")
        if self.cols == 1:
            return PolyMatrix._of(
                [[row[0] * p for p in other.entries[0]] for row in self.entries], self.nvars)
        right, inner, n = other.entries, range(self.cols), self.nvars
        return PolyMatrix._of([
            [_sum_of_products(n, [(row[k], right[k][j]) for k in inner
                                  if row[k]._f[0] and right[k][j]._f[0]])
             for j in range(other.cols)]
            for row in self.entries
        ], n)

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(tuple(r) for r in self.entries)))

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.entries for p in row)

    def evaluate(self, point):
        return [[p.evaluate(point) for p in row] for row in self.entries]

    def __repr__(self):
        return f"PolyMatrix({self.rows}x{self.cols})"


class SymPolyMatrix(PolyMatrix):
    """Square polynomial matrix with exact entrywise symmetry."""

    def __init__(self, entries):
        super().__init__(entries)
        if self.rows != self.cols:
            raise ValueError("symmetric matrix must be square")
        for i in range(self.rows):
            for j in range(i + 1, self.cols):
                if self.entries[i][j] != self.entries[j][i]:
                    raise ValueError(f"entries ({i},{j}) and ({j},{i}) differ")

    @property
    def size(self) -> int:
        return self.rows

    @classmethod
    def from_upper(cls, size: int, upper: dict, nvars: int) -> "SymPolyMatrix":
        z = Polynomial.zero(nvars)
        grid = [[z for _ in range(size)] for _ in range(size)]
        for (i, j), p in upper.items():
            grid[i][j] = p
            grid[j][i] = p
        return cls(grid)

    @classmethod
    def identity(cls, size: int, nvars: int) -> "SymPolyMatrix":
        return cls(PolyMatrix.identity(size, nvars).entries)

    @classmethod
    def zero(cls, size: int, nvars: int) -> "SymPolyMatrix":
        return cls(PolyMatrix.zero(size, size, nvars).entries)

    @classmethod
    def scalar(cls, p: Polynomial) -> "SymPolyMatrix":
        return cls([[p]])

    def evaluate(self, point) -> "RationalSymMatrix":
        return RationalSymMatrix(super().evaluate(point))

    def evaluate_float(self, point) -> np.ndarray:
        """Float matrix (ell, ell) at one point (n,), or the (P, ell, ell)
        stack of matrices at a (P, n) batch of points."""
        pts = np.asarray(point, dtype=float)
        values = FloatEvaluator(self.nvars, self.upper())(np.atleast_2d(pts))
        out = _symmetric_stack(values, self.size)
        return out[0] if pts.ndim == 1 else out

    def upper(self) -> list:
        """The entries (i, j), i <= j, row by row."""
        return [p for i, row in enumerate(self.entries) for p in row[i:]]

    def homogenize(self, target_degree: int) -> "SymPolyMatrix":
        return SymPolyMatrix(
            [[p.homogenize(target_degree) for p in row] for row in self.entries]
        )

    def dehomogenize(self) -> "SymPolyMatrix":
        return SymPolyMatrix([[p.dehomogenize() for p in row] for row in self.entries])

    def is_homogeneous_of(self, degree: int) -> bool:
        # a packed key holds its degree above the nvars exponent fields
        return all(k >> p._w * self.nvars == degree
                   for row in self.entries for p in row for k in p._f[0])


def scale_argument(p: Polynomial, r) -> Polynomial:
    """p(sqrt(r) * x), exact over Q[sqrt(r)] for rational r > 0.

    Used to renormalize an Archimedean constraint so the unit ball works as
    the reference set: each term picks up r^(|alpha|/2), with sqrt(r)
    surviving on odd-degree terms.
    """
    r = Fraction(r)
    if r <= 0:
        raise ValueError("scaling factor must be positive")
    # sqrt(p/q) = sqrt(p q) / q keeps an integer radicand
    radicand = r.numerator * r.denominator
    root = ExtRational(0, Fraction(1, r.denominator), radicand)
    terms = {}
    for alpha, c in p.terms.items():
        terms[alpha] = c * root ** sum(alpha)
    return Polynomial(p.nvars, terms)


def scale_argument_matrix(M: SymPolyMatrix, r) -> SymPolyMatrix:
    """Entrywise M(sqrt(r) * x)."""
    return SymPolyMatrix([[scale_argument(p, r) for p in row] for row in M.entries])


def congruence(P: PolyMatrix, G: SymPolyMatrix) -> SymPolyMatrix:
    """The exact congruence transform P^T G P."""
    if P.rows != G.size:
        raise ValueError(
            f"dimension mismatch: P is {P.rows}x{P.cols}, G is {G.size}x{G.size}"
        )
    prod = P.transpose() @ (G @ P)
    return SymPolyMatrix(prod.entries)


# ---------------------------------------------------------------------------
# constant symmetric matrices and the exact PSD decision


class RationalSymMatrix:
    """A symmetric constant matrix over the coefficient ring, held as its
    integer form _f alone (module docstring)."""

    __slots__ = ("size", "_f")

    def __new__(cls, entries):
        grid = [[ExtRational.coerce(v) for v in row] for row in entries]
        for row in grid:
            if len(row) != len(grid):
                raise ValueError("matrix must be square")
        for i, row in enumerate(grid):
            for j in range(i + 1, len(grid)):
                if row[j] != grid[j][i]:
                    raise ValueError(f"entries ({i},{j}) and ({j},{i}) differ")
        return _parts_matrix(len(grid), [v.parts() for i, row in enumerate(grid) for v in row[i:]])

    def __setattr__(self, name, value):
        raise AttributeError("RationalSymMatrix is immutable")

    @classmethod
    def identity(cls, size: int) -> "RationalSymMatrix":
        return cls([[ONE if i == j else ZERO for j in range(size)] for i in range(size)])

    @property
    def entries(self) -> list:
        return [[self[i, j] for j in range(self.size)] for i in range(self.size)]

    def __getitem__(self, ij):
        # indices count as a list's: from the end when negative
        i, j = sorted(range(self.size)[k] for k in ij)
        ps, qs, r, L = self._f
        return _make(ps[i][j - i], qs[i][j - i], L, r)

    def __eq__(self, other):
        if not isinstance(other, RationalSymMatrix):
            return NotImplemented
        return self._f == other._f

    def __hash__(self):
        return hash(self._f)

    def to_numpy(self) -> np.ndarray:
        """float() of each entry (p + q sqrt(r))/L: p/L + q/L sqrt(r) rounds
        as over the reduced denominator.  Past the float range: OverflowError."""
        ps, qs, r, L = self._f
        root = math.sqrt(r)
        arr = np.empty((self.size, self.size))
        for i, prow, qrow in zip(range(self.size), ps, qs):
            arr[i, i:] = arr[i:, i] = [p / L + q / L * root for p, q in zip(prow, qrow)]
        return arr

    def determinant(self) -> ExtRational:
        """Exact determinant by Gaussian elimination in Q[sqrt(r)]."""
        n = self.size
        a = [row[:] for row in self.entries]
        det = ONE
        for col in range(n):
            pivot = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
            if pivot is None:
                return ZERO
            if pivot != col:
                a[col], a[pivot] = a[pivot], a[col]
                det = -det
            det = det * a[col][col]
            inv = a[col][col].inverse()
            for r in range(col + 1, n):
                if a[r][col].is_zero():
                    continue
                factor = a[r][col] * inv
                for c in range(col, n):
                    a[r][c] = a[r][c] - factor * a[col][c]
        return det

    def __repr__(self):
        return f"RationalSymMatrix({self.size}x{self.size})"


def _parts_matrix(n: int, parts: list) -> RationalSymMatrix:
    """The n x n matrix of upper rows (row i from column i) of the values
    (p + q sqrt(r))/d in parts, in any terms (r = 0 where q = 0).  n = 0
    raises ValueError, two irrational radicands RadicandMismatch naming the
    two least."""
    if not n:
        raise ValueError("empty matrix")
    ps, qs, rs, L = _over_lcm(*zip(*parts))
    radicands = sorted(set(rs or ()) - {0}) or [0]
    if len(radicands) > 1:
        raise RadicandMismatch(f"cannot mix sqrt({radicands[0]}) with sqrt({radicands[1]})")
    return _sym_matrix(_upper_rows(ps, n), _upper_rows(qs or (0,) * len(ps), n), radicands[0], L)


def _upper_rows(flat, n: int) -> tuple:
    """The n upper-triangle rows (row i from column i) of the flat values."""
    rows, start = [], 0
    for k in range(n, 0, -1):
        rows.append(flat[start:start + k])
        start += k
    return tuple(rows)


def _sym_matrix(ps: list, qs: list, r: int, L: int) -> RationalSymMatrix:
    """The matrix of upper rows ps, qs over L > 0 in Z[sqrt(r)], reduced."""
    g = _gcd(L, *chain.from_iterable(ps), *chain.from_iterable(qs))
    if g != 1:
        ps = [[p // g for p in row] for row in ps]
        qs = [[q // g for q in row] for row in qs]
    form = (tuple(map(tuple, ps)), tuple(map(tuple, qs)), r if any(map(any, qs)) else 0, L // g)
    M = _new(RationalSymMatrix)
    for name, value in (("size", len(ps)), ("_f", form)):
        object.__setattr__(M, name, value)
    return M


def _entry_form(M: RationalSymMatrix, dim: int, lower: bool = False) -> tuple:
    """(form, first): M's nonzero entries as an _accumulate form, (i, j) keyed
    i dim + j, the upper triangle after the strictly lower entries when lower
    is set, the first upper one at index first; form is None for M = 0."""
    ps, qs, r, L = M._f
    upper = [(i, j, p, q) for i in range(M.size)
             for j, p, q in zip(range(i, M.size), ps[i], qs[i]) if p or q]
    if not upper:
        return None, 0
    low = [(j * dim + i, p, q) for i, j, p, q in upper if j > i] if lower else []
    keys, fp, fq = zip(*low, *[(i * dim + j, p, q) for i, j, p, q in upper])
    return (keys, fp, fq, (r,) * len(keys), L) if r else (keys, fp, None, None, L), len(low)


def _summed(n: int, acc: dict, D: int, rational: bool) -> RationalSymMatrix:
    """The n x n matrix of an _accumulate result keyed i n + j for the
    entries (i, j), i <= j, it reaches; the others are 0.  Two irrational
    radicands raise RadicandMismatch."""
    ps, qs, r = [[0] * (n - i) for i in range(n)], [[0] * (n - i) for i in range(n)], 0
    for key, value in acc.items():
        i, j = divmod(key, n)
        ps[i][j - i], qs[i][j - i], x = (value, 0, 0) if rational else value
        if qs[i][j - i] and x != r:
            r = common_radicand(r, x)
    return _sym_matrix(ps, qs, r, D)


def psd_exact(M: RationalSymMatrix, strict: bool = False) -> bool:
    """Exact PSD (strict: PD) decision of any size, from the signs of the
    fraction-free elimination alone (_eliminate), which builds no
    ExtRational.

    PSD: no negative pivot and every zero pivot has a zero row.  PD: in
    addition all M.size pivots are positive.
    """
    try:
        _, _, steps = _eliminate(M)
    except ValueError:
        return False
    return not strict or len(steps) == M.size


def psd_exact_ldlt(M: RationalSymMatrix) -> bool:
    # kept under this name: perfbench/tracer.py wraps it by name
    return psd_exact(M)


def ldlt(M: RationalSymMatrix):
    """Exact LDL^T of a PSD matrix: returns (columns, pivots) with
    M = sum_r pivots[r] * columns[r] columns[r]^T, pivots[r] > 0.

    Symmetric elimination without row exchanges; a zero pivot whose row is
    zero is skipped, so len(pivots) == M.size exactly when M is PD.  Raises
    ValueError if a negative pivot or a zero pivot with a nonzero row is met
    (i.e. the matrix is not PSD).

    The elimination is _eliminate's, in integers; the ExtRationals are built
    from its kept steps only: step k with pivot minor B_k, after the kept
    pivot minor B' (1 at first), has column entries a_ki / B_k and pivot
    B_k / (L B').  These are the values of the ExtRational elimination.
    """
    L, r, steps = _eliminate(M)
    cols, pivots = [], []
    sp, sq = L, 0  # L B'
    for k, ps, qs in steps:
        bp, bq = ps[0], qs[0]
        cols.append([ZERO] * k + [ONE]
                    + [quotient(x, y, bp, bq, r) for x, y in zip(ps[1:], qs[1:])])
        pivots.append(quotient(bp, bq, sp, sq, r))
        sp, sq = L * bp, L * bq
    return cols, pivots


def _eliminate(M: RationalSymMatrix) -> tuple:
    """(L, r, steps): the fraction-free symmetric elimination (Bareiss, Math.
    Comp. 1968) of L M over Z[sqrt(r)], read from M's form (ps, qs, r, L)
    as it is.

    An entry of L M is a pair (p, q) of ints, the value p + q sqrt(r).  The
    step at a kept pivot B = a_kk replaces each a_ij, k < i <= j, by
    (B a_ij - a_ki a_kj) / B', B' the kept pivot before it (1 at first).
    The division is exact in Z[sqrt(r)], by the conjugate over the norm when
    B' is irrational: by Sylvester's identity a_ij is then the minor of L M
    on the kept rows and i against the kept columns and j.  Only the upper
    triangle is held (row i from column i), and the kept pivots are
    positive, so each pivot has the sign of the ExtRational elimination's,
    decided by comparing p^2 with r q^2.  A negative pivot, or a zero one
    with a nonzero row, raises ValueError: M is not PSD.  A zero pivot with
    a zero row is skipped, and B' stays.

    steps lists each kept k with (ps, qs), row k of L M at its step from
    column k on: B = (ps[0], qs[0]) is L^j times the principal minor of M
    on the j rows kept so far, k the last.
    """
    n = M.size
    P, Q, r, L = M._f
    P, Q = list(P), list(Q)  # rows are replaced here
    steps = []
    sp, sq, norm = 1, 0, 1  # B' and its norm
    for k in range(n):
        ps, qs = P[k], Q[k]
        bp, bq = ps[0], qs[0]
        s = sign_of(bp, bq, r)
        if s < 0:
            raise ValueError("matrix is not positive semidefinite (negative pivot)")
        if not s:
            if any(ps) or any(qs):
                raise ValueError("matrix is not positive semidefinite (zero pivot row)")
            continue
        steps.append((k, ps, qs))
        bqr, sqr = bq * r, sq * r
        for i in range(k + 1, n):
            off = i - k
            cp, cq = ps[off], qs[off]
            if not r:  # every q is 0 and stays 0
                P[i] = [(bp * ap - cp * dp) // sp for ap, dp in zip(P[i], ps[off:])]
                continue
            cqr = cq * r
            xs, ys = [], []
            for ap, aq, dp, dq in zip(P[i], Q[i], ps[off:], qs[off:]):
                xs.append(bp * ap + bqr * aq - cp * dp - cqr * dq)
                ys.append(bp * aq + bq * ap - cp * dq - cq * dp)
            if sq:
                P[i] = [(x * sp - y * sqr) // norm for x, y in zip(xs, ys)]
                Q[i] = [(y * sp - x * sq) // norm for x, y in zip(xs, ys)]
            else:
                P[i] = [x // sp for x in xs]
                Q[i] = [y // sp for y in ys]
        sp, sq, norm = bp, bq, bp * bp - bqr * bq
    return L, r, steps


def min_eigenvalue_numeric(M):
    """Numeric smallest eigenvalue of a symmetric matrix (a float), or of
    each matrix of a (P, ell, ell) stack (an array of P floats).  An exact
    matrix with an entry past the float range is scaled by a power of two
    first; an eigenvalue past the range is then -inf or inf.  A 1 x 1
    matrix's eigenvalue is its entry, read without LAPACK."""
    if isinstance(M, RationalSymMatrix):
        try:
            arr = M.to_numpy()
        except OverflowError:
            return _scaled_min_eigenvalue(M)
    else:
        arr = np.asarray(M, float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix has non-finite entries")
    if arr.shape[-2:] == (1, 1):  # eigvalsh returns the entry, bit for bit
        low = arr[..., 0, 0].copy()
    else:
        low = np.linalg.eigvalsh(arr)[..., 0]
    return float(low) if arr.ndim == 2 else low


def _scaled_min_eigenvalue(M: RationalSymMatrix) -> float:
    """min_eigenvalue_numeric of M / 2^s, the form over 2^s L, times 2^s,
    with 2^s putting the largest entry bound near 2^1000: (p + q sqrt(r))/L
    is below 2^(bits p - bits L + 1) + 2^(bits q + bits r / 2 - bits L + 1)."""
    ps, qs, r, L = M._f
    bound = max(max(map(abs, chain(*ps))).bit_length(),
                max(map(abs, chain(*qs))).bit_length() + (r.bit_length() + 1) // 2)
    s = bound - L.bit_length() - 1000
    low = min_eigenvalue_numeric(_sym_matrix(ps, qs, r, L << s).to_numpy())
    try:
        return math.ldexp(low, s)
    except OverflowError:
        return math.copysign(math.inf, low)

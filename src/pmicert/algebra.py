"""Exact multivariate polynomials and symmetric polynomial matrices.

Polynomials are sparse term maps from exponent tuples to ExtRational
coefficients; all arithmetic is exact over Q[sqrt(r)].  Matrices come in
three flavours: general rectangular polynomial matrices (PolyMatrix),
exactly-symmetric square ones (SymPolyMatrix) and constant symmetric
matrices over the coefficient ring (RationalSymMatrix), which carry the
exact positive-semidefiniteness test.

Products go through one integer kernel, _sum_of_products, which returns
the terms of sum f g over a list of pairs (f, g): a product of two
polynomials of two or more terms is one pair, an entry of A @ B the
A.cols pairs of its row and column, and congruence is two such matmuls.
Each operand's coefficients go over the lcm L of their denominators, as
numerator pairs (p, q) of Z[sqrt(r)] (_integer_form, made once per
polynomial and kept with it), so a term pair makes int products only: one
when both are rational, four with sqrt(r).  Each output monomial keeps its
numerators over D, the lcm of the L_f L_g that reached it, and one
normalised ExtRational is built per monomial at the end.  The values are
those of ExtRational arithmetic, and a product's keys come in the order of
the ExtRational double loop.  A one-term operand is a scalar times a
monomial shift and skips the kernel; with the scalar 1 only the exponents
move, and a product by the scalar 1 is the operand itself.  certify's fold
and Gram assembly share the kernel's helpers _common_denominator and _merge.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import add

import numpy as np

from .ring import ExtRational, ZERO, ONE, common_radicand, from_parts, parse_ext_rational

Exponent = tuple


def _grlex_key(alpha: Exponent):
    return (sum(alpha), alpha)


_new = object.__new__


class Polynomial:
    # _ints: the _integer_form of terms, filled on first use (terms never change)
    __slots__ = ("nvars", "terms", "_ints")

    def __init__(self, nvars: int, terms: dict | None = None):
        clean = {}
        for alpha, coeff in (terms or {}).items():
            alpha = tuple(int(e) for e in alpha)
            if len(alpha) != nvars:
                raise ValueError(f"exponent {alpha} has wrong length for nvars={nvars}")
            if any(e < 0 for e in alpha):
                raise ValueError(f"negative exponent in {alpha}")
            coeff = ExtRational.coerce(coeff)
            prev = clean.get(alpha)
            clean[alpha] = coeff if prev is None else prev + coeff
        _set_nvars(self, nvars)
        _set_terms(self, {a: c for a, c in clean.items() if c})
        _set_ints(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def _from_clean(cls, nvars: int, terms: dict) -> "Polynomial":
        """Internal results: terms already map valid exponent tuples to
        ExtRational coefficients, each exponent once; only zeros are dropped."""
        out = _new(cls)
        _set_nvars(out, nvars)
        _set_terms(out, {a: c for a, c in terms.items() if c})
        _set_ints(out, None)
        return out

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {})

    @classmethod
    def const(cls, nvars: int, value) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: ExtRational.coerce(value)})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for nvars={nvars}")
        exp = [0] * nvars
        exp[index] = 1
        return cls(nvars, {tuple(exp): ONE})

    # -- queries ----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(a) for a in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, alpha) -> ExtRational:
        return self.terms.get(tuple(alpha), ZERO)

    def constant_term(self) -> ExtRational:
        return self.terms.get((0,) * self.nvars, ZERO)

    # -- arithmetic -------------------------------------------------------

    def _integer(self) -> tuple:
        """The _integer_form of the (nonempty) terms, computed once."""
        ints = self._ints
        if ints is None:
            ints = _integer_form(self.terms)
            _set_ints(self, ints)
        return ints

    def _check(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable count mismatch: {self.nvars} vs {other.nvars}"
            )

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.const(self.nvars, other)
        self._check(other)
        terms = dict(self.terms)
        for alpha, c in other.terms.items():
            prev = terms.get(alpha)
            terms[alpha] = c if prev is None else prev + c
        return Polynomial._from_clean(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._from_clean(self.nvars, {a: -c for a, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.const(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            scalar = ExtRational.coerce(other)
            if scalar == ONE:
                return self
            return Polynomial._from_clean(
                self.nvars, {a: c * scalar for a, c in self.terms.items()}
            )
        self._check(other)
        f, g = self.terms, other.terms
        if len(f) > 1 and len(g) > 1:
            pair = (self._integer(), other._integer())
            return Polynomial._from_clean(self.nvars, _sum_of_products([pair]))
        if not f or not g:
            return Polynomial._from_clean(self.nvars, {})
        # a one-term operand is a scalar times a monomial shift; with the
        # scalar 1 only the exponents move
        short, long = (f, g) if len(f) == 1 else (g, f)
        ((mono, c),) = short.items()
        if c == ONE:
            return Polynomial._from_clean(
                self.nvars, {tuple(map(add, a, mono)): d for a, d in long.items()})
        return Polynomial._from_clean(
            self.nvars, {tuple(map(add, a, mono)): d * c for a, d in long.items()}
        )

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = Polynomial.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

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
        batch = np.atleast_2d(pts)
        total = np.zeros(len(batch))
        # monomials by repeated multiplication: numpy's power may take a SIMD
        # or a scalar pow by array layout, and the two differ in the last bit
        for alpha, c in self.terms.items():
            mono = np.ones(len(batch))
            for i, e in enumerate(alpha):
                for _ in range(e):
                    mono *= batch[:, i]
            total += mono * float(c)
        return float(total[0]) if pts.ndim == 1 else total

    def homogenize(self, target_degree: int) -> "Polynomial":
        """Return x0^target * p(x/x0) in nvars+1 variables (x0 first)."""
        d = self.degree
        if target_degree < d:
            raise ValueError(
                f"target degree {target_degree} below polynomial degree {d}"
            )
        terms = {}
        for alpha, c in self.terms.items():
            terms[(target_degree - sum(alpha),) + alpha] = c
        return Polynomial(self.nvars + 1, terms)

    def dehomogenize(self) -> "Polynomial":
        """Substitute 1 for the first variable and drop it."""
        if self.nvars < 1:
            raise ValueError("no variable to dehomogenize")
        terms: dict = {}
        for alpha, c in self.terms.items():
            key = alpha[1:]
            terms[key] = terms.get(key, ZERO) + c
        return Polynomial(self.nvars - 1, terms)

    # -- text form --------------------------------------------------------

    def to_text(self) -> str:
        """Canonical form: '(coeff) * x1^e1*...*xn^en' terms, graded-lex."""
        if not self.terms:
            alpha = (0,) * self.nvars
            mono = "*".join(f"x{i + 1}^0" for i in range(self.nvars)) or "1"
            return f"(0/1) * {mono}"
        parts = []
        for alpha in sorted(self.terms, key=_grlex_key, reverse=True):
            mono = "*".join(f"x{i + 1}^{e}" for i, e in enumerate(alpha)) or "1"
            parts.append(f"({self.terms[alpha]}) * {mono}")
        return " + ".join(parts)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"Polynomial<{self.nvars}>({self.to_text()})"


# the slots' own setters, past the __setattr__ guard
_set_nvars = Polynomial.nvars.__set__
_set_terms = Polynomial.terms.__set__
_set_ints = Polynomial._ints.__set__


# ---------------------------------------------------------------------------
# the integer product kernel


def _common_denominator(coeffs) -> tuple:
    """(ps, qs, rs, L) of a nonempty sequence of ExtRationals: coefficient k
    is (ps[k] + qs[k] sqrt(rs[k]))/L, L the lcm of their denominators."""
    ps, qs, ds, rs = zip(*[c.parts() for c in coeffs])
    L = math.lcm(*ds)
    if any(d != L for d in ds):
        ps = [p * (L // d) for p, d in zip(ps, ds)]
        qs = [q * (L // d) for q, d in zip(qs, ds)]
    return ps, qs, rs, L


def _merge(cur: list, x: int, y: int, den: int) -> None:
    """Add (x + y sqrt(r))/den into the numerators [P, Q] over D of cur,
    where den does not divide D: D becomes lcm(D, den)."""
    D = cur[2]
    g = math.gcd(D, den)
    fo, fn = den // g, D // g
    cur[0] = cur[0] * fo + x * fn
    cur[1] = cur[1] * fo + y * fn
    cur[2] = D * fo


def _integer_form(terms: dict) -> tuple:
    """(monomials, ps, qs, rs, L) of a nonzero term map over its common
    denominator L; qs and rs are None when every coefficient is rational."""
    ps, qs, rs, L = _common_denominator(terms.values())
    if not any(qs):
        qs = rs = None
    return tuple(terms), ps, qs, rs, L


def _sum_of_products(pairs) -> dict:
    """The terms of sum f g over the (f, g) in pairs, each an _integer_form;
    a coefficient that cancels is kept as zero.

    A term pair makes int products only: one when both coefficients are
    rational, four with sqrt(r).  Per output monomial the numerators [P, Q]
    add over D, the lcm of the denominators L_f L_g of the pairs that reached
    it (a denominator that divides D scales by one quotient, any other takes
    one gcd in _merge), with R the radicand of the irrational part so far;
    one ExtRational is built per monomial at the end.  Radicands are tracked
    only on the irrational path, and RadicandMismatch is raised where
    ExtRational arithmetic raises it: two coefficients with different
    irrational radicands multiplied, or added into one monomial while its
    irrational part is nonzero.  Keys come in the order the loops first
    reach them."""
    acc = {}
    get = acc.get
    for (fm, fp, fq, fr, fL), (gm, gp, gq, gr, gL) in pairs:
        den = fL * gL
        if fq is None and gq is None:
            for a, pa in zip(fm, fp):
                for b, pb in zip(gm, gp):
                    key = tuple(map(add, a, b))
                    x = pa * pb
                    cur = get(key)
                    if cur is None:
                        acc[key] = [x, 0, den, 0]
                    elif cur[2] == den:
                        cur[0] += x
                    else:
                        f, rem = divmod(cur[2], den)
                        if rem:
                            _merge(cur, x, 0, den)
                        else:
                            cur[0] += x * f
            continue
        if fq is None:
            fq = fr = (0,) * len(fm)
        if gq is None:
            gq = gr = (0,) * len(gm)
        for a, pa, qa, ra in zip(fm, fp, fq, fr):
            for b, pb, qb, rb in zip(gm, gp, gq, gr):
                if qa and qb:
                    r = common_radicand(ra, rb)
                    x, y = pa * pb + qa * qb * r, pa * qb + qa * pb
                else:
                    r = ra or rb
                    x, y = pa * pb, pa * qb + qa * pb
                key = tuple(map(add, a, b))
                cur = get(key)
                if cur is None:
                    acc[key] = [x, y, den, r if y else 0]
                    continue
                if y:
                    if cur[1]:
                        common_radicand(cur[3], r)
                    cur[3] = r
                if cur[2] == den:
                    cur[0] += x
                    cur[1] += y
                else:
                    f, rem = divmod(cur[2], den)
                    if rem:
                        _merge(cur, x, y, den)
                    else:
                        cur[0] += x * f
                        cur[1] += y * f
    return {key: from_parts(p, q, d, r) for key, (p, q, d, r) in acc.items()}


def _is_natural(token: str) -> bool:
    """A non-negative integer written in ASCII decimal digits only."""
    return token.isascii() and token.isdigit()


# a monomial factor x<digits>^<digits>, ASCII digits only
_FACTOR = re.compile(r"x([0-9]+)\^([0-9]+)").fullmatch


def parse_polynomial(text: str, nvars: int) -> Polynomial:
    """Inverse of Polynomial.to_text."""
    terms = {}
    for chunk in text.split(" + "):
        chunk = chunk.strip()
        if not chunk:
            continue
        if not chunk.startswith("("):
            raise ValueError(f"malformed term {chunk!r}: missing coefficient parens")
        close = chunk.rindex(")")  # the coefficient itself may contain 'sqrt(n)'
        coeff = parse_ext_rational(chunk[1:close])
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
        key = tuple(e or 0 for e in exps)
        prev = terms.get(key)
        terms[key] = coeff if prev is None else prev + coeff
    # every exponent is a checked natural, nvars of them, each key once
    return Polynomial._from_clean(nvars, terms)


def lower_triangle_rows(grid) -> list:
    """Row r of a symmetric grid as its first r + 1 entries, each a '(coeff)'
    token: the lines LineReader.grid reads back."""
    return [" ".join(f"({v})" for v in row[: r + 1]) for r, row in enumerate(grid)]


class LineReader:
    """Cursor over the lines of a certificate text (.qmc, .bexp, .polya).

    The read methods raise ValueError; parse() reports it as 'line N: ...',
    N the 1-based number of the line being read.  A declared size is checked
    against the text that remains before anything of that size is built.

    One memo per reader maps each polynomial line (with its nvars) and each
    coefficient token already parsed to the immutable value parsed from it,
    so a repeated line or token is parsed once and every repeat is the same
    object.  Only parses that succeeded are kept, so a malformed line fails
    at its first occurrence; the memo holds at most one entry per line or
    token of the text.
    """

    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0  # lines consumed; the last one read is line self.pos
        self.memo = {}

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

    def coeff(self, token: str) -> ExtRational:
        value = self.memo.get(token)
        if value is None:
            if not (token.startswith("(") and token.endswith(")")):
                raise ValueError(f"malformed coefficient {token!r}")
            value = self.memo[token] = parse_ext_rational(token[1:-1])
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
            value = self.memo[key] = parse_polynomial(line, nvars)
        return value

    def grid(self, dim: int, what: str) -> list:
        """A symmetric dim x dim grid of '(coeff)' tokens written as its lower
        triangle, row r on one line of r + 1 tokens."""
        if dim > self.lines_left():
            raise ValueError(f"{what} size {dim} is too large for the rest of the file")
        rows = []
        for r in range(dim):
            toks = self.line(f"{what} row").split()
            if len(toks) != r + 1:
                raise ValueError(f"{what} row {r} has {len(toks)} entries, expected {r + 1}")
            rows.append([self.coeff(tok) for tok in toks])
        return [rows[i] + [rows[j][i] for j in range(i + 1, dim)] for i in range(dim)]


def multinomial(total: int, parts) -> int:
    """total! / prod(p! for p in parts); the parts sum to total."""
    out = math.factorial(total)
    for p in parts:
        out //= math.factorial(p)
    return out


def monomials_upto(nvars: int, degree: int) -> list:
    """All exponent tuples with |alpha| <= degree, sorted graded-lex."""
    out = []
    def rec(prefix, remaining, budget):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for e in range(budget + 1):
            rec(prefix + [e], remaining - 1, budget - e)
    rec([], nvars, degree)
    out.sort(key=_grlex_key)
    return out


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
        return PolyMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")
        return PolyMatrix(
            [
                [self.entries[i][j] + other.entries[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __sub__(self, other):
        return self + other.scale(ExtRational(-1))

    def scale(self, c) -> "PolyMatrix":
        return PolyMatrix([[p * c for p in row] for row in self.entries])

    def scale_poly(self, q: Polynomial) -> "PolyMatrix":
        return PolyMatrix([[p * q for p in row] for row in self.entries])

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"dimension mismatch: {self.rows}x{self.cols} @ {other.rows}x{other.cols}"
            )
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")
        if self.cols == 1:
            return PolyMatrix([[row[0] * p for p in other.entries[0]] for row in self.entries])
        # each entry goes to integers once in its lifetime, however many
        # products it enters
        left = [[p.terms and p._integer() for p in row] for row in self.entries]
        right = [[p.terms and p._integer() for p in row] for row in other.entries]
        inner = range(self.cols)
        return PolyMatrix([
            [Polynomial._from_clean(self.nvars, _sum_of_products(
                [(row[k], right[k][j]) for k in inner if row[k] and right[k][j]]))
             for j in range(other.cols)]
            for row in left
        ])

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
        batch = np.atleast_2d(pts)
        out = np.empty((len(batch), self.size, self.size))
        for i, row in enumerate(self.entries):
            for j in range(i, self.size):
                out[:, i, j] = out[:, j, i] = row[j].evaluate_float(batch)
        return out[0] if pts.ndim == 1 else out

    def homogenize(self, target_degree: int) -> "SymPolyMatrix":
        return SymPolyMatrix(
            [[p.homogenize(target_degree) for p in row] for row in self.entries]
        )

    def dehomogenize(self) -> "SymPolyMatrix":
        return SymPolyMatrix([[p.dehomogenize() for p in row] for row in self.entries])

    def is_homogeneous_of(self, degree: int) -> bool:
        for row in self.entries:
            for p in row:
                if any(sum(a) != degree for a in p.terms):
                    return False
        return True


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
    __slots__ = ("size", "entries")

    def __init__(self, entries):
        entries = [[ExtRational.coerce(v) for v in row] for row in entries]
        size = len(entries)
        for row in entries:
            if len(row) != size:
                raise ValueError("matrix must be square")
        for i in range(size):
            for j in range(i + 1, size):
                if entries[i][j] != entries[j][i]:
                    raise ValueError(f"entries ({i},{j}) and ({j},{i}) differ")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("RationalSymMatrix is immutable")

    @classmethod
    def identity(cls, size: int) -> "RationalSymMatrix":
        return cls([[ONE if i == j else ZERO for j in range(size)] for i in range(size)])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, RationalSymMatrix):
            return NotImplemented
        return self.size == other.size and self.entries == other.entries

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.entries))

    def scale(self, c) -> "RationalSymMatrix":
        c = ExtRational.coerce(c)
        return RationalSymMatrix([[v * c for v in row] for row in self.entries])

    def __add__(self, other):
        return RationalSymMatrix(
            [
                [self.entries[i][j] + other.entries[i][j] for j in range(self.size)]
                for i in range(self.size)
            ]
        )

    def to_numpy(self) -> np.ndarray:
        return np.array([[float(v) for v in row] for row in self.entries])

    def submatrix(self, idx) -> "RationalSymMatrix":
        return RationalSymMatrix(
            [[self.entries[i][j] for j in idx] for i in idx]
        )

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


def psd_exact(M: RationalSymMatrix, strict: bool = False) -> bool:
    """Exact PSD (strict: PD) decision of any size, from the LDL^T of ldlt.

    PSD: no negative pivot and every zero pivot has a zero row.  PD: in
    addition all M.size pivots are positive.
    """
    try:
        _, pivots = ldlt(M)
    except ValueError:
        return False
    return not strict or len(pivots) == M.size


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

    Only the upper triangle is updated: the trailing block stays symmetric,
    so step k reads its column from row k (a[k][i], i > k) and row i is
    updated from column i on.  The pivots and columns are those of the
    full-row elimination, at about half its ring operations.
    """
    n = M.size
    a = [row[:] for row in M.entries]
    cols = []
    pivots = []
    for k in range(n):
        rowk = a[k]
        piv = rowk[k]
        s = piv.sign()
        if s < 0:
            raise ValueError("matrix is not positive semidefinite (negative pivot)")
        if s == 0:
            if any(rowk[j] for j in range(k + 1, n)):
                raise ValueError("matrix is not positive semidefinite (zero pivot row)")
            continue
        inv = piv.inverse()
        col = [ZERO] * k + [ONE] + [rowk[i] * inv for i in range(k + 1, n)]
        cols.append(col)
        pivots.append(piv)
        for i in range(k + 1, n):
            factor = col[i]
            if not factor:
                continue
            row = a[i]
            for j in range(i, n):
                row[j] = row[j] - factor * rowk[j]
    return cols, pivots


def min_eigenvalue_numeric(M, tol: float = 1e-12):
    """Numeric smallest eigenvalue of a symmetric matrix (a float), or of
    each matrix of a (P, ell, ell) stack (an array of P floats).  An exact
    matrix with an entry past the float range is scaled by a power of two
    first; an eigenvalue past the range is then -inf or inf."""
    if isinstance(M, RationalSymMatrix):
        try:
            arr = M.to_numpy()
        except OverflowError:
            return _scaled_min_eigenvalue(M)
    else:
        arr = np.asarray(M, float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("matrix has non-finite entries")
    low = np.linalg.eigvalsh(arr)[..., 0]
    return float(low) if arr.ndim == 2 else low


def _scaled_min_eigenvalue(M: RationalSymMatrix) -> float:
    """min_eigenvalue_numeric of M / 2^s, times 2^s, with 2^s putting the
    largest entry bound near 2^1000: (p + q sqrt(r))/d is below
    2^(bits p - bits d + 1) + 2^(bits q + bits r / 2 - bits d + 1)."""
    parts = [v.parts() for row in M.entries for v in row]
    s = max(max(abs(p).bit_length(), abs(q).bit_length() + (r.bit_length() + 1) // 2)
            - d.bit_length() for p, q, d, r in parts) - 1000
    arr = np.array([p / (d << s) + q / (d << s) * math.sqrt(r) for p, q, d, r in parts])
    low = min_eigenvalue_numeric(arr.reshape(M.size, M.size))
    try:
        return math.ldexp(low, s)
    except OverflowError:
        return math.copysign(math.inf, low)

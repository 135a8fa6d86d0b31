"""Exact arithmetic in the quadratic extension Q[sqrt(r)].

Every value is (p + q*sqrt(r))/d with integers p, q, d and r, kept in one
canonical form: d > 0, gcd(p, q, d) = 1, r = 0 whenever q = 0, and r never a
perfect square while q != 0.  Perfect-square radicands collapse to plain
rationals at construction time, so purely rational values always carry
radicand 0 and can be combined freely with values of any radicand.  Signs,
comparisons and equality are decided exactly.

The public constructor ExtRational(a, b, radicand) validates its arguments;
the results of arithmetic are built by _make, which only restores the sign of
d and the common factor.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

_gcd = math.gcd
_new = object.__new__


class RadicandMismatch(ValueError):
    """Two values with different irrational radicands were combined."""


def _make(p: int, q: int, d: int, r: int) -> "ExtRational":
    """(p + q*sqrt(r))/d, unvalidated: the caller guarantees d != 0 and that r
    is not a perfect square when q != 0."""
    if d < 0:
        p, q, d = -p, -q, -d
    if q:
        g = _gcd(p, q, d)
    else:
        g = _gcd(p, d)
        r = 0
    if g != 1:
        p //= g
        q //= g
        d //= g
    x = _new(ExtRational)
    x._p = p
    x._q = q
    x._d = d
    x._r = r
    return x


def _folded(p: int, q: int, d: int, r: int) -> tuple:
    """(p, q, d, r) with a perfect-square radicand folded into the rational
    part, and r = 0 whenever q = 0."""
    if q:
        root = math.isqrt(r)
        if root * root != r:
            return p, q, d, r
        p += q * root
    return p, 0, d, 0


def sign_of(p: int, q: int, r: int) -> int:
    """Exact sign in {-1, 0, 1} of p + q*sqrt(r), r not a perfect square
    when q != 0."""
    if not q:
        return (p > 0) - (p < 0)
    if p >= 0 and q > 0:
        return 1
    if p <= 0 and q < 0:
        return -1
    # mixed signs: p^2 != q^2 r because r is not a perfect square
    return 1 if (p * p > q * q * r) == (p > 0) else -1


def quotient(p: int, q: int, s: int, t: int, r: int) -> "ExtRational":
    """(p + q*sqrt(r)) / (s + t*sqrt(r)) for s + t*sqrt(r) != 0, r not a
    perfect square when q or t is nonzero: times the conjugate over the norm
    s^2 - t^2 r when t != 0."""
    if t:
        return _make(p * s - q * t * r, q * s - p * t, s * s - t * t * r, r)
    return _make(p, q, s, r)


def common_radicand(r1: int, r2: int) -> int:
    """The one irrational radicand among r1 and r2 (0 if neither is)."""
    if r1 and r2 and r1 != r2:
        raise RadicandMismatch(f"cannot mix sqrt({r1}) with sqrt({r2})")
    return r1 or r2


class ExtRational:
    # value (_p + _q*sqrt(_r))/_d in the canonical form of the module docstring
    __slots__ = ("_p", "_q", "_d", "_r")

    def __new__(cls, a=0, b=0, radicand: int = 0):
        a = Fraction(a)
        b = Fraction(b)
        r = int(radicand)
        if r < 0:
            raise ValueError("radicand must be nonnegative")
        d = math.lcm(a.denominator, b.denominator)
        return _make(*_folded(a.numerator * (d // a.denominator),
                              b.numerator * (d // b.denominator), d, r))

    @property
    def a(self) -> Fraction:
        """The rational part."""
        return Fraction(self._p, self._d)

    @property
    def b(self) -> Fraction:
        """The coefficient of sqrt(radicand)."""
        return Fraction(self._q, self._d)

    @property
    def radicand(self) -> int:
        return self._r

    def parts(self) -> tuple:
        """The integers (p, q, d, r) of the canonical form (p + q*sqrt(r))/d."""
        return self._p, self._q, self._d, self._r

    @classmethod
    def sqrt(cls, r: int) -> "ExtRational":
        """The value sqrt(r), exact."""
        return cls(0, 1, r)

    @classmethod
    def coerce(cls, value) -> "ExtRational":
        if type(value) is ExtRational:
            return value
        if isinstance(value, int):
            return _make(int(value), 0, 1, 0)
        if isinstance(value, Fraction):
            return _make(value.numerator, 0, value.denominator, 0)
        if isinstance(value, str):
            return parse_ext_rational(value)
        raise TypeError(f"cannot interpret {value!r} as ExtRational")

    # -- predicates -------------------------------------------------------

    def as_fraction(self) -> Fraction:
        if self._q:
            raise ValueError(f"{self} is irrational")
        return Fraction(self._p, self._d)

    def is_zero(self) -> bool:
        return not self._p and not self._q

    def sign(self) -> int:
        """Exact sign in {-1, 0, 1}."""
        return sign_of(self._p, self._q, self._r)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if type(other) is not ExtRational:
            try:
                other = ExtRational.coerce(other)
            except TypeError:
                return NotImplemented
        d1, d2 = self._d, other._d
        q1, q2 = self._q, other._q
        if d1 == d2:
            p, q, d = self._p + other._p, q1 + q2, d1
        else:
            p, q, d = self._p * d2 + other._p * d1, q1 * d2 + q2 * d1, d1 * d2
        if not q1 or not q2:
            return _make(p, q, d, self._r or other._r)
        return _make(p, q, d, common_radicand(self._r, other._r))

    __radd__ = __add__

    def __neg__(self):
        x = _new(ExtRational)
        x._p = -self._p
        x._q = -self._q
        x._d = self._d
        x._r = self._r
        return x

    def __sub__(self, other):
        if type(other) is not ExtRational:
            try:
                other = ExtRational.coerce(other)
            except TypeError:
                return NotImplemented
        d1, d2 = self._d, other._d
        q1, q2 = self._q, other._q
        if d1 == d2:
            p, q, d = self._p - other._p, q1 - q2, d1
        else:
            p, q, d = self._p * d2 - other._p * d1, q1 * d2 - q2 * d1, d1 * d2
        if not q1 or not q2:
            return _make(p, q, d, self._r or other._r)
        return _make(p, q, d, common_radicand(self._r, other._r))

    def __rsub__(self, other):
        return ExtRational.coerce(other) + -self

    def __mul__(self, other):
        if type(other) is not ExtRational:
            try:
                other = ExtRational.coerce(other)
            except TypeError:
                return NotImplemented
        p1, q1, p2, q2 = self._p, self._q, other._p, other._q
        if not q2:
            return _make(p1 * p2, q1 * p2, self._d * other._d, self._r)
        if not q1:
            return _make(p1 * p2, p1 * q2, self._d * other._d, other._r)
        r = common_radicand(self._r, other._r)
        return _make(p1 * p2 + q1 * q2 * r, p1 * q2 + q1 * p2, self._d * other._d, r)

    __rmul__ = __mul__

    def inverse(self) -> "ExtRational":
        # d/(p + q sqrt r); p^2 - q^2 r != 0 because sqrt(r) is irrational
        # whenever q != 0
        if not (self._p or self._q):
            raise ZeroDivisionError("division by zero")
        return quotient(self._d, 0, self._p, self._q, self._r)

    def __truediv__(self, other):
        if type(other) is not ExtRational:
            try:
                other = ExtRational.coerce(other)
            except TypeError:
                return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return ExtRational.coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("exponent must be an integer")
        if k < 0:
            return self.inverse() ** (-k)
        if not k:
            return ONE
        # square-and-multiply: k.bit_length() - 1 squarings and popcount(k) - 1
        # multiplications
        out, base = None, self
        while True:
            if k & 1:
                out = base if out is None else out * base
            k >>= 1
            if not k:
                return out
            base = base * base

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other):
        if type(other) is not ExtRational:
            try:
                other = ExtRational.coerce(other)
            except TypeError:
                return NotImplemented
        return (
            self._p == other._p
            and self._q == other._q
            and self._d == other._d
            and self._r == other._r
        )

    def __hash__(self):
        # a rational value hashes like the equal int or Fraction
        if not self._q:
            return hash(Fraction(self._p, self._d))
        return hash((self._p, self._q, self._d, self._r))

    def __lt__(self, other):
        return (self - ExtRational.coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - ExtRational.coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - ExtRational.coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - ExtRational.coerce(other)).sign() >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __float__(self):
        d = self._d
        return self._p / d + self._q / d * math.sqrt(self._r)

    def __bool__(self):
        return bool(self._p or self._q)

    # -- text form --------------------------------------------------------

    def __str__(self):
        return format_parts(self._p, self._q, self._d, self._r)

    def __repr__(self):
        return f"ExtRational({self})"


def format_parts(p: int, q: int, d: int, r: int) -> str:
    """The text of (p + q*sqrt(r))/d, d > 0, that every text format writes and
    parse_parts reads: 'a/b' or 'a/b+c/e*sqrt(r)', each fraction reduced."""
    g = _gcd(p, d)
    a = f"{p // g}/{d // g}"
    if not q:
        return a
    g = _gcd(q, d)
    return f"{a}{'+' if q > 0 else '-'}{abs(q) // g}/{d // g}*sqrt({r})"


_RATIONAL = re.compile(r"([+-]?)(?:([0-9]+)(?:/([0-9]+))?|([0-9]*)\.([0-9]*))")
_RADICAND = re.compile(r"\*sqrt\((-?)([0-9]+)\)")


def _parse_rational(text: str, whole: str) -> tuple:
    """(numerator, denominator) of 'p', 'p/q' or a finite decimal, with
    denominator > 0; the integers are no longer than the text."""
    m = _RATIONAL.fullmatch(text)
    if m is None or (m[2] is None and not (m[4] or m[5])):
        raise ValueError(f"malformed coefficient {whole!r}")
    sign = -1 if m[1] == "-" else 1
    if m[2] is not None:
        den = int(m[3]) if m[3] is not None else 1
        if den == 0:
            raise ValueError(f"zero denominator in coefficient {whole!r}")
        return sign * int(m[2]), den
    frac = m[5]
    return sign * int((m[4] + frac) or "0"), 10 ** len(frac)


def parse_ext_rational(text: str) -> ExtRational:
    """Parse 'p', 'p/q', 'p/q+r/s*sqrt(n)', 'p/q-r/s*sqrt(n)' or 'r/s*sqrt(n)'
    with nonnegative integer n, where each rational may also be a finite
    decimal ('-1.25'); spaces are ignored.  Exponents, '_' separators, zero
    denominators and negative radicands raise ValueError."""
    return _make(*parse_parts(text))


def parse_parts(text: str) -> tuple:
    """The integers (p, q, d, r) of the value (p + q*sqrt(r))/d that
    parse_ext_rational reads from text: d > 0, r = 0 unless q != 0 and r is
    not a perfect square, no common factor taken out."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty coefficient string")
    star = s.find("*sqrt(")
    if star == -1:
        p, d = _parse_rational(s, text)
        return p, 0, d, 0
    root = _RADICAND.fullmatch(s, star)
    if root is None:
        raise ValueError(f"malformed coefficient {text!r}")
    if root[1]:
        raise ValueError(f"negative radicand in coefficient {text!r}")
    head = s[:star]
    # the sqrt coefficient starts at the last sign that is not the leading one
    split = max(head.rfind("+"), head.rfind("-"))
    if split > 0:
        pa, da = _parse_rational(head[:split], text)
        pb, db = _parse_rational(head[split:], text)
    else:
        pa, da = 0, 1
        pb, db = _parse_rational(head, text)
    return _folded(pa * db, pb * da, da * db, int(root[2]))


ZERO = ExtRational(0)
ONE = ExtRational(1)

"""The integer form is a Polynomial's state: packed monomials and numerators
over Z[sqrt(r)] with one common denominator.  Every operation on it must
equal the ExtRational loops below, term order included where float
evaluation reads it, and RadicandMismatch must come exactly where the
ExtRational loops raise it."""

import random
from fractions import Fraction

import numpy as np
import pytest

import pmicert.algebra as algebra
from pmicert.algebra import PolyMatrix, Polynomial, SymPolyMatrix, congruence
from pmicert.ring import ExtRational, RadicandMismatch


# -- ExtRational oracles ------------------------------------------------------


def _clean(n, terms):
    return Polynomial(n, {a: c for a, c in terms.items() if c})


def oracle_add(f, g):
    out = dict(f.terms)
    for a, c in g.terms.items():
        out[a] = out[a] + c if a in out else c
    return _clean(f.nvars, out)


def oracle_neg(f):
    return _clean(f.nvars, {a: -c for a, c in f.terms.items()})


def oracle_scale(f, s):
    return _clean(f.nvars, {a: c * s for a, c in f.terms.items()})


def oracle_mul(f, g):
    out = {}
    for a, c in f.terms.items():
        for b, d in g.terms.items():
            key = tuple(x + y for x, y in zip(a, b))
            out[key] = out[key] + c * d if key in out else c * d
    return _clean(f.nvars, out)


def oracle_matmul(A, B):
    rows = []
    for i in range(A.rows):
        row = []
        for j in range(B.cols):
            acc = Polynomial.zero(A.nvars)
            for k in range(A.cols):
                acc = oracle_add(acc, oracle_mul(A[i, k], B[k, j]))
            row.append(acc)
        rows.append(row)
    return rows


def oracle_text(f):
    if not f.terms:
        return "(0/1) * " + ("*".join(f"x{i + 1}^0" for i in range(f.nvars)) or "1")
    parts = []
    for a in sorted(f.terms, key=lambda a: (sum(a), a), reverse=True):
        mono = "*".join(f"x{i + 1}^{e}" for i, e in enumerate(a)) or "1"
        parts.append(f"({f.terms[a]}) * {mono}")
    return " + ".join(parts)


def oracle_float(f, batch):
    total = np.zeros(len(batch))
    for a, c in f.terms.items():
        mono = np.ones(len(batch))
        for i, e in enumerate(a):
            for _ in range(e):
                mono *= batch[:, i]
        total += mono * float(c)
    return total


def outcome(fn):
    """fn()'s value, or the name of the RadicandMismatch it raised."""
    try:
        return fn()
    except RadicandMismatch:
        return "RadicandMismatch"


# -- random inputs -------------------------------------------------------------


def coefficient(rng, surds):
    a = Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6, 7, 10, 12, 35]))
    surd = rng.choice(surds)
    if surd and rng.random() < 0.5:
        return ExtRational(a, Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 5, 9])), surd)
    return ExtRational(a or 1)


def poly(rng, n, surds, pool):
    if rng.random() < 0.1:
        return Polynomial.zero(n)
    return Polynomial(n, {mu: coefficient(rng, surds) for mu in rng.sample(pool, rng.randint(1, len(pool)))})


def pool(rng, n, top=3):
    return [tuple(rng.randint(0, top) for _ in range(n)) for _ in range(6)]


# one radicand, or sqrt(2) and sqrt(3) mixed in one polynomial
CASES = [(seed, surds) for seed in range(12) for surds in ((0,), (0, 2), (0, 3), (0, 2, 3))]


class TestOracles:
    @pytest.mark.parametrize("seed, surds", CASES)
    def test_linear_operations(self, seed, surds):
        rng = random.Random(seed)
        n = rng.randint(0, 3)
        monos = pool(rng, n)
        for _ in range(25):
            f, g = poly(rng, n, surds, monos), poly(rng, n, surds, monos)
            s = coefficient(rng, surds)
            for new, old in ((lambda: f + g, lambda: oracle_add(f, g)),
                             (lambda: f - g, lambda: oracle_add(f, oracle_neg(g))),
                             (lambda: -f, lambda: oracle_neg(f)),
                             (lambda: f * s, lambda: oracle_scale(f, s)),
                             (lambda: s * f, lambda: oracle_scale(f, s)),
                             (lambda: f + s, lambda: oracle_add(f, Polynomial.const(n, s)))):
                got, want = outcome(new), outcome(old)
                assert got == want
                if want != "RadicandMismatch":
                    # same terms in the same order, as ExtRationals
                    assert list(got.terms.items()) == list(want.terms.items())

    @pytest.mark.parametrize("seed, surds", CASES)
    def test_products(self, seed, surds):
        rng = random.Random(100 + seed)
        n = rng.randint(1, 3)
        monos = pool(rng, n)
        for _ in range(20):
            f, g = poly(rng, n, surds, monos), poly(rng, n, surds, monos)
            got, want = outcome(lambda: f * g), outcome(lambda: oracle_mul(f, g))
            assert got == want
            if want != "RadicandMismatch":
                assert list(got.terms) == list(want.terms)

    @pytest.mark.parametrize("seed, surds", CASES)
    def test_matmul_and_congruence(self, seed, surds):
        rng = random.Random(200 + seed)
        n = rng.randint(1, 2)
        monos = pool(rng, n)
        rows, inner, cols = (rng.randint(1, 3) for _ in range(3))
        A = PolyMatrix([[poly(rng, n, surds, monos) for _ in range(inner)] for _ in range(rows)])
        B = PolyMatrix([[poly(rng, n, surds, monos) for _ in range(cols)] for _ in range(inner)])
        got = outcome(lambda: (A @ B).entries)
        assert got == outcome(lambda: oracle_matmul(A, B))
        G = SymPolyMatrix.from_upper(rows, {(i, j): poly(rng, n, surds[:2], monos)
                                            for i in range(rows) for j in range(i, rows)}, n)
        got = outcome(lambda: congruence(A, G).entries)
        want = outcome(lambda: oracle_matmul(A.transpose(), PolyMatrix(oracle_matmul(G, A))))
        assert got == want

    @pytest.mark.parametrize("seed, surds", CASES)
    def test_equality_hash_text_terms_float(self, seed, surds):
        rng = random.Random(300 + seed)
        n = rng.randint(0, 3)
        monos = pool(rng, n)
        batch = np.array([[rng.uniform(-2, 2) for _ in range(n)] for _ in range(4)]).reshape(4, n)
        for _ in range(20):
            f, g = poly(rng, n, surds, monos), poly(rng, n, surds, monos)
            # a sum built in the other order: equal, with other term orders
            try:
                fg, gf = f + g, g + f
            except RadicandMismatch:
                continue
            assert fg == gf and hash(fg) == hash(gf)
            assert (fg == f) == (fg.terms == f.terms)
            for p in (f, fg, -f):
                rebuilt = Polynomial(n, dict(reversed(list(p.terms.items()))))
                assert rebuilt == p and hash(rebuilt) == hash(p)
                assert p.to_text() == oracle_text(p)
                assert all(type(c) is ExtRational and c for c in p.terms.values())
                assert np.array_equal(p.evaluate_float(batch), oracle_float(p, batch))
        assert (f + 1 != f) and Polynomial.zero(n) == Polynomial(n, {})

    def test_radicand_mismatch_where_ext_rational_raises(self):
        x = Polynomial.variable(1, 0)
        r2, r3 = ExtRational.sqrt(2), ExtRational.sqrt(3)
        f = Polynomial(1, {(0,): r2, (1,): r3})     # mixed radicands, apart
        # sqrt(2) x + sqrt(3) x in one coefficient
        for fn in (lambda: f * (x + 1), lambda: f + x * r2, lambda: f * f, lambda: f * r2):
            assert outcome(fn) == "RadicandMismatch"
        for fn in (lambda: oracle_mul(f, x + 1), lambda: oracle_add(f, oracle_scale(x, r2)),
                   lambda: oracle_mul(f, f), lambda: oracle_scale(f, r2)):
            assert outcome(fn) == "RadicandMismatch"
        # apart they never meet, and a rational factor keeps them apart
        assert f * (x * x + 2) == oracle_mul(f, x * x + 2)
        assert f + x * x * r2 == oracle_add(f, oracle_scale(x * x, r2))
        # a sqrt(2) part cancelled to zero meets sqrt(3) as a rational value
        assert (f - Polynomial.const(1, r2)) + Polynomial.const(1, r3) == \
            Polynomial(1, {(0,): r3, (1,): r3})


class TestParse:
    def test_a_repeated_monomial_is_summed(self):
        from pmicert.algebra import parse_polynomial

        p = parse_polynomial("(1/1) * x1^1*x2^0 + (1/2*sqrt(2)) * x1^0*x2^0 + (2/1) * x1^1*x2^0", 2)
        want = Polynomial(2, {(1, 0): 3, (0, 0): ExtRational(0, Fraction(1, 2), 2)})
        assert p == want and list(p.terms.items()) == list(want.terms.items())
        # summed to zero, and back to the zero polynomial
        assert parse_polynomial("(1/3) * x1^2 + (-1/3) * x1^2", 1) == Polynomial.zero(1)
        # two radicands in one coefficient raise as ExtRational addition does
        with pytest.raises(RadicandMismatch):
            parse_polynomial("(1*sqrt(2)) * x1^1 + (1*sqrt(3)) * x1^1", 1)
        # written over other denominators, a coefficient still reads in lowest terms
        assert parse_polynomial("(2/4) * x1^1 + (3/9) * x1^0", 1) == \
            Polynomial(1, {(1,): Fraction(1, 2), (0,): Fraction(1, 3)})


class TestPacking:
    """Monomials are packed into fields of w bits, w = 8 2^j with every
    degree below 2^(w-1): an exponent past a field widens the packing and
    never carries into the next field."""

    @pytest.mark.parametrize("top", [63, 64, 127, 128, 255, 256, 32767, 32768, 10**6])
    def test_field_boundaries(self, top):
        rng = random.Random(top)
        for n in (1, 2, 3):
            monos = [tuple(rng.choice([0, 1, top // 2, top - 1, top]) for _ in range(n))
                     for _ in range(4)] + [(0,) * n]
            f = Polynomial(n, {mu: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for mu in monos})
            g = Polynomial(n, {mu: rng.randint(-5, 5) or 1 for mu in monos[::-1]})
            for got, want in ((f * g, oracle_mul(f, g)), (f * f, oracle_mul(f, f)),
                              (f + g, oracle_add(f, g))):
                assert got == want and list(got.terms) == list(want.terms)
                assert got.degree == max((sum(a) for a in want.terms), default=-1)
                assert got.degree < 2 ** (got._w - 1)
            h = f.homogenize(f.degree + top)
            assert h.dehomogenize() == f and h.degree == f.degree + top

    def test_a_carry_would_be_seen(self):
        # x1^127 x2^0 and x1^0 x2^255: 8-bit fields would carry x2 into x1
        x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        p = x1 ** 127 + x2 ** 127
        sq = p * p
        assert sq.terms == {(254, 0): 1, (127, 127): 2, (0, 254): 1}
        assert sq._w == 16 and p._w == 8
        # and back: a difference of degree below 128 is packed narrow again
        low = (sq + x1) - sq
        assert low == x1 and low._w == 8 and low._f == x1._f

    def test_homogeneity_from_the_packed_keys(self):
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        M = SymPolyMatrix([[x ** 200, x * y], [x * y, Polynomial.zero(2)]])
        assert not M.is_homogeneous_of(200) and not M.is_homogeneous_of(2)
        N = SymPolyMatrix([[x ** 200, y ** 200], [y ** 200, x ** 100 * y ** 100]])
        assert N.is_homogeneous_of(200) and not N.is_homogeneous_of(199)
        assert SymPolyMatrix.zero(2, 2).is_homogeneous_of(5)

    def test_width_grows_with_degree(self):
        assert [algebra._width(d) for d in (0, 127, 128, 32767, 32768, 2**31 - 1, 2**31)] == \
            [8, 8, 16, 16, 32, 32, 64]


class TestNoCoefficientRead:
    """Arithmetic, comparison and printing work on the integers: no
    ExtRational is built for a coefficient unless a reader asks for one."""

    def test_arithmetic_builds_no_ext_rational(self, monkeypatch):
        rng = random.Random(7)
        n = 2
        monos = pool(rng, n)
        G = SymPolyMatrix.from_upper(3, {(i, j): poly(rng, n, (0, 2), monos)
                                         for i in range(3) for j in range(i, 3)}, n)
        v = PolyMatrix.column([poly(rng, n, (0, 2), monos) for _ in range(3)])
        f, g = v[0, 0], v[1, 0]
        expected = [congruence(v, G), G @ v, f + g, f - g, -f, f * g]

        def refuse(*args):
            raise AssertionError("an ExtRational coefficient was built")

        monkeypatch.setattr(algebra, "_make", refuse)
        results = [congruence(v, G), G @ v, f + g, f - g, -f, f * g, f * 3, f ** 3]
        assert results[:6] == expected
        assert hash(results[2]) == hash(expected[2])
        text = results[0][0, 0].to_text()
        assert text and results[0][0, 0].degree >= 0


class TestFloatsFromIntegers:
    """evaluate_float reads each coefficient (p + q sqrt(r))/L as p/L +
    q/L sqrt(r): no ExtRational is built, and each value is the float() of
    the coefficient, summed term by term, bit for bit."""

    BIG = 2 ** 60 + 7  # numerators past 2^53: rounded, not exact, as floats

    def entries(self, rng, surd):
        n = 2
        monos = pool(rng, n)
        out = []
        for _ in range(3):
            terms = {}
            for mu in rng.sample(monos, 4):
                a = Fraction(rng.randint(-self.BIG, self.BIG), rng.choice([3, 7, 2 ** 61 + 1]))
                b = Fraction(rng.randint(-self.BIG, self.BIG), 5) if surd else 0
                terms[mu] = ExtRational(a, b, surd)
            # a product: its terms are the integer form's, never seen as ExtRationals
            out.append(Polynomial(n, terms) * (Polynomial.variable(n, 0) + 1))
        return out

    @pytest.mark.parametrize("surd", [0, 2, 3])
    def test_no_ext_rational_and_bit_equal(self, surd, monkeypatch):
        rng = random.Random(surd)
        batch = np.array([[rng.uniform(-2, 2) for _ in range(2)] for _ in range(5)])
        # the oracle reads the terms of equal polynomials made apart
        want = [oracle_float(p, batch) for p in self.entries(random.Random(surd), surd)]
        f, g, h = self.entries(random.Random(surd), surd)
        M = SymPolyMatrix.from_upper(2, {(0, 0): f, (0, 1): g, (1, 1): h}, 2)

        def refuse(*args):
            raise AssertionError("an ExtRational coefficient was built")

        monkeypatch.setattr(algebra, "_make", refuse)
        for p, values in zip((f, g, h), want):
            assert np.array_equal(p.evaluate_float(batch), values)
            assert p.evaluate_float(batch[2]) == values[2]
        stack = M.evaluate_float(batch)
        assert np.array_equal(stack[:, 0, 0], want[0]) and np.array_equal(stack[:, 1, 1], want[2])
        assert np.array_equal(stack[:, 0, 1], want[1]) and np.array_equal(stack[:, 1, 0], want[1])
        assert np.array_equal(M.evaluate_float(batch[3]), stack[3])


class TestPublicConstructor:
    """Polynomial(nvars, terms) goes through polynomial_from_parts."""

    def test_repeated_exponents_are_summed_in_term_order(self):
        # ("1", "0") and (1, 0) are one exponent after int()
        p = Polynomial(2, {("1", "0"): 1, (0, 1): 2, (1, 0): Fraction(1, 2), (0, 0): 0})
        assert list(p.terms.items()) == [((1, 0), Fraction(3, 2)), ((0, 1), 2)]
        q = Polynomial(1, {("2",): 1, (0,): 5, (2,): -1})
        assert list(q.terms.items()) == [((0,), 5)] and q._w == 8

    def test_zero_keeps_width_8(self):
        x = Polynomial.variable(1, 0)
        for zero in (Polynomial(1, {(200,): 0}), Polynomial(1, {(200,): 1, ("200",): -1}),
                     x ** 200 - x ** 200):
            assert zero.is_zero() and zero._w == 8 and zero._f == Polynomial.zero(1)._f

    def test_radicands_meet_only_in_one_monomial(self):
        r2, r3 = ExtRational.sqrt(2), ExtRational.sqrt(3)
        with pytest.raises(RadicandMismatch):
            Polynomial(1, {("1",): r2, (1,): r3})
        p = Polynomial(1, {(1,): r2, (0,): r3})
        assert p.terms == {(1,): r2, (0,): r3}
        # a sqrt(2) part summed to zero leaves sqrt(3) alone, as ExtRational does
        assert Polynomial(1, {("1",): r2, (1,): -r2, ("01",): r3}).terms == {(1,): r3}

    def test_terms_are_equal_across_reads(self):
        p = Polynomial(2, {(1, 0): ExtRational(1, 2, 3), (0, 2): Fraction(-1, 4)}) * 3
        first, second = p.terms, p.terms
        assert first == second and list(first) == list(second) and first is not second


class TestPowerSquarings:
    """p**k makes k.bit_length() - 1 squarings and popcount(k) - 1 other
    products; ExtRational ** the same number of multiplications."""

    @pytest.mark.parametrize("k", range(1, 18))
    def test_polynomial_power(self, k, monkeypatch):
        x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        p = (x + 2 * y + Fraction(1, 3)) * (x - y + 1)   # 5 terms
        calls = []
        real = algebra._accumulate
        monkeypatch.setattr(algebra, "_accumulate", lambda items: calls.append(1) or real(items))
        got = p ** k
        products = k.bit_length() - 1 + bin(k).count("1") - 1
        assert len(calls) == products
        monkeypatch.undo()
        want = Polynomial.const(2, 1)
        for _ in range(k):
            want = oracle_mul(want, p)
        assert got == want

    @pytest.mark.parametrize("k", range(0, 18))
    def test_ext_rational_power(self, k, monkeypatch):
        v = ExtRational(Fraction(2, 3), Fraction(1, 5), 7)
        want = ExtRational(1)
        for _ in range(k):
            want = want * v
        calls = []
        real = ExtRational.__mul__
        monkeypatch.setattr(ExtRational, "__mul__", lambda a, b: calls.append(1) or real(a, b))
        got = v ** k
        monkeypatch.undo()
        assert got == want
        assert len(calls) == (k.bit_length() - 1 + bin(k).count("1") - 1 if k else 0)
        assert v ** -k == want.inverse()

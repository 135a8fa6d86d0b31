import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import sympy

from pmicert.ring import ExtRational, RadicandMismatch
from pmicert.algebra import (
    PolyMatrix,
    Polynomial,
    RationalSymMatrix,
    SymPolyMatrix,
    congruence,
    ldlt,
    min_eigenvalue_numeric,
    monomials_upto,
    parse_polynomial,
    psd_exact,
)
from conftest import random_poly, random_sym_matrix


def x(nvars=1, i=0):
    return Polynomial.variable(nvars, i)


class TestPolynomialArithmetic:
    def test_expansion_identity(self):
        p = x()
        assert (p + 1) * (p - 1) == p * p - 1

    def test_additive_identity(self):
        p = random_poly(random.Random(1), 2, 3)
        assert p + Polynomial.zero(2) == p

    def test_monomial_product(self):
        p = 2 * x()
        q = 3 * x() * x()
        assert p * q == Polynomial(1, {(3,): 6})

    def test_nvars_mismatch(self):
        with pytest.raises(ValueError):
            x(1) + x(2)

    def test_ring_axioms_random(self, rng):
        for _ in range(25):
            p = random_poly(rng, 2, 2)
            q = random_poly(rng, 2, 2)
            r = random_poly(rng, 2, 2)
            assert (p + q) * r == p * r + q * r
            assert p * q == q * p
            assert (p * q) * r == p * (q * r)

    def test_evaluate(self):
        p = x() * x() - 1
        assert p.evaluate([2]) == ExtRational(3)
        assert p.evaluate([Fraction(1, 2)]) == ExtRational(Fraction(-3, 4))
        q = random_poly(random.Random(3), 2, 3)
        assert q.evaluate([0, 0]) == q.coeff((0, 0))
        with pytest.raises(ValueError):
            p.evaluate([1, 2])


class TestInternalResults:
    """Sums, negations and products are built from integer forms, which
    skips the validation of the public constructor."""

    @staticmethod
    def _check(result: Polynomial):
        assert all(not c.is_zero() for c in result.terms.values())
        assert all(type(c) is ExtRational for c in result.terms.values())
        assert result == Polynomial(result.nvars, result.terms)

    def test_cancellation_leaves_no_zero_terms(self, rng):
        for _ in range(20):
            p = random_poly(rng, 2, 3)
            q = random_poly(rng, 2, 2)
            for result in (p + (-p), p - p, (p + q) - q - p, p * 0, 0 * p):
                self._check(result)
                assert result.terms == {}
            self._check((p + q) - q)
            assert (p + q) - q == p
        y = x(2, 1)
        prod = (x(2) + y) * (x(2) - y)          # the x*y terms cancel
        self._check(prod)
        assert set(prod.terms) == {(2, 0), (0, 2)}
        s2 = Polynomial.const(1, ExtRational.sqrt(2))
        conj = (x() + s2) * (x() - s2)          # the sqrt(2)*x terms cancel
        self._check(conj)
        assert conj == x() * x() - 2

    def test_results_equal_validated_construction(self, rng):
        for _ in range(20):
            p = random_poly(rng, 3, 2)
            q = random_poly(rng, 3, 2)
            c = ExtRational(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), rng.randint(-2, 2), 3)
            for result in (p + q, p - q, -p, p * q, p * c, p * q - q * p):
                self._check(result)

    def test_public_constructor_still_validates(self):
        with pytest.raises(ValueError, match="wrong length"):
            Polynomial(2, {(1,): 1})
        with pytest.raises(ValueError, match="wrong length"):
            Polynomial(1, {(1, 0): 1})
        with pytest.raises(ValueError, match="negative exponent"):
            Polynomial(2, {(1, -1): 1})
        with pytest.raises(TypeError):
            Polynomial(1, {(1,): 0.5})
        assert Polynomial(1, {(1,): 0, (0,): "1/2"}).terms == {(0,): ExtRational(Fraction(1, 2))}


class TestHomogenize:
    def test_simple(self):
        p = x() * x() + 1
        h = p.homogenize(2)
        assert h == Polynomial(2, {(0, 2): 1, (2, 0): 1})

    def test_shifted_square(self):
        p = (x() - 2) ** 2 + 1
        h = p.homogenize(2)
        # x^2 - 4 x x0 + 5 x0^2
        assert h == Polynomial(2, {(0, 2): 1, (1, 1): -4, (2, 0): 5})

    def test_constant(self):
        c = Polynomial.const(2, Fraction(5, 3))
        assert c.homogenize(0) == Polynomial.const(3, Fraction(5, 3))

    def test_degree_error(self):
        with pytest.raises(ValueError):
            (x() ** 3).homogenize(2)

    def test_round_trip_random(self, rng):
        for _ in range(20):
            p = random_poly(rng, 2, 3)
            d = max(p.degree, 0)
            assert p.homogenize(d).dehomogenize() == p
            # every term reaches the target degree exactly
            h = p.homogenize(d + 2)
            assert all(sum(a) == d + 2 for a in h.terms)


class TestCongruence:
    def test_unit_column_extracts_entry(self, rng):
        G = random_sym_matrix(rng, 2, 1, 2)
        e1 = PolyMatrix.column([Polynomial.const(1, 1), Polynomial.zero(1)])
        assert congruence(e1, G)[0, 0] == G[0, 0]

    def test_identity(self, rng):
        G = random_sym_matrix(rng, 3, 2, 1)
        assert congruence(PolyMatrix.identity(3, 2), G) == G

    def test_sum_column(self, rng):
        G = random_sym_matrix(rng, 2, 1, 2)
        e12 = PolyMatrix.column([Polynomial.const(1, 1), Polynomial.const(1, 1)])
        assert congruence(e12, G)[0, 0] == G[0, 0] + 2 * G[0, 1] + G[1, 1]

    def test_composition(self, rng):
        for _ in range(5):
            G = random_sym_matrix(rng, 2, 1, 1)
            P = PolyMatrix([[random_poly(rng, 1, 1) for _ in range(2)] for _ in range(2)])
            Q = PolyMatrix([[random_poly(rng, 1, 1) for _ in range(2)] for _ in range(2)])
            assert congruence(P @ Q, G) == congruence(Q, congruence(P, G))

    def test_degree_bound(self, rng):
        G = random_sym_matrix(rng, 2, 1, 2)
        P = PolyMatrix([[random_poly(rng, 1, 2) for _ in range(2)] for _ in range(2)])
        out = congruence(P, G)
        assert out.degree <= 2 * P.degree + G.degree

    def test_dimension_mismatch(self, rng):
        G = random_sym_matrix(rng, 2, 1, 1)
        bad = PolyMatrix.column([Polynomial.const(1, 1)] * 3)
        with pytest.raises(ValueError):
            congruence(bad, G)


def _oracle_mul(f: Polynomial, g: Polynomial) -> Polynomial:
    """The ExtRational double loop that Polynomial.__mul__ replaced: every
    product and sum a normalised coefficient."""
    if f.nvars != g.nvars:
        raise ValueError("variable count mismatch")
    out = {}
    for a1, c1 in f.terms.items():
        for a2, c2 in g.terms.items():
            key = tuple(e1 + e2 for e1, e2 in zip(a1, a2))
            prev = out.get(key)
            out[key] = c1 * c2 if prev is None else prev + c1 * c2
    return Polynomial(f.nvars, out)


def _oracle_matmul(A: PolyMatrix, B: PolyMatrix) -> list:
    """Entries of A @ B as the ExtRational loop built them: each from the zero
    polynomial by a chain of + over the oracle products."""
    out = []
    for i in range(A.rows):
        row = []
        for j in range(B.cols):
            acc = Polynomial.zero(A.nvars)
            for k in range(A.cols):
                acc = acc + _oracle_mul(A[i, k], B[k, j])
            row.append(acc)
        out.append(row)
    return out


class TestProductKernel:
    """*, @ and congruence multiply in integers over per-operand common
    denominators; they must equal the ExtRational loops they replaced."""

    @staticmethod
    def _poly(rng, n, surd, pool):
        if rng.random() < 0.15:
            return Polynomial.zero(n)
        terms = {}
        for mu in rng.sample(pool, rng.randint(1, len(pool))):
            # denominators over several primes, so one entry's pairs differ
            a = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 5, 7, 12, 35]))
            if surd and rng.random() < 0.6:
                b = Fraction(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2, 5, 9]))
                terms[mu] = ExtRational(a, b, surd)
            else:
                terms[mu] = ExtRational(a or 1)
        return Polynomial(n, terms)

    def _matrix(self, rng, rows, cols, n, surd, pool):
        return PolyMatrix([[self._poly(rng, n, surd, pool) for _ in range(cols)]
                           for _ in range(rows)])

    @staticmethod
    def _pool(rng, n):
        # few monomials, so products and entries meet on the same keys
        return [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(5)]

    @staticmethod
    def _clean(p: Polynomial):
        assert all(type(c) is ExtRational and c for c in p.terms.values())

    CASES = [(seed, surd) for seed in range(10) for surd in (0, 2, 3)]

    @pytest.mark.parametrize("seed, surd", CASES)
    def test_mul_equals_oracle(self, seed, surd):
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        pool = self._pool(rng, n)
        for _ in range(20):
            f, g = self._poly(rng, n, surd, pool), self._poly(rng, n, surd, pool)
            prod, expected = f * g, _oracle_mul(f, g)
            self._clean(prod)
            assert prod == expected
            # the same key order as well: float evaluation sums in it
            assert list(prod.terms) == list(expected.terms)

    @pytest.mark.parametrize("seed, surd", CASES)
    def test_matmul_and_congruence_equal_oracle(self, seed, surd):
        rng = random.Random(50 + seed)
        n = rng.randint(1, 3)
        pool = self._pool(rng, n)
        rows, inner, cols = (rng.randint(1, 3) for _ in range(3))
        A = self._matrix(rng, rows, inner, n, surd, pool)
        B = self._matrix(rng, inner, cols, n, surd, pool)
        prod = A @ B
        assert prod.entries == _oracle_matmul(A, B)
        for p in (q for row in prod.entries for q in row):
            self._clean(p)
        G = random_sym_matrix(rng, rows, n, 2)
        expected = _oracle_matmul(A.transpose(), PolyMatrix(_oracle_matmul(G, A)))
        assert congruence(A, G).entries == expected

    @pytest.mark.parametrize("surd", (0, 2))
    def test_unit_coefficient_products_equal_oracle(self, surd):
        rng = random.Random(70 + surd)
        n = 2
        pool = self._pool(rng, n)
        for _ in range(20):
            f = self._poly(rng, n, surd, pool)
            # by the scalar 1 the operand itself comes back
            for one in (1, ExtRational(1), Fraction(1)):
                assert f * one is f and one * f is f
            for mono in [(0, 0)] + pool:
                unit = Polynomial(n, {mono: 1})
                for prod in (f * unit, unit * f):
                    expected = _oracle_mul(f, unit)
                    self._clean(prod)
                    assert prod == expected
                    assert list(prod.terms) == list(expected.terms)
            # other one-term coefficients still multiply
            c = Polynomial(n, {pool[0]: ExtRational(Fraction(-2, 3))})
            assert f * c == _oracle_mul(f, c) == c * f

    def test_cancellation_leaves_no_zero_terms(self):
        p = x(2) * Fraction(1, 3) + x(2, 1) * Fraction(2, 7)
        q = x(2) * x(2, 1) * Fraction(5, 2) - 1
        # p q - q p across the pairs of one entry, over different denominators
        entry = (PolyMatrix([[p, q]]) @ PolyMatrix.column([q, -p]))[0, 0]
        assert entry.terms == {}
        s2 = Polynomial.const(2, ROOT2)
        entry = (PolyMatrix([[s2 + x(2), s2 - x(2)]])
                 @ PolyMatrix.column([s2 - x(2), -(s2 + x(2))]))[0, 0]
        assert entry.terms == {}
        # within one product: the sqrt(2)*x terms cancel, and x^2 - 2 is left
        prod = (x(2) + s2) * (x(2) - s2)
        self._clean(prod)
        assert prod == x(2) * x(2) - 2

    def test_nvars_mismatch_raises(self):
        with pytest.raises(ValueError, match="variable count"):
            (x(1) + 1) * (x(2) + 1)
        with pytest.raises(ValueError, match="variable count"):
            PolyMatrix([[x(1), x(1)]]) @ PolyMatrix.column([x(2), x(2)])
        # an inner dimension of 1 goes through *
        with pytest.raises(ValueError, match="variable count"):
            PolyMatrix.column([x(1)]) @ PolyMatrix([[x(2) + 1]])

    def test_mixed_radicands(self):
        root3 = ExtRational.sqrt(3)
        f = Polynomial(1, {(0,): ROOT2, (1,): root3})
        g = Polynomial(1, {(0,): 1, (2,): 5})
        # sqrt(2) and sqrt(3) never meet in one coefficient
        assert f * g == _oracle_mul(f, g) == Polynomial(
            1, {(0,): ROOT2, (1,): root3, (2,): ROOT2 * 5, (3,): root3 * 5})
        assert (PolyMatrix([[f, f]]) @ PolyMatrix.column([g, g]))[0, 0] == (f * g) * 2
        # they meet at x: sqrt(2) x + sqrt(3) x
        for a, b in [(f, x() + 1), (x() + 1, f)]:
            with pytest.raises(RadicandMismatch):
                _oracle_mul(a, b)
            with pytest.raises(RadicandMismatch):
                a * b
        row = PolyMatrix([[Polynomial.const(1, ROOT2), Polynomial.const(1, root3)]])
        with pytest.raises(RadicandMismatch):
            row @ PolyMatrix.column([x(), x()])
        # sqrt(2) times sqrt(3) in one product
        with pytest.raises(RadicandMismatch):
            f * f
        # a sqrt(2) part cancelled to zero meets sqrt(3) as a rational value,
        # as in the chain of + it replaced
        row = PolyMatrix([[Polynomial.const(1, c) for c in (ROOT2, -ROOT2, root3)]])
        col = PolyMatrix.column([x() + 1, x() + 1, x()])
        assert (row @ col).entries == _oracle_matmul(row, col)
        assert (row @ col)[0, 0] == x() * root3


class TestPsdExact:
    def test_examples(self):
        assert psd_exact(RationalSymMatrix([[2, 1], [1, 2]]), strict=True)
        assert not psd_exact(RationalSymMatrix([[1, 2], [2, 1]]))
        assert psd_exact(RationalSymMatrix([[0, 0], [0, 0]]))
        assert not psd_exact(RationalSymMatrix([[0, 0], [0, 0]]), strict=True)

    def test_no_size_cap(self):
        assert psd_exact(RationalSymMatrix.identity(12), strict=True)

    def test_irrational_entries(self):
        s2 = ExtRational.sqrt(2)
        M = RationalSymMatrix([[s2, ExtRational(1)], [ExtRational(1), s2]])
        assert psd_exact(M, strict=True)  # det = 2 - 1 = 1 > 0

    def test_agrees_with_numeric_sign(self):
        rng = random.Random(99)
        agree = 0
        for _ in range(200):
            size = rng.randint(1, 4)
            entries = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(size)]
                       for _ in range(size)]
            for i in range(size):
                for j in range(i + 1, size):
                    entries[j][i] = entries[i][j]
            M = RationalSymMatrix(entries)
            eig = min_eigenvalue_numeric(M)
            if abs(eig) <= 1e-11:  # margin guard: skip numerically-ambiguous draws
                continue
            assert psd_exact(M) == (eig > 0)
            agree += 1
        assert agree >= 190

    def test_matches_sympy_oracle(self):
        # sympy's radical Cholesky slows down sharply on Q[sqrt(2)] entries
        # beyond size 4, so the sqrt(2) draws stop there
        rng = random.Random(1)
        seen = Counter()
        for _ in range(2):
            for kind, entries in _oracle_cases(rng):
                oracle = sympy.Matrix([[_to_sympy(v) for v in row] for row in entries])
                psd, pd = oracle.is_positive_semidefinite, oracle.is_positive_definite
                assert psd is not None and pd is not None
                M = RationalSymMatrix(entries)
                assert psd_exact(M) == psd, (kind, entries)
                assert psd_exact(M, strict=True) == pd, (kind, entries)
                seen[kind, psd, pd] += 1
        assert seen["zero-row", True, False] >= 10
        assert seen["zero-pivot-nonzero-row", False, False] >= 10
        assert sum(v for (_, _, pd), v in seen.items() if pd) >= 20
        assert sum(v for (_, psd, _), v in seen.items() if not psd) >= 40

    def test_ldlt_reconstruction(self):
        M = RationalSymMatrix([[4, 2, 0], [2, 3, 1], [0, 1, 5]])
        cols, pivots = ldlt(M)
        size = M.size
        recon = [[sum((pivots[r] * cols[r][i] * cols[r][j] for r in range(len(pivots))),
                      ExtRational(0)) for j in range(size)] for i in range(size)]
        assert RationalSymMatrix(recon) == M

    def test_ldlt_rejects_indefinite(self):
        with pytest.raises(ValueError):
            ldlt(RationalSymMatrix([[1, 2], [2, 1]]))


ROOT2 = ExtRational.sqrt(2)


def _to_sympy(v: ExtRational):
    return sympy.Rational(v.a.numerator, v.a.denominator) + sympy.Rational(
        v.b.numerator, v.b.denominator
    ) * sympy.sqrt(v.radicand)


def _entry(rng, irrational: bool) -> ExtRational:
    v = ExtRational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    if irrational and rng.random() < 0.5:
        v = v + ROOT2 * rng.randint(-1, 1)
    return v


def _congruent(B, d):
    """B^T diag(d) B."""
    n = len(d)
    return [[sum((B[r][i] * d[r] * B[r][j] for r in range(n)), ExtRational(0))
             for j in range(n)] for i in range(n)]


def _oracle_cases(rng):
    """(kind, entries) for sizes 1-8: random symmetric (mostly indefinite),
    B^T D B with D > 0 (PD unless B is singular), and U^T D U with U unit upper
    triangular and one zero in D, so elimination meets a zero pivot with a
    zero row; bumping an entry right of that pivot makes the row nonzero."""
    for size in range(1, 9):
        for irrational in (False, True)[: 2 if size <= 4 else 1]:
            for _ in range(2):
                M = [[_entry(rng, irrational) for _ in range(size)] for _ in range(size)]
                yield "symmetric", [[M[min(i, j)][max(i, j)] for j in range(size)]
                                    for i in range(size)]
            B = [[_entry(rng, irrational) for _ in range(size)] for _ in range(size)]
            yield "gram", _congruent(B, [ExtRational(rng.randint(1, 3)) for _ in range(size)])
            U = [[ExtRational(1) if i == j else _entry(rng, irrational) if j > i
                  else ExtRational(0) for j in range(size)] for i in range(size)]
            d = [ExtRational(rng.randint(1, 3)) for _ in range(size)]
            k = rng.randrange(size)
            d[k] = ExtRational(0)
            M = _congruent(U, d)
            yield "zero-row", M
            if k < size - 1:
                j = rng.randrange(k + 1, size)
                M = [row[:] for row in M]
                M[k][j] = M[j][k] = M[k][j] + 1
                yield "zero-pivot-nonzero-row", M


def _full_row_ldlt(M: RationalSymMatrix):
    """The elimination ldlt replaced: every row updated from the pivot
    column on, the column read below the pivot."""
    n = M.size
    a = [row[:] for row in M.entries]
    cols, pivots = [], []
    for k in range(n):
        piv = a[k][k]
        if piv.sign() < 0:
            raise ValueError("matrix is not positive semidefinite (negative pivot)")
        if piv.sign() == 0:
            if any(not a[k][j].is_zero() for j in range(k, n)):
                raise ValueError("matrix is not positive semidefinite (zero pivot row)")
            continue
        inv = piv.inverse()
        col = [ExtRational(0)] * k + [ExtRational(1)] + [a[i][k] * inv for i in range(k + 1, n)]
        cols.append(col)
        pivots.append(piv)
        for i in range(k + 1, n):
            for j in range(k, n):
                a[i][j] = a[i][j] - col[i] * a[k][j]
    return cols, pivots


def _outcome(fn, M):
    try:
        return fn(M)
    except ValueError as exc:
        return str(exc)


class TestUpperTriangleLdlt:
    """ldlt updates the upper triangle only; its pivots, columns and verdicts
    must be those of the full-row elimination."""

    def test_matches_full_row_elimination(self, rng):
        seen = Counter()
        for kind, entries in _oracle_cases(rng):
            M = RationalSymMatrix(entries)
            got = _outcome(ldlt, M)
            assert got == _outcome(_full_row_ldlt, M)
            seen[kind, isinstance(got, str)] += 1
        assert seen["gram", False] >= 10 and seen["zero-row", False] >= 10
        assert seen["zero-pivot-nonzero-row", True] >= 3 and seen["symmetric", True] >= 10

    @pytest.mark.parametrize("surd", [3, 5])
    def test_matches_over_other_radicands(self, surd):
        rng = random.Random(surd)
        root = ExtRational.sqrt(surd)
        for size in range(1, 7):
            B = [[ExtRational(Fraction(rng.randint(-3, 3), rng.randint(1, 4))) + root * rng.randint(-1, 1)
                  for _ in range(size)] for _ in range(size)]
            d = [ExtRational(rng.randint(0, 2)) for _ in range(size)]
            for entries in (_congruent(B, d), [[B[min(i, j)][max(i, j)] for j in range(size)]
                                               for i in range(size)]):
                M = RationalSymMatrix(entries)
                assert _outcome(ldlt, M) == _outcome(_full_row_ldlt, M)


class TestNumericEigen:
    def test_examples(self):
        assert abs(min_eigenvalue_numeric(RationalSymMatrix.identity(3)) - 1) < 1e-12
        assert abs(min_eigenvalue_numeric(RationalSymMatrix([[2, 1], [1, 2]])) - 1) < 1e-12
        assert abs(min_eigenvalue_numeric(RationalSymMatrix([[3, 0], [0, -1]])) + 1) < 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            min_eigenvalue_numeric([[float("nan"), 0.0], [0.0, 1.0]])

    def test_entries_past_the_float_range(self):
        # scaled by a power of two, so a small eigenvalue stays exact and one
        # past the range is infinite with its sign
        big = 10**400
        assert min_eigenvalue_numeric(RationalSymMatrix([[big, 0], [0, 1]])) == 1.0
        assert min_eigenvalue_numeric(RationalSymMatrix([[big, 0], [0, -big]])) == -math.inf
        assert min_eigenvalue_numeric(RationalSymMatrix([[big, 1], [1, big]])) == math.inf
        surd = ExtRational(0, Fraction(big, 3), 2)  # big sqrt(2) / 3
        low = min_eigenvalue_numeric(RationalSymMatrix([[surd, 0], [0, Fraction(-3, 2)]]))
        assert low == -1.5

    def test_stack_matches_single_calls(self):
        gen = np.random.default_rng(3)
        for ell in (1, 2, 4):
            A = gen.standard_normal((25, ell, ell))
            stack = A + A.transpose(0, 2, 1)
            low = min_eigenvalue_numeric(stack)
            assert low.shape == (25,)
            assert list(low) == [min_eigenvalue_numeric(m) for m in stack]

    def test_non_finite_anywhere_in_stack_rejected(self):
        stack = np.tile(np.eye(3), (6, 1, 1))
        for bad in (float("nan"), float("inf")):
            poisoned = stack.copy()
            poisoned[4, 2, 1] = poisoned[4, 1, 2] = bad
            with pytest.raises(ValueError):
                min_eigenvalue_numeric(poisoned)


def _reference_eval(p: Polynomial, point):
    """The per-point loop the batch evaluator replaced, in the same term
    order, and the sum of the absolute term values (its rounding scale)."""
    total = scale = 0.0
    for alpha, c in p.terms.items():
        term = float(c) * np.prod(np.asarray(point) ** np.array(alpha))
        total += term
        scale += abs(term)
    return float(total), float(scale)


class TestBatchEvaluation:
    def test_batch_rows_equal_single_points(self, rng):
        gen = np.random.default_rng(7)
        for _ in range(12):
            n = rng.randint(1, 4)
            ell = rng.randint(1, 4)
            F = random_sym_matrix(rng, ell, n, rng.randint(0, 4))
            pts = gen.uniform(-1.5, 1.5, (9, n))
            batch = F.evaluate_float(pts)
            assert batch.shape == (9, ell, ell)
            for p, row in zip(pts, batch):
                assert np.array_equal(row, F.evaluate_float(p))
                # the old per-point loop took monomials from numpy's power,
                # which can differ from repeated products in the last bit
                for i in range(ell):
                    for j in range(ell):
                        ref, scale = _reference_eval(F[i, j], p)
                        assert abs(row[i, j] - ref) <= 16 * np.finfo(float).eps * scale
            poly = F[0, ell - 1]
            values = poly.evaluate_float(pts)
            assert list(values) == [poly.evaluate_float(p) for p in pts]

    @pytest.mark.parametrize("n", [2, 3])
    def test_batch_rows_equal_single_points_many(self, rng, n):
        # numpy's power can give other last bits by array layout on AVX-512
        # processors; IEEE products in Python floats are the layout-free
        # reference, summed in the same term order
        F = random_sym_matrix(rng, 2, n, 3)
        pts = np.random.default_rng(n).uniform(-1.5, 1.5, (2000, n))
        batch = F.evaluate_float(pts)
        for p, row in zip(pts, batch):
            assert np.array_equal(row, F.evaluate_float(p))
            for i in range(2):
                for j in range(2):
                    ref = 0.0
                    for alpha, c in F[i, j].terms.items():
                        mono = 1.0
                        for v, e in zip(p.tolist(), alpha):
                            for _ in range(e):
                                mono *= v
                        ref += mono * float(c)
                    assert row[i, j] == ref

    def test_batch_matches_exact_values(self, rng):
        for _ in range(8):
            n = rng.randint(1, 3)
            ell = rng.randint(1, 3)
            F = random_sym_matrix(rng, ell, n, 3)
            exact_pts = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
                         for _ in range(6)]
            batch = F.evaluate_float(np.array(exact_pts, dtype=float))
            for pt, mat in zip(exact_pts, batch):
                exact = F.evaluate(pt)
                for i in range(ell):
                    for j in range(ell):
                        ref = float(exact[i, j])
                        assert abs(mat[i, j] - ref) <= 1e-12 * max(1.0, abs(ref))

    def test_shared_monomial_table_is_bit_identical(self, rng):
        # one table of monomial values serves every entry of a matrix; each
        # entry must read exactly what its own evaluation gives
        gen = np.random.default_rng(11)
        for _ in range(10):
            n, ell = rng.randint(1, 4), rng.randint(1, 4)
            F = random_sym_matrix(rng, ell, n, rng.randint(1, 5))
            pts = gen.uniform(-2.0, 2.0, (37, n))
            batch = F.evaluate_float(pts)
            for i in range(ell):
                for j in range(ell):
                    assert np.array_equal(batch[:, i, j], F[i, j].evaluate_float(pts))

    def test_single_point_shapes(self):
        F = SymPolyMatrix([[x() + 1, x()], [x(), Polynomial.const(1, 2)]])
        assert F.evaluate_float([0.5]).shape == (2, 2)
        assert isinstance(F[0, 0].evaluate_float([0.5]), float)
        assert F[0, 0].evaluate_float([[0.5], [1.0]]).tolist() == [1.5, 2.0]


class TestTextForm:
    def test_round_trip_random(self, rng):
        for _ in range(50):
            p = random_poly(rng, rng.randint(1, 3), rng.randint(0, 3))
            assert parse_polynomial(p.to_text(), p.nvars) == p

    def test_sqrt_coefficients(self):
        p = Polynomial(2, {(1, 0): ExtRational(Fraction(1, 2), Fraction(-1, 3), 5)})
        assert parse_polynomial(p.to_text(), 2) == p

    @pytest.mark.parametrize("text", ["(1/1) * x1^1*x1^2", "(1/1) * x1^0*x1^0",
                                      "(1/1) * x1^0*x2^1 + (2/1) * x2^1*x1^0*x2^0"])
    def test_repeated_variable_rejected(self, text):
        with pytest.raises(ValueError, match="repeated"):
            parse_polynomial(text, 2)

    @pytest.mark.parametrize("text", ["(1) * y1^2", "(1) * x+1^2", "(1) * x1^1_0",
                                      "(1) * x1^ 2", "(1) * x1^+2", "(1) * x\u0663^1",
                                      "(1) * x1^2^3", "(1) * x1^2 *x2^1", "(1) * x^2"])
    def test_malformed_factor_rejected(self, text):
        # each used to parse as some other polynomial (x1^10 for 'x1^1_0',
        # x3 for the Arabic-Indic digit)
        with pytest.raises(ValueError, match="malformed monomial factor"):
            parse_polynomial(text, 3)

    def test_graded_lex_order(self):
        p = Polynomial(2, {(0, 0): 1, (2, 0): 1, (1, 1): 1})
        text = p.to_text()
        assert text.index("x1^2*x2^0") < text.index("x1^1*x2^1") < text.index("x1^0*x2^0")


def test_monomials_upto_count():
    from math import comb

    for n in range(1, 4):
        for d in range(5):
            assert len(monomials_upto(n, d)) == comb(n + d, n)


def _recursive_monomials(nvars, degree):
    """The enumeration monomials_upto replaced: recursive, then sorted by
    (degree, exponents)."""
    out = []

    def rec(prefix, remaining, budget):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for e in range(budget + 1):
            rec(prefix + [e], remaining - 1, budget - e)

    rec([], nvars, degree)
    return sorted(out, key=lambda alpha: (sum(alpha), alpha))


def test_monomials_upto_equals_recursive_enumeration():
    for n in range(5):
        for d in range(-1, 9):
            got = monomials_upto(n, d)
            assert got == _recursive_monomials(n, d), (n, d)
            # each lower degree is a prefix, as build_relaxation slices it
            for low in range(d + 1):
                assert got[:math.comb(n + low, n)] == monomials_upto(n, low)


class TestScaleArgument:
    def test_perfect_square_factor(self):
        from pmicert.algebra import scale_argument

        p = 1 - x() * x()
        assert scale_argument(p, 4) == 1 - 4 * (x() * x())

    def test_irrational_factor(self):
        from pmicert.algebra import scale_argument

        p = x() + 1
        scaled = scale_argument(p, 2)
        assert scaled.coeff((1,)) == ExtRational.sqrt(2)
        assert scaled.coeff((0,)) == ExtRational(1)
        # squares collapse back to rationals
        sq = scale_argument(x() * x(), 2)
        assert sq == 2 * (x() * x())

    def test_fractional_factor(self):
        from pmicert.algebra import scale_argument
        from fractions import Fraction as Fr

        scaled = scale_argument(x(), Fr(1, 2))
        assert scaled.evaluate([1]) * scaled.evaluate([1]) == ExtRational(Fr(1, 2))

    def test_matrix_version_preserves_symmetry(self, rng):
        from pmicert.algebra import scale_argument_matrix

        G = random_sym_matrix(rng, 2, 2, 2)
        scaled = scale_argument_matrix(G, 9)  # rational collapse
        assert scaled[0, 1] == scaled[1, 0]

    def test_rejects_nonpositive(self):
        from pmicert.algebra import scale_argument

        with pytest.raises(ValueError):
            scale_argument(x(), 0)

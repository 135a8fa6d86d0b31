import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
import sympy

from pmicert.ring import ExtRational
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
        assert q.evaluate([0, 0]) == q.constant_term()
        with pytest.raises(ValueError):
            p.evaluate([1, 2])


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


class TestNumericEigen:
    def test_examples(self):
        assert abs(min_eigenvalue_numeric(RationalSymMatrix.identity(3)) - 1) < 1e-12
        assert abs(min_eigenvalue_numeric(RationalSymMatrix([[2, 1], [1, 2]])) - 1) < 1e-12
        assert abs(min_eigenvalue_numeric(RationalSymMatrix([[3, 0], [0, -1]])) + 1) < 1e-12

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            min_eigenvalue_numeric([[float("nan"), 0.0], [0.0, 1.0]])

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
                # numpy's power takes a SIMD or a scalar pow depending on the
                # array layout, so on some processors a monomial of the old
                # 1-D per-point loop differs from the batch in the last bit
                for i in range(ell):
                    for j in range(ell):
                        ref, scale = _reference_eval(F[i, j], p)
                        assert abs(row[i, j] - ref) <= 16 * np.finfo(float).eps * scale
            poly = F[0, ell - 1]
            values = poly.evaluate_float(pts)
            assert list(values) == [poly.evaluate_float(p) for p in pts]

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

    def test_graded_lex_order(self):
        p = Polynomial(2, {(0, 0): 1, (2, 0): 1, (1, 1): 1})
        text = p.to_text()
        assert text.index("x1^2*x2^0") < text.index("x1^1*x2^1") < text.index("x1^0*x2^0")


def test_monomials_upto_count():
    from math import comb

    for n in range(1, 4):
        for d in range(5):
            assert len(monomials_upto(n, d)) == comb(n + d, n)


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

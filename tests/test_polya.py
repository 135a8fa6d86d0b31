import math
import random
from fractions import Fraction

import pytest

from pmicert.ring import ExtRational
from pmicert.algebra import Polynomial, SymPolyMatrix, congruence, psd_exact
from pmicert.bernstein import elevate, from_bernstein, to_bernstein
from pmicert.polya import (
    NotPositiveDefiniteOnSimplex,
    grid_min_eigenvalue,
    polya_bound,
    polya_certificate,
    scherer_hol_step,
    simplex_form,
)
from conftest import random_poly, random_sym_matrix


def x(i=0, n=1):
    return Polynomial.variable(n, i)


class TestPolyaBound:
    def test_degree_one_always_zero(self):
        assert polya_bound(1, 100, 1) == 0
        assert polya_bound(1, Fraction(7, 2), Fraction(1, 3)) == 0

    def test_strict_inequality(self):
        assert polya_bound(2, 3, 1) == 2  # 2*3/2 - 2 = 1, strictly greater
        assert polya_bound(2, 1, 1) == 0  # 1 - 2 = -1, floored
        assert polya_bound(2, 2, 1) == 1  # exactly 0 -> 1

    def test_float_inputs(self):
        assert polya_bound(2, 3.0, 1.0) == 2

    def test_preconditions(self):
        with pytest.raises(ValueError):
            polya_bound(2, 1, 0)
        with pytest.raises(ValueError):
            polya_bound(2, 1, 2)


class TestPolyaCertificate:
    def test_affine_matrix_endpoint_interpolation(self):
        two = Polynomial.const(1, 2)
        F = SymPolyMatrix([[two, x()], [x(), two]])
        cert = polya_certificate(F, 5)
        assert cert.degree == 1
        m0, m1 = cert.expansion[(0,)], cert.expansion[(1,)]
        assert m0 == F.evaluate([-1]) and m1 == F.evaluate([1])
        assert psd_exact(m0, strict=True) and psd_exact(m1, strict=True)
        assert from_bernstein(cert.expansion) == F

    def test_seven_by_seven_margins_are_leading_minors(self, rng):
        # exact at every size: each margin is the float of the smallest
        # leading principal minor, here over Q[sqrt(2)]
        n, ell = 2, 7
        def small():
            return {(i, j): Polynomial.const(n, rng.randint(-1, 1))
                    for i in range(ell) for j in range(i, ell)}
        A, B1, B2 = small(), small(), small()
        upper = {
            (i, j): A[i, j] + (60 if i == j else 0) + B1[i, j] * x(0, n) + B2[i, j] * x(1, n)
            for (i, j) in A
        }
        F = SymPolyMatrix.from_upper(ell, upper, n)
        cert = polya_certificate(F, 4)
        assert len(cert.pd_margins) == len(list(cert.expansion.items()))
        for alpha, mat in cert.expansion.items():
            minors = [float(mat.submatrix(range(k)).determinant()) for k in range(1, ell + 1)]
            assert cert.pd_margins[alpha] == min(minors)

    def test_identity_needs_degree_zero(self):
        cert = polya_certificate(SymPolyMatrix.identity(3, 2), 4)
        assert cert.degree == 0

    def test_interior_zero_refuted_with_witness(self):
        with pytest.raises(NotPositiveDefiniteOnSimplex) as info:
            polya_certificate(SymPolyMatrix.scalar(x() * x()), 6)
        assert info.value.witness is not None
        assert all(float(c) == 0.0 for c in info.value.witness)

    def test_monotone_success(self, rng):
        # once every coefficient matrix is PD, elevation keeps them PD
        two = Polynomial.const(1, 2)
        F = SymPolyMatrix([[two, x()], [x(), two]])
        cert = polya_certificate(F, 5)
        e = elevate(cert.expansion, cert.degree + 1)
        assert all(psd_exact(mat, strict=True) for _, mat in e.items())

    def test_random_pd_instances_within_bound(self, rng):
        # Q^T Q + c I is PD everywhere; the minimal degree never exceeds the
        # classical bound computed from grid estimates
        for trial in range(10):
            n = rng.randint(1, 2)
            ell = rng.randint(1, 2)
            Q = [[random_poly(rng, n, 1) for _ in range(ell)] for _ in range(ell)]
            from pmicert.algebra import PolyMatrix

            QM = PolyMatrix(Q)
            F = congruence(QM, SymPolyMatrix.identity(ell, n))
            c = Fraction(rng.randint(1, 4))
            bump = Polynomial.const(n, c)
            F = SymPolyMatrix(
                [
                    [F[i, j] + bump if i == j else F[i, j] for j in range(ell)]
                    for i in range(ell)
                ]
            )
            d = max(F.degree, 0)
            cert = polya_certificate(F, d + 30)
            from pmicert.bernstein import norm_of_expansion

            norm = norm_of_expansion(to_bernstein(F, d))
            fmin, _, _ = grid_min_eigenvalue(F, 10**n * (d + 1))
            fmin = min(fmin, norm)
            assert cert.degree <= d + polya_bound(d, norm, fmin)


class TestSchererHolStep:
    def test_k_zero_keeps_scaled_coefficients(self):
        y1, y2 = x(0, 2), x(1, 2)
        vals = {b: m[0, 0] for b, m in scherer_hol_step(SymPolyMatrix.scalar(y1 * y1 + y2 * y2), 0).items()}
        assert vals[(2, 0)] == ExtRational(1)
        assert vals[(1, 1)] == ExtRational(0)
        assert vals[(0, 2)] == ExtRational(1)

    def test_one_step_makes_positive(self):
        y1, y2 = x(0, 2), x(1, 2)
        vals = {b: m[0, 0] for b, m in scherer_hol_step(SymPolyMatrix.scalar(y1 * y1 + y2 * y2), 1).items()}
        assert vals[(3, 0)] == ExtRational(1)
        assert vals[(2, 1)] == ExtRational(Fraction(1, 3))
        assert all(v.sign() > 0 for v in vals.values())

    def test_rejects_inhomogeneous(self):
        with pytest.raises(ValueError):
            scherer_hol_step(SymPolyMatrix.scalar(x() + 1), 1)

    def test_matches_degree_elevation(self, rng):
        # multiplying the simplex form by (sum y)^k is exactly Bernstein
        # degree elevation by k
        M = random_sym_matrix(rng, 2, 1, 2)
        e = to_bernstein(M, 2)
        stepped = scherer_hol_step(simplex_form(e), 2)
        elevated = elevate(e, 4)
        for alpha, mat in elevated.items():
            beta = alpha + (4 - sum(alpha),)
            assert stepped[beta] == mat


class TestPolyaSerialization:
    def test_round_trip(self):
        two = Polynomial.const(1, 2)
        F = SymPolyMatrix([[two, x()], [x(), two]])
        cert = polya_certificate(F, 5)
        from pmicert.polya import parse_polya, serialize_polya

        text = serialize_polya(cert)
        back = parse_polya(text)
        assert serialize_polya(back) == text
        assert back.degree == cert.degree
        assert from_bernstein(back.expansion) == F
        assert back.pd_margins == cert.pd_margins

    def test_rejects_non_exact_mode(self):
        from pmicert.bernstein import ExpansionParseError
        from pmicert.polya import parse_polya, serialize_polya

        F = SymPolyMatrix.identity(2, 1)
        text = serialize_polya(polya_certificate(F, 3))
        assert text.splitlines()[2] == "mode exact"
        with pytest.raises(ExpansionParseError, match="line 3"):
            parse_polya(text.replace("mode exact", "mode numeric"))

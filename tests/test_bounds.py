import math
import random
from fractions import Fraction

import pytest

from pmicert.algebra import Polynomial, SymPolyMatrix
from pmicert.bounds import (
    BoundInputs,
    convergence_rate,
    eta_estimate,
    licq_bound,
    lojasiewicz_r,
    markov_gradient_bound,
    perturbation_bound,
    putinar_matrix_bound,
    putinar_scalar_bound,
    pv_bound,
    theta,
)


class TestTheta:
    def test_values(self):
        assert theta(1) == 1
        assert theta(2) == 6
        assert theta(3) == 42

    def test_recurrence(self):
        for k in range(1, 7):
            assert theta(k + 1) == (k + 1) * (k + 2) // 2 * (1 + theta(k))

    def test_domain(self):
        with pytest.raises(ValueError):
            theta(0)


def all_ones(**kw) -> BoundInputs:
    base = dict(n=1, m=2, d=1, d_G=1)
    base.update(kw)
    return BoundInputs(**base)


class TestMatrixBound:
    def test_all_ones_value(self):
        # independent big-integer product
        expected = 8**7 * 3 ** (6 * (2 - 1)) * theta(2) ** 3 * 1 * 1 * 1 * 1 * 1
        report = putinar_matrix_bound(all_ones())
        assert report.value == expected == 330225942528

    def test_factor_product_reproduces_value(self):
        report = putinar_matrix_bound(
            all_ones(n=2, m=3, d=2, d_G=2, ratio=Fraction(3, 2), kappa=Fraction(2), eta=2)
        )
        prod = Fraction(1)
        for _, v in report.factors:
            prod *= Fraction(v)
        assert prod == report.value

    def test_ratio_doubling(self):
        base = putinar_matrix_bound(all_ones()).value
        doubled = putinar_matrix_bound(all_ones(ratio=Fraction(2))).value
        assert doubled == base * 2 ** (7 * 1 + 3)

    def test_eta_estimate_composes(self):
        eta = eta_estimate(1, 2, 1, "scalar")
        report = putinar_matrix_bound(all_ones(eta=eta))
        assert any(name == "8^(7*eta)" and v == 8 ** (7 * eta) for name, v in report.factors)

    def test_huge_eta_falls_back_to_float(self):
        eta = eta_estimate(2, 2, 2, "matrix")  # 238 million: exact blow-up guarded
        report = putinar_matrix_bound(all_ones(eta=eta))
        assert report.value == math.inf
        assert "log10" in report.extras
        assert any("floating point" in c for c in report.caveats)


    def test_exact_budget_bounds_each_factor(self):
        # ratio^(7 eta + 3) = 8^-(7 eta + 3) cancels 8^(7 eta): the product is
        # 3^6 theta(2)^3 / 8^3, but neither factor is formed exactly
        report = putinar_matrix_bound(all_ones(eta=100000, ratio=Fraction(1, 8)))
        assert isinstance(report.value, float)
        assert abs(report.value - 729 * 216 / 512) <= 1e-9 * report.value
        assert any("floating point" in c for c in report.caveats)
        assert dict(report.factors)["8^(7*eta)"] == math.inf


class TestScalarAndLicq:
    def test_scalar_all_ones(self):
        assert putinar_scalar_bound(all_ones()).value == 8**7 * 2**3

    def test_scalar_ratio_exponent(self):
        base = putinar_scalar_bound(all_ones()).value
        assert putinar_scalar_bound(all_ones(ratio=Fraction(2))).value == base * 2**10

    def test_m_one_flagged(self):
        report = putinar_scalar_bound(all_ones(m=1))
        assert any("m >= 2" in c for c in report.caveats)

    def test_licq_all_ones(self):
        assert licq_bound(all_ones()).value == 8  # m^3 alone

    def test_licq_ratio_power(self):
        assert licq_bound(all_ones(ratio=Fraction(2))).value == 8 * 1024


class TestPvBound:
    def test_theta_plus_two_cube(self):
        report = pv_bound(all_ones())
        assert any(name == "(theta(m)+2)^3" and v == 512 for name, v in report.factors)

    def test_ceil_half(self):
        report = pv_bound(all_ones())
        assert any(name == "ceil(d_G/2)^6" and v == 1 for name, v in report.factors)

    def test_all_ones_value_and_final_degree(self):
        report = pv_bound(all_ones())
        expected = 8**7 * 3**6 * (theta(2) + 2) ** 3 * (1 + 1) ** 2
        assert report.value == expected == 3131031158784
        assert report.extras["certificate_degree"] == 2 * expected + 1


class TestEtaEstimate:
    def test_scalar(self):
        assert eta_estimate(1, 2, 1, "scalar") == 2 * 3

    def test_matrix(self):
        assert eta_estimate(2, 2, 2, "matrix") == 7 * 18**6 == 238085568

    def test_homogenized(self):
        half = 1  # ceil(1/2)
        expected = (2 * 3 * half + 1) * (2 * 9 * half) ** (1 + theta(2) - 1)
        assert eta_estimate(1, 2, 1, "homogenized") == expected

    def test_r_helper(self):
        assert lojasiewicz_r(2, 3) == 18
        assert lojasiewicz_r(1, 5) == 5


class TestConvergenceRate:
    def test_all_ones_value(self):
        eps = convergence_rate(all_ones(), 1)
        assert abs(eps - 3 * 330225942528**0.1) < 1e-9
        assert 42.0 < eps < 43.0

    def test_power_law(self):
        e1 = convergence_rate(all_ones(), 7)
        e2 = convergence_rate(all_ones(), 14)
        assert abs(e2 / e1 - 2 ** (-0.1)) < 1e-12

    def test_eta_slows_rate(self):
        # exponent monotonicity: a larger eta makes the decay ratio
        # eps(2k)/eps(k) = 2^(-1/(7 eta + 3)) closer to 1, and the values
        # themselves cross over once the power law dominates the prefactor
        ratio1 = convergence_rate(all_ones(), 200) / convergence_rate(all_ones(), 100)
        ratio2 = convergence_rate(all_ones(eta=2), 200) / convergence_rate(all_ones(eta=2), 100)
        assert ratio1 < ratio2 < 1
        assert convergence_rate(all_ones(eta=2), 10**6) > convergence_rate(all_ones(), 10**6)

    def test_composition_with_bound(self):
        # plugging the bound with ratio 3||f||_B/eps back into the rate
        # returns at most eps
        rng = random.Random(4)
        for _ in range(20):
            inputs = BoundInputs(
                n=rng.randint(1, 3),
                m=rng.randint(2, 3),
                d=rng.randint(1, 3),
                d_G=rng.randint(1, 2),
                kappa=Fraction(rng.randint(1, 3)),
                eta=rng.randint(1, 2),
            )
            f_norm = Fraction(rng.randint(1, 5))
            eps = Fraction(rng.randint(1, 10), rng.randint(1, 4))
            inputs.ratio = 3 * f_norm / eps
            k = putinar_matrix_bound(inputs).value
            k = max(1, math.ceil(k))
            achieved = convergence_rate(inputs, k, float(f_norm))
            assert achieved <= float(eps) * (1 + 1e-9)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            convergence_rate(all_ones(), 0)


class TestMarkov:
    def test_constant(self):
        assert markov_gradient_bound(Polynomial.const(2, 5)) == 0.0

    def test_linear_tight(self):
        assert abs(markov_gradient_bound(Polynomial.variable(1, 0)) - 1.0) < 1e-12

    def test_square(self):
        x = Polynomial.variable(1, 0)
        assert abs(markov_gradient_bound(x * x) - 6.0) < 1e-12

    def test_dominates_sampled_gradient(self):
        import numpy as np
        from pmicert.bernstein import simplex_lattice_float

        rng = random.Random(17)
        from conftest import random_poly

        for _ in range(10):
            p = random_poly(rng, 1, 3)
            bound = markov_gradient_bound(p)
            dp = Polynomial(1, {(max(a[0] - 1, 0),): c * a[0] for a, c in p.terms.items() if a[0]})
            for pt in simplex_lattice_float(1, 16):
                assert abs(dp.evaluate_float(pt)) <= bound + 1e-9


class TestPerturbation:
    def test_unit(self):
        assert perturbation_bound(Fraction(1)) == 1

    def test_half(self):
        assert perturbation_bound(Fraction(1, 2), 1, 1) == 1024

    def test_halving_scales(self):
        a = perturbation_bound(Fraction(1, 4), 1, 1)
        b = perturbation_bound(Fraction(1, 8), 1, 1)
        assert b == a * 2**10

    def test_validation(self):
        with pytest.raises(ValueError):
            perturbation_bound(Fraction(0))
        with pytest.raises(ValueError):
            perturbation_bound(-0.5)


def test_inputs_validation():
    with pytest.raises(ValueError):
        BoundInputs(n=0, m=2, d=1, d_G=1)
    with pytest.raises(ValueError):
        BoundInputs(n=1, m=2, d=1, d_G=1, ratio=Fraction(-1))

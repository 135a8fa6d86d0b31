import hashlib
import math
from fractions import Fraction
from pathlib import Path

import pytest

from pmicert.ring import ExtRational
from pmicert.algebra import Polynomial, SymPolyMatrix
from pmicert.certify import (
    QMCertificate,
    gram_from_squares,
    verify_certificate,
)
from pmicert.homogenize import (
    SWEEP_BATCH,
    EmptyFeasibleSample,
    OddPartNonzero,
    dehomogenize_certificate,
    estimate_homogenized_min,
    lift_problem,
    perturb_for_nonneg,
)
from conftest import random_sym_matrix, synthetic_sphere_certificate
import constrained_suite


def x(i=0, n=1):
    return Polynomial.variable(n, i)


def scalar(p):
    return SymPolyMatrix.scalar(p)


def free_constraint(n=1):
    return scalar(Polynomial.const(n, 1))


def _norm2_tilde(N):
    """x0^2 + ... + x_n^2 in N ambient variables (the lifted norm square)."""
    out = Polynomial.zero(N)
    for i in range(N):
        xi = Polynomial.variable(N, i)
        out = out + xi * xi
    return out


def _odd_power_case(n):
    """(certificate, problem) with F~ = ||x~||^2 * A^T G^ A for constant A on
    the ball: the transfer meets an odd power of (1 + ||x||^2) on a
    multiplier and splits it over {1, x_i}."""
    from pmicert.algebra import PolyMatrix
    from pmicert.certify import MultiplierTerm, ball_constraint
    from pmicert.homogenize import HomogenizedProblem

    N = n + 1
    G = ball_constraint(n)
    prob0 = lift_problem(SymPolyMatrix.zero(1, n), G)
    A = PolyMatrix([[Polynomial.const(N, 1)]])
    AGA = A.transpose() @ prob0.G_hat @ A
    F_tilde = SymPolyMatrix(AGA.scale_poly(_norm2_tilde(N)).entries)
    H = SymPolyMatrix(AGA.entries)
    cert = QMCertificate(N, 1, 1, 4, "exact", [], [MultiplierTerm(ExtRational(1), A)], H)
    prob = HomogenizedProblem(F_tilde.dehomogenize(), G, F_tilde, prob0.G_tilde,
                              prob0.G_hat, prob0.d0, n, 4, prob0.d_G)
    return cert, prob


def golden_transfers():
    """{golden file name: (certificate, problem)} of the pinned transfers:
    the synthetic family on the ball in two variables at ell = 1 and 2, and
    the odd-power multiplier split."""
    import random

    from pmicert.certify import ball_constraint

    out = {}
    for ell in (1, 2):
        prob, _, cert = synthetic_sphere_certificate(random.Random(f"golden-{ell}"),
                                                     ball_constraint(2), ell)
        out[f"dehomogenize_n2_l{ell}.qmc"] = cert, prob
    out["dehomogenize_odd_power.qmc"] = _odd_power_case(2)
    return out


GOLDEN = Path(__file__).resolve().parent / "golden"


class TestLift:
    def test_constant_constraint_stays(self):
        prob = lift_problem(scalar(x() * x() + 1), free_constraint())
        x0, x1 = x(0, 2), x(1, 2)
        assert prob.F_tilde == scalar(x0 * x0 + x1 * x1)
        assert prob.d0 == 0
        assert prob.G_hat == scalar(Polynomial.const(2, 1))

    def test_even_degree_constraint(self):
        G = scalar(Polynomial.const(1, 1) - x() * x())
        prob = lift_problem(scalar(x() * x()), G)
        x0, x1 = x(0, 2), x(1, 2)
        assert prob.d0 == 0
        assert prob.G_hat == scalar(x0 * x0 - x1 * x1)

    def test_odd_degree_gets_x0_factor(self):
        G = scalar(Polynomial.const(1, 1) - x())
        prob = lift_problem(scalar(x() * x()), G)
        x0, x1 = x(0, 2), x(1, 2)
        assert prob.d0 == 1
        assert prob.G_hat == scalar(x0 * x0 - x0 * x1)
        assert prob.G_hat.is_homogeneous_of(2)

    def test_substituting_one_recovers_original(self, rng):
        F = random_sym_matrix(rng, 2, 2, 2)
        G = random_sym_matrix(rng, 2, 2, 1)
        prob = lift_problem(F, G)
        assert prob.F_tilde.dehomogenize() == F


def _free_instances():
    """A 1 x 1 target in one variable and a 2 x 2 one in three, over G = [1]."""
    x1, x2, x3 = (x(i, 3) for i in range(3))
    off = x1 * x2 * Fraction(1, 2) - x3
    F = SymPolyMatrix([[x1 * x1 + x2 * x2 + x3 * x3 + 1, off],
                       [off, x1 * x1 + x3 * x3 * 2 + x2 + 3]])
    return [(scalar((x() - 1) ** 2 + 1), free_constraint()), (F, free_constraint(3))]


# sha256 prefixes of the float.hex of each estimate's value and argmin and its
# feasible count, over the first 20 constrained-suite instances and the two
# of _free_instances, by refine_iters, as the sweeps gave them one at a time
# before they were batched.  sin, cos and eigvalsh may differ in the last bit
# on another numpy build; recapture there from a one-sweep-at-a-time loop.
ESTIMATE_DIGESTS = {
    0: "8a2c472cc87e3bfc",
    1: "b3b047775b36c691",
    3: "b5e7c4d856c3670e",
    4: "6ead77f4bb3d8b57",
    5: "1b7c794cf5af5da9",
    7: "5ea83ee7dc9fa0f2",
    8: "9d9ac04636414570",
    9: "9b5c18d31216e846",
    50: "d5b5f6bb7ea22af7",
}


class TestSphereMin:
    def test_estimates_bitwise_pinned(self):
        # refine budgets around the batch size test the replay's accounting
        assert {SWEEP_BATCH - 1, SWEEP_BATCH, SWEEP_BATCH + 1} <= set(ESTIMATE_DIGESTS)
        problems = [lift_problem(*constrained_suite.problem(inst))
                    for inst in constrained_suite.instances()[:20]]
        problems += [lift_problem(F, G) for F, G in _free_instances()]
        for iters, want in ESTIMATE_DIGESTS.items():
            lines = []
            for k, prob in enumerate(problems):
                est = estimate_homogenized_min(prob, refine_iters=iters)
                lines.append(" ".join([str(k), est.value.hex(), *(c.hex() for c in est.argmin),
                                       str(est.feasible)]))
            assert hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16] == want, iters

    def test_constant_plus_square(self):
        est = estimate_homogenized_min(lift_problem(scalar(x() * x() + 1), free_constraint()))
        assert abs(est.value - 1.0) < 1e-9

    def test_shifted_square_closed_form(self):
        # min over the circle of the homogenization of (x-1)^2 + 1
        prob = lift_problem(scalar((x() - 1) ** 2 + 1), free_constraint())
        est = estimate_homogenized_min(prob, grid=64)
        assert abs(est.value - (1.5 - math.sqrt(5) / 2)) < 1e-4

    def test_flags_non_pd_leading_form(self):
        est = estimate_homogenized_min(lift_problem(scalar(x()), free_constraint()))
        assert est.value <= 0
        assert abs(est.value + 1.0) < 1e-6

    def test_positive_for_pd_instances(self, rng):
        # F = Q^T Q + c I has PD leading form after adding the right bump
        from pmicert.certify import ball_constraint

        for _ in range(10):
            q = x() + Fraction(rng.randint(-2, 2))
            F = scalar(q * q + x() * x() + Fraction(rng.randint(1, 3)))
            prob = lift_problem(F, ball_constraint(1))
            est = estimate_homogenized_min(prob, grid=32, refine_iters=20)
            assert est.value > 0

    def test_two_variable_fibonacci_path(self):
        # F = x1^2 + x2^2 + 1 over R^2: the lift is ||x~||^2, constant 1 on S^2
        n = 2
        F = scalar(x(0, n) * x(0, n) + x(1, n) * x(1, n) + 1)
        prob = lift_problem(F, scalar(Polynomial.const(n, 1)))
        est = estimate_homogenized_min(prob, grid=48, refine_iters=20)
        assert abs(est.value - 1.0) < 1e-9

    def test_three_variable_gaussian_path(self):
        # same structure one dimension up exercises the generic sampler
        n = 3
        p = Polynomial.const(n, 1)
        for i in range(n):
            p = p + x(i, n) * x(i, n)
        prob = lift_problem(scalar(p), scalar(Polynomial.const(n, 1)))
        est = estimate_homogenized_min(prob, grid=32, refine_iters=10)
        assert abs(est.value - 1.0) < 1e-9

    def test_empty_sample_raises(self):
        G = scalar(Polynomial.const(1, -1))  # infeasible everywhere
        with pytest.raises(EmptyFeasibleSample):
            estimate_homogenized_min(lift_problem(scalar(x()), G))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            estimate_homogenized_min(lift_problem(scalar(x()), free_constraint()), grid=4)

    def test_constrained_instances_against_slsqp(self):
        # a second route to the minimum in n = 2 and 3 variables with the
        # constraint active: the estimate is the value at a feasible point, so
        # it may sit above the SLSQP reference but never below it
        gaps = []
        for inst in constrained_suite.instances():
            F, G = constrained_suite.problem(inst)
            est = estimate_homogenized_min(lift_problem(F, G))
            gaps.append(est.value - constrained_suite.reference_min(inst))
        assert min(gaps) >= -1e-7
        # axis moves stall on the constraint boundary (a known gap of up to
        # 0.49 on this suite); the mean must stay below the 0.0797 of the
        # one-candidate-at-a-time sweep that the batched sweep replaced
        assert sum(gaps) / len(gaps) <= 0.0797


class TestDehomogenize:
    def test_trivial_unit(self):
        one2 = Polynomial.const(2, 1)
        cert = QMCertificate(
            2, 1, 1, 0, "exact", [gram_from_squares([(ExtRational(1), [one2])], 2, 1)], []
        )
        prob = lift_problem(scalar(Polynomial.const(1, 1)), free_constraint())
        k, out = dehomogenize_certificate(cert, prob)
        assert k == 0
        assert verify_certificate(scalar(Polynomial.const(1, 1)), free_constraint(), out).ok

    def test_pythagorean_gram(self):
        x0, x1 = x(0, 2), x(1, 2)
        cert = QMCertificate(
            2, 1, 1, 2, "exact",
            [gram_from_squares([(ExtRational(1), [x0]), (ExtRational(1), [x1])], 2, 1)],
            [],
        )
        prob = lift_problem(scalar(x() * x() + 1), free_constraint())
        k, out = dehomogenize_certificate(cert, prob)
        assert k == 0
        assert verify_certificate(scalar(x() * x() + 1), free_constraint(), out).ok

    def test_synthetic_family(self, rng):
        from pmicert.certify import ball_constraint
        from pmicert.homogenize import _one_plus_norm2

        count = 0
        for trial in range(20):
            n = rng.randint(1, 2)
            ell = rng.randint(1, 2)
            if trial % 3 == 0:
                G = ball_constraint(n)
            elif trial % 3 == 1:
                G = scalar(Polynomial.const(n, 1) - x(0, n))  # odd-degree constraint
            else:
                G = random_sym_matrix(rng, 2, n, 1)
            prob, F_tilde, cert = synthetic_sphere_certificate(rng, G, ell, q=trial % 2)
            if prob.F_tilde != F_tilde:
                continue  # degenerate draw: dehomogenized form lost degree
            assert verify_certificate(F_tilde, prob.G_hat, cert).ok
            k, out = dehomogenize_certificate(cert, prob)
            u_k = _one_plus_norm2(n) ** k
            target = SymPolyMatrix(prob.F.scale_poly(u_k).entries)
            report = verify_certificate(target, G, out)
            assert report.ok, report.messages
            assert out.k <= 2 * k + prob.deg_f
            count += 1
        assert count >= 15

    def test_norm_power_residue_certificate(self):
        # F~ = ||x~||^4 = 1 + (||x~||^2 - 1)(||x~||^2 + 1): the constant square
        # forces a (1 + ||x||^2)^2 expansion during transfer (j = 2 path)
        n = 1
        N = n + 1
        norm2 = _norm2_tilde(N)
        F_tilde = scalar(norm2 * norm2)
        H = SymPolyMatrix.scalar(norm2 + 1)
        cert = QMCertificate(
            N, 1, 1, 4, "exact",
            [gram_from_squares([(ExtRational(1), [Polynomial.const(N, 1)])], N, 1)],
            [], H,
        )
        prob = lift_problem(F_tilde.dehomogenize(), free_constraint(n))
        assert prob.F_tilde == F_tilde
        assert verify_certificate(F_tilde, prob.G_hat, cert).ok
        k, out = dehomogenize_certificate(cert, prob)
        from pmicert.homogenize import _one_plus_norm2

        target = SymPolyMatrix(prob.F.scale_poly(_one_plus_norm2(n) ** k).entries)
        assert verify_certificate(target, free_constraint(n), out).ok

    def test_odd_power_multiplier_split(self):
        from pmicert.homogenize import _one_plus_norm2

        n = 2
        cert, prob = _odd_power_case(n)
        assert verify_certificate(prob.F_tilde, prob.G_hat, cert).ok
        assert prob.F.homogenize(4) == prob.F_tilde
        k, out = dehomogenize_certificate(cert, prob)
        assert len(out.multipliers) == 1 + n  # the {1, x_i} split
        target = SymPolyMatrix(prob.F.scale_poly(_one_plus_norm2(n) ** k).entries)
        assert verify_certificate(target, prob.G, out).ok

    def test_odd_part_nonzero_rejected(self, rng):
        from pmicert.certify import ball_constraint

        prob, F_tilde, cert = synthetic_sphere_certificate(rng, ball_constraint(1), 1)
        # drop the mirror square: the sqrt-carrying terms no longer cancel
        bad_squares = [(ExtRational(1), [Polynomial.const(2, 1) + x(0, 2)])]
        cert.sos_blocks = [gram_from_squares(bad_squares, 2, 1)]
        with pytest.raises(OddPartNonzero):
            dehomogenize_certificate(cert, prob)

    def test_numeric_certificate_rejected(self, rng):
        from pmicert.certify import ball_constraint

        prob, _, cert = synthetic_sphere_certificate(rng, ball_constraint(1), 1)
        cert.mode = "numeric"
        with pytest.raises(ValueError):
            dehomogenize_certificate(cert, prob)

    def test_sphere_term_maps_to_zero(self, rng):
        # certificates differing only in the sphere multiplier dehomogenize
        # to the same output
        from pmicert.certify import ball_constraint
        from pmicert.certify import serialize

        prob, F_tilde, cert = synthetic_sphere_certificate(rng, ball_constraint(2), 1)
        if prob.F_tilde != F_tilde:
            pytest.skip("degenerate draw")
        k1, out1 = dehomogenize_certificate(cert, prob)
        assert cert.sphere_multiplier is not None and not cert.sphere_multiplier.is_zero()
        assert out1.sphere_multiplier is None

    @pytest.mark.parametrize("name", sorted(golden_transfers()))
    def test_output_bytes_pinned(self, name):
        from pmicert.certify import serialize

        cert, prob = golden_transfers()[name]
        _, out = dehomogenize_certificate(cert, prob)
        assert serialize(out) == (GOLDEN / name).read_text(encoding="utf-8")

    @pytest.mark.parametrize("field", ["nvars", "ell", "m"])
    def test_shape_mismatch_named_before_any_work(self, rng, field):
        from pmicert.certify import ball_constraint

        # the problem is in 1 variable for the nvars case, in 2 otherwise,
        # with ell = 1 and the 1 x 1 ball constraint
        prob, _, _ = synthetic_sphere_certificate(rng, ball_constraint(1 + (field != "nvars")), 1)
        G = ball_constraint(2)
        if field == "m":
            G = SymPolyMatrix([[G[0, 0], Polynomial.zero(2)],
                               [Polynomial.zero(2), Polynomial.const(2, 1)]])
        _, _, cert = synthetic_sphere_certificate(rng, G, 2 if field == "ell" else 1)
        with pytest.raises(ValueError, match=rf"certificate {field} \d+ does not match"):
            dehomogenize_certificate(cert, prob)

    def test_valid_certificate_for_another_target_rejected(self, rng):
        import dataclasses

        from pmicert.certify import ball_constraint

        prob, F_tilde, cert = synthetic_sphere_certificate(rng, ball_constraint(1), 1)
        assert verify_certificate(F_tilde, prob.G_hat, cert).ok
        wrong = dataclasses.replace(prob, F=SymPolyMatrix(
            (prob.F + SymPolyMatrix.identity(1, 1)).entries))
        with pytest.raises(OddPartNonzero):
            dehomogenize_certificate(cert, wrong)


class TestPerturb:
    def test_exponents(self):
        u = Polynomial(1, {(0,): 1, (2,): 1})
        P0 = perturb_for_nonneg(SymPolyMatrix.zero(2, 1), Fraction(1), d=0)
        assert P0[0, 0] == u and P0[0, 1].is_zero()
        P1 = perturb_for_nonneg(SymPolyMatrix.zero(1, 1), Fraction(1), d=1)
        assert P1[0, 0] == u  # ceil(2/2) = 1
        P2 = perturb_for_nonneg(SymPolyMatrix.zero(1, 1), Fraction(1), d=2)
        assert P2[0, 0] == u * u  # ceil(3/2) = 2

    def test_homogenization_identity(self):
        # hom(F + eps u^e I, 2e) - eps (x0^2 + ||x||^2)^e I = x0^(2e-d) F~
        eps = Fraction(1, 3)
        F = scalar((x() - 1) ** 2 + 1)
        d = 2
        e = 2  # ceil((d+1)/2)
        P = perturb_for_nonneg(F, eps)
        x0, x1 = x(0, 2), x(1, 2)
        sphere = (x0 * x0 + x1 * x1) ** e
        lhs = P.homogenize(2 * e)[0, 0] - sphere * ExtRational(eps)
        rhs = (x0 ** (2 * e - d)) * F.homogenize(d)[0, 0]
        assert lhs == rhs

    def test_validation(self):
        with pytest.raises(ValueError):
            perturb_for_nonneg(scalar(x()), Fraction(0))
        with pytest.raises(TypeError):
            perturb_for_nonneg(scalar(x()), 0.5)

import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from pmicert import relax
from pmicert.algebra import Polynomial, SymPolyMatrix, psd_exact
from pmicert.certify import ball_constraint, verify_certificate
from pmicert.cli import main
from pmicert.problemio import ProblemData, dump_problem
from pmicert.scalarize import scalarize
from pmicert.relax import (
    Infeasible,
    MaxIterationsError,
    RelaxResult,
    SolverError,
    build_relaxation,
    certificate_target,
    count_monomials,
    extract_certificate,
    hierarchy,
    solve_relaxation,
    solve_sdp,
)


def x(i=0, n=1):
    return Polynomial.variable(n, i)


def scalar(p):
    return SymPolyMatrix.scalar(p)


class TestBuild:
    def test_interval_bookkeeping(self):
        p = build_relaxation(x(), ball_constraint(1), 1)
        assert p.block_sizes == [2, 1]
        assert p.constraint_count() == 3
        assert p.kprime == 0

    def test_matrix_constraint_bookkeeping(self):
        one = Polynomial.const(1, 1)
        Gm = SymPolyMatrix([[one, x()], [x(), one]])
        p = build_relaxation(x(), Gm, 1)
        # d_G = 1: deg v = 0 keeps deg(v^T G v) <= 2
        assert p.kprime == 0
        assert p.block_sizes == [2, 2]

    def test_even_vs_odd_constraint_degree(self):
        # d_G = 2: k' = k - 1; d_G = 1: k' = k - 1 as well (ceil), but the
        # products stay within 2k in both parities
        g_even = ball_constraint(1)
        g_odd = scalar(Polynomial.const(1, 1) - x())
        for G in (g_even, g_odd):
            d_G = max(G.degree, 0)
            for k in (1, 2, 3):
                p = build_relaxation(x(), G, k)
                assert 2 * p.kprime + d_G <= 2 * k

    def test_constraint_count_formula(self):
        for n in range(1, 4):
            for k in range(1, 5):
                f = Polynomial.variable(n, 0)
                p = build_relaxation(f, ball_constraint(n), k)
                assert p.constraint_count() == count_monomials(n, 2 * k)
                assert count_monomials(n, 2 * k) == math.comb(n + 2 * k, n)

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            build_relaxation(x() ** 3, ball_constraint(1), 1)
        quartic = scalar(Polynomial.const(1, 1) - x() ** 4)
        with pytest.raises(ValueError):
            build_relaxation(x(), quartic, 1)  # k' would be negative

    def test_size_cap(self, tmp_path, capsys):
        # n = 3, k = 8: blocks of 165 and 120, past the cap of 200
        f = Polynomial.variable(3, 0)
        p = build_relaxation(f, ball_constraint(3), 8)
        assert p.block_sizes == [165, 120]
        assert sum(p.block_sizes) > relax.MAX_TOTAL_BLOCK_SIZE
        with pytest.raises(ValueError, match="total block size 285 exceeds"):
            solve_sdp(p)
        path = tmp_path / "cap.pmi"
        path.write_text(dump_problem(ProblemData(3, 1, 1, scalar(f), ball_constraint(3))))
        assert main(["relax", str(path), "--order", "8"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


class TestSolve:
    def test_interval_minimum(self):
        p, r = solve_relaxation(x(), ball_constraint(1), 1)
        assert abs(r.gamma + 1.0) < 1e-5

    def test_matrix_interval_minimum(self):
        one = Polynomial.const(1, 1)
        Gm = SymPolyMatrix([[one, x()], [x(), one]])
        p, r = solve_relaxation(x(), Gm, 1)
        assert abs(r.gamma + 1.0) < 1e-5

    def test_square_is_sos(self):
        p, r = solve_relaxation(x() * x(), ball_constraint(1), 1)
        assert abs(r.gamma) < 1e-5

    def test_constant_objective(self):
        p, r = solve_relaxation(Polynomial.const(1, Fraction(7, 2)), ball_constraint(1), 1)
        assert abs(r.gamma - 3.5) < 1e-5

    def test_certificate_extraction(self):
        p, r = solve_relaxation(x(), ball_constraint(1), 1)
        cert = extract_certificate(r, p)
        assert cert.mode == "numeric"
        target = certificate_target(p, r.gamma)
        report = verify_certificate(target, ball_constraint(1), cert, mode="numeric", tol=1e-5)
        assert report.ok, report.messages

    def test_determinism(self):
        p1, r1 = solve_relaxation(x(), ball_constraint(1), 2)
        p2, r2 = solve_relaxation(x(), ball_constraint(1), 2)
        assert r1.gamma == r2.gamma
        assert (r1.X0 == r2.X0).all()

    def test_infeasible(self):
        # strongly infeasible: the moment vector y = (0, 0, 1) gives -1 on
        # -x^2 - gamma for every gamma and >= 0 on every square
        p = build_relaxation(-(x() * x()), scalar(Polynomial.zero(1)), 1)
        result = solve_sdp(p)
        assert isinstance(result, Infeasible)
        assert result.residual > 0

    def test_weakly_infeasible_exhausts_budget(self):
        # x - gamma is never SOS, but its distance to the SOS cone goes to 0
        # as gamma -> -inf, so the displacement converges to 0
        p = build_relaxation(x(), scalar(Polynomial.zero(1)), 1)
        with pytest.raises(MaxIterationsError):
            solve_sdp(p, max_iter=500)

    def test_unbounded(self):
        p = build_relaxation(x(), scalar(Polynomial.const(1, -1)), 1)
        with pytest.raises(SolverError):
            solve_sdp(p)

    def test_max_iterations(self):
        with pytest.raises(MaxIterationsError):
            solve_sdp(build_relaxation(x(), ball_constraint(1), 1), tol=1e-9, max_iter=3)


class TestLargeCoefficients:
    """Feasible, bounded problems on [-1, 1] at k = 1 whose objective
    coefficients are past what the solver's floats resolve: the run fails
    with its cause named, never with a verdict of infeasible or unbounded,
    and prints no warning."""

    @pytest.mark.parametrize("f, cause", [
        (10 ** 16 * x() + x() * x(), "rounding level"),
        (10 ** 40 * x() + x() * x(), "rounding level"),
        (10 ** 200 * (x() + x() * x()), "overflowed"),
    ], ids=["1e16", "1e40", "1e200"])
    def test_fails_with_cause(self, f, cause, tmp_path, capsys):
        path = tmp_path / "large.pmi"
        path.write_text(dump_problem(ProblemData(1, 1, 1, scalar(f), ball_constraint(1))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["relax", str(path), "--order", "1"]) == 1
            out, err = capsys.readouterr()
            assert out.startswith("FAIL: ") and cause in out
            assert err == ""
            with pytest.raises(SolverError, match=cause):
                solve_sdp(build_relaxation(f, ball_constraint(1), 1))


class TestHierarchy:
    def test_monotone_on_interval(self):
        vals = hierarchy(x(), ball_constraint(1), 1, 3)
        assert len(vals) == 3
        for a, b in zip(vals, vals[1:]):
            assert b >= a - 2e-6
        assert all(abs(v + 1) < 1e-4 for v in vals)

    def test_negative_square(self):
        vals = hierarchy(-(x() * x()), ball_constraint(1), 1, 2)
        assert all(abs(v + 1) < 1e-4 for v in vals)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            hierarchy(x(), ball_constraint(1), 3, 1)

    def test_nonconvex_disc_monotone(self):
        x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
        vals = hierarchy(-(x1 * x1) - 3 * x2 * x2 - x1 + x2, ball_constraint(2), 1, 2)
        assert len(vals) == 2


def _trust_region_min(A, b):
    """min x^T A x + b^T x over |x| <= 1 for an indefinite A whose bottom
    eigenvector is not orthogonal to b: x(lam) = -(A + lam I)^-1 b / 2 with
    |x(lam)| = 1 and lam > -lambda_min(A), by bisection on the secular
    equation."""
    w, U = np.linalg.eigh(np.array(A, dtype=float))
    g = U.T @ np.array(b, dtype=float)

    def x_of(lam):
        return -g / (2.0 * (w + lam))

    lo, hi = -w[0], -w[0] + 1.0
    while x_of(hi) @ x_of(hi) > 1.0:
        hi += hi - lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if x_of(mid) @ x_of(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    y = x_of(hi)
    return float(y @ (w * y) + g @ y)


def _two_vars():
    return Polynomial.variable(2, 0), Polynomial.variable(2, 1)


def _box(n):
    one = Polynomial.const(n, 1)
    return SymPolyMatrix([
        [one - Polynomial.variable(n, i) ** 2 if i == j else Polynomial.zero(n)
         for j in range(n)]
        for i in range(n)
    ])


def _fixed_linear():
    x1, x2 = _two_vars()
    return x1 + 2 * x2, ball_constraint(2), 1, -math.sqrt(5)


def _fixed_convex():
    x1, x2 = _two_vars()
    c = Polynomial.const
    f = (x1 - c(2, Fraction(1, 3))) ** 2 + (x2 + c(2, Fraction(1, 5))) ** 2
    return f, ball_constraint(2), 2, 0.0


def _fixed_box():
    x1, x2 = _two_vars()
    return x1 * x1 + 2 * x1 + 3 * x2 * x2 + 6 * x2, _box(2), 2, -4.0


def _fixed_nonconvex():
    x1, x2 = _two_vars()
    f = -(x1 * x1) - 3 * x2 * x2 - x1 + x2
    return f, ball_constraint(2), 1, _trust_region_min([[-1, 0], [0, -3]], [-1, 1])


class TestMultivariateBounds:
    """Relaxation values against closed forms and verified certificates on
    instances with more than one variable; a solver that reports loose lower
    bounds fails these."""

    def test_trust_region_reference(self):
        assert abs(_fixed_nonconvex()[3] + 4.0997976) < 1e-7

    @pytest.mark.parametrize(
        "instance", [_fixed_linear, _fixed_convex, _fixed_box, _fixed_nonconvex],
        ids=["linear", "convex", "box", "nonconvex"],
    )
    def test_fixed_instances(self, instance):
        f, G, k, ref = instance()
        p, r = solve_relaxation(f, G, k)
        assert isinstance(r, RelaxResult)
        assert abs(r.gamma - ref) <= 1e-5 * max(1.0, abs(ref))
        cert = extract_certificate(r, p)
        report = verify_certificate(certificate_target(p, r.gamma), G, cert,
                                    mode="numeric", tol=1e-6)
        assert report.ok, report.messages

    def test_ball_n3(self):
        x1, x2, x3 = (Polynomial.variable(3, i) for i in range(3))
        f = x1 * x2 + x3 * x3 * x1 - x2
        G = ball_constraint(3)
        p, r = solve_relaxation(f, G, 2)
        assert r.gamma > -1.30
        # the minimum over the ball: f at (-1/2, sqrt(3)/2, 0); SLSQP from
        # random starts finds no lower value
        ref = -3 * math.sqrt(3) / 4
        assert abs(r.gamma - ref) <= 1e-5 * abs(ref)
        pts = np.random.default_rng(0).normal(size=(4000, 3))
        pts *= np.random.default_rng(1).uniform(0, 1, (4000, 1)) ** (1 / 3)
        pts /= np.maximum(np.linalg.norm(pts, axis=1), 1.0)[:, None]
        assert r.gamma <= f.evaluate_float(pts).min()
        cert = extract_certificate(r, p)
        report = verify_certificate(certificate_target(p, r.gamma), G, cert,
                                    mode="numeric", tol=1e-6)
        assert report.ok, report.messages


def _box_separable(rng, n):
    """sum a_i x_i^2 + b_i x_i over [-1, 1]^n: a convex coordinate has its
    minimizer at a multiple of 1/4, a concave one at a corner.  Returns
    (a, b)."""
    grid = [Fraction(k, 4) for k in range(-4, 5)]
    a, b = [], []
    for _ in range(n):
        ai = rng.choice((-3, -2, -1, 1, 2, 3, 4))
        if ai > 0:
            bi = -2 * ai * rng.choice(grid)
        else:
            bi = rng.choice((-2, -1, 1, 2))
        a.append(ai)
        b.append(bi)
    return a, b


def _box_min(a, b):
    """Exact minimum of sum a_i x_i^2 + b_i x_i over [-1, 1]^n, coordinate
    by coordinate: the smaller endpoint, or the clipped vertex."""
    total = Fraction(0)
    for ai, bi in zip(a, b):
        cands = [Fraction(-1), Fraction(1)]
        if ai > 0:
            cands.append(min(max(Fraction(-bi, 2 * ai), Fraction(-1)), Fraction(1)))
        total += min(ai * t * t + bi * t for t in cands)
    return total


def _box_instance(a, b):
    n = len(a)
    xs = [Polynomial.variable(n, i) for i in range(n)]
    f = Polynomial.zero(n)
    for ai, bi, xi in zip(a, b, xs):
        f = f + Polynomial.const(n, ai) * xi * xi + Polynomial.const(n, bi) * xi
    return f, _box(n)


def _check_box(a, b):
    f, G = _box_instance(a, b)
    ref = float(_box_min(a, b))
    p, r = solve_relaxation(f, G, 2)
    assert isinstance(r, RelaxResult)
    assert abs(r.gamma - ref) <= 1e-5 * max(1.0, abs(ref)), (a, b, r.gamma, ref)
    cert = extract_certificate(r, p)
    report = verify_certificate(certificate_target(p, r.gamma), G, cert,
                                mode="numeric", tol=1e-6)
    assert report.ok, report.messages


class TestDegenerateBox:
    """Box instances whose minimizer sits at a corner with a zero multiplier,
    on which the unaccelerated loop converged sublinearly and exhausted its
    60,000-iteration budget."""

    @pytest.mark.parametrize("a, b, ref", [
        ([4, -3], [-8, -2], -9),     # 4 x1^2 - 8 x1 - 3 x2^2 - 2 x2
        ([1, 2], [1, 4], Fraction(-9, 4)),
    ], ids=["opt-9", "opt-2.25"])
    def test_known_instances(self, a, b, ref):
        assert _box_min(a, b) == ref
        _check_box(a, b)

    @pytest.mark.parametrize("n", [2, 3])
    def test_seeded_draws(self, n):
        for seed in range(15):
            _check_box(*_box_separable(random.Random(seed), n))


    def test_transient_displacement_is_not_infeasible(self, monkeypatch):
        # with memory 13 an Anderson step lands where plain DR steps keep the
        # displacement constant for a while, at |D| = 0.18 with an indefinite
        # Gram block: not a limit displacement, so the loop must go on
        monkeypatch.setattr(relax, "AA_MEMORY", 13)
        _check_box(*_box_separable(random.Random(14), 3))


class TestMatrixConstraint:
    """A non-diagonal 2x2 constraint, checked against the set itself: sample
    points whose membership exact scalarization and an exact LDL^T decide
    alike give the minimum of f from above."""

    def test_against_samples(self):
        x1, x2 = _two_vars()
        one = Polynomial.const(2, 1)
        G = SymPolyMatrix([[one - x1 * x1, x1 + x2], [x1 + x2, one - x2 * x2]])
        f = x1 - 2 * x2 + x1 * x2
        system = scalarize(G)
        values = []
        for i in range(-8, 9):
            for j in range(-8, 9):
                pt = (Fraction(i, 8), Fraction(j, 8))
                inside = psd_exact(G.evaluate(pt))
                assert inside == all(d.evaluate(pt).sign() >= 0 for d, _ in system.entries)
                if inside:
                    values.append(f.evaluate(pt).as_fraction())
        assert len(values) > 100
        ref = float(min(values))  # -4 at (-1, 1), where G vanishes
        p, r = solve_relaxation(f, G, 2)
        assert isinstance(r, RelaxResult)
        assert r.gamma <= ref + 1e-6
        # the minimizer is a sample point, so the bound is also tight
        assert r.gamma >= ref - 1e-5
        cert = extract_certificate(r, p)
        report = verify_certificate(certificate_target(p, r.gamma), G, cert,
                                    mode="numeric", tol=1e-6)
        assert report.ok, report.messages


def test_numeric_certificate_serialization_round_trip():
    from pmicert.certify import deserialize, serialize

    p, r = solve_relaxation(x(), ball_constraint(1), 1)
    cert = extract_certificate(r, p)
    text = serialize(cert)
    again = deserialize(text)
    assert serialize(again) == text
    assert again.mode == "numeric"

import math
import random
from fractions import Fraction

import pytest

from pmicert.ring import ExtRational
from pmicert.algebra import (
    Polynomial,
    RationalSymMatrix,
    SymPolyMatrix,
    congruence,
    multinomial,
    psd_exact,
)
from pmicert.bernstein import _basis_sum, elevate, from_bernstein, to_bernstein
from pmicert.polya import (
    NotPositiveDefiniteOnSimplex,
    advisory,
    grid_min_eigenvalue,
    polya_bound,
    polya_certificate,
    scherer_hol_step,
)
from conftest import random_poly, random_sym_matrix


def submatrix(M: RationalSymMatrix, idx) -> RationalSymMatrix:
    """The principal submatrix of M on the rows and columns idx."""
    return RationalSymMatrix([[M[i, j] for j in idx] for i in idx])


def x(i=0, n=1):
    return Polynomial.variable(n, i)


def simplex_form(e):
    """Homogeneous matrix on the standard simplex whose scaled-basis
    coefficients are the Bernstein coefficients of e (the substitution link
    between the two bases)."""
    def scaled_monomial(alpha):
        mono = alpha + (e.degree - sum(alpha),)
        return Polynomial(e.nvars + 1, {mono: multinomial(e.degree, mono)})
    return _basis_sum(e, e.nvars + 1, scaled_monomial)


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
            minors = [float(submatrix(mat, range(k)).determinant()) for k in range(1, ell + 1)]
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


class TestAdvisory:
    def test_bound_from_grid_estimates(self):
        two = Polynomial.const(1, 2)
        adv = advisory(SymPolyMatrix([[two, x()], [x(), two]]))
        assert (adv.degree, adv.fmin_estimate, adv.note) == (1, 1.0, None)

    def test_nonpositive_estimate_is_a_note(self):
        adv = advisory(SymPolyMatrix.scalar(x() * x()))
        assert adv.degree is None and adv.fmin_estimate == 0.0
        assert adv.note == "smallest-eigenvalue estimate 0 is not positive"

    def test_norm_below_estimate_is_a_note(self, monkeypatch):
        import pmicert.polya as polya

        monkeypatch.setattr(polya, "grid_min_eigenvalue", lambda F, points: (5.0, None, 4))
        adv = advisory(SymPolyMatrix.identity(2, 1))
        assert adv.degree is None
        assert adv.note == "expansion norm 1 is below the smallest-eigenvalue estimate 5"

    def test_failed_estimate_is_a_note(self):
        big = Polynomial.const(1, 10**400)
        adv = advisory(SymPolyMatrix([[big, x()], [x(), big]]))
        assert adv.degree is None and adv.fmin_estimate is None
        assert adv.note

    def test_margins_past_the_float_range(self):
        # the minors of a PD matrix past the float range are positive: inf
        big = Polynomial.const(1, 10**200)
        cert = polya_certificate(SymPolyMatrix([[big, x()], [x(), big]]), 4)
        assert cert.degree == 1
        assert set(cert.pd_margins.values()) == {1e200}
        huge = Polynomial.const(1, 10**400)
        cert = polya_certificate(SymPolyMatrix([[huge, x()], [x(), huge]]), 4)
        assert set(cert.pd_margins.values()) == {math.inf}


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

    @pytest.mark.parametrize(
        "edit, line",
        [
            (lambda lines: lines[:1], 2),                                   # header only
            (lambda lines: lines[:3], 4),                                   # no margins line
            (lambda lines: lines[:1] + ["degree x"] + lines[2:], 2),
            (lambda lines: lines[:3] + ["margins -1"] + lines[4:], 4),
            (lambda lines: lines[:3] + ["margins three"] + lines[4:], 4),
            (lambda lines: lines[:3] + ["margins 3"] + lines[4:5], 6),      # one record of 3
            (lambda lines: lines[:4] + ["alpha 0 margin"] + lines[5:], 5),  # no value
            (lambda lines: lines[:4] + ["alpha 0 margin x"] + lines[5:], 5),
            (lambda lines: lines[:4] + ["alpha z margin 1.0"] + lines[5:], 5),
            (lambda lines: lines[:4] + [""] + lines[5:], 5),
            # margins that do not match the expansion: at their own line, or
            # at the expansion's end, where the check runs
            (lambda lines: lines[:3] + ["margins 2", lines[4], "alpha 0 margin 2.0"] + lines[5:],
             6),
            (lambda lines: lines[:4] + ["alpha 0 margin nan"] + lines[5:], 5),
            (lambda lines: lines[:4] + ["alpha 0 margin -1.0"] + lines[5:], 5),
            (lambda lines: lines[:4] + ["alpha 0 margin -inf"] + lines[5:], 5),
            (lambda lines: lines[:1] + ["degree 7"] + lines[2:], 14),
            (lambda lines: lines[:4] + ["alpha 0 0 0 9 margin 1.0"] + lines[5:], 14),
            (lambda lines: lines[:3] + ["margins 0"] + lines[5:], 13),
        ],
        ids=["header-only", "no-margins", "degree-not-int", "negative-count", "count-not-int",
             "missing-records", "margin-without-value", "margin-not-float", "alpha-not-int",
             "empty-record", "repeated-alpha", "nan-margin", "negative-margin",
             "minus-inf-margin", "degree-mismatch", "alpha-outside-index-set",
             "alpha-without-margin"],
    )
    def test_rejects_malformed_header_with_line(self, edit, line):
        from pmicert.bernstein import ExpansionParseError
        from pmicert.polya import parse_polya, serialize_polya

        lines = serialize_polya(polya_certificate(SymPolyMatrix.identity(2, 1), 3)).splitlines()
        assert lines[3:5] == ["margins 1", "alpha 0 margin 1.0"]
        with pytest.raises(ExpansionParseError, match=f"^line {line}: "):
            parse_polya("\n".join(edit(lines)) + "\n")

    @pytest.mark.parametrize("margin", ["inf", "0.0"])
    def test_keeps_margins_past_the_float_range(self, margin):
        # _pd_margin writes inf for a minor above the float range and 0.0 for
        # one below it
        from pmicert.polya import parse_polya, serialize_polya

        text = serialize_polya(polya_certificate(SymPolyMatrix.identity(2, 1), 3))
        text = text.replace("alpha 0 margin 1.0", f"alpha 0 margin {margin}")
        assert parse_polya(text).pd_margins == {(0,): float(margin)}

    @pytest.mark.parametrize("coeff", ["1/0", "1e999999999", "1_000", "1/2*sqrt(-2)"])
    def test_bad_matrix_entry_names_its_line(self, coeff):
        from pmicert.bernstein import ExpansionParseError
        from pmicert.polya import parse_polya, serialize_polya

        lines = serialize_polya(polya_certificate(SymPolyMatrix.identity(2, 1), 3)).splitlines()
        row = lines.index("records 1") + 3      # the second row of the only record
        lines[row] = f"(0/1) ({coeff})"
        with pytest.raises(ExpansionParseError, match=f"^line {row + 1}: "):
            parse_polya("\n".join(lines) + "\n")

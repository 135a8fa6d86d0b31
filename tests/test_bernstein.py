import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from pmicert.ring import ExtRational
from pmicert.algebra import Polynomial, SymPolyMatrix, monomials_upto
from pmicert.bernstein import (
    basis_poly,
    bernstein_norm,
    bernstein_norm_float,
    elevate,
    from_bernstein,
    simplex_lattice,
    simplex_lattice_point,
    simplex_lattice_rounded,
    to_bernstein,
)
from conftest import random_poly, random_sym_matrix


def scalar(p):
    return SymPolyMatrix.scalar(p)


def x(i=0, n=1):
    return Polynomial.variable(n, i)


class TestBasisPoly:
    def test_degree_one_line(self):
        half = Fraction(1, 2)
        assert basis_poly((0,), 1, 1) == (Polynomial.const(1, 1) - x()) * half
        assert basis_poly((1,), 1, 1) == (Polynomial.const(1, 1) + x()) * half

    def test_partition_of_unity_small(self):
        total = Polynomial.zero(2)
        for alpha in monomials_upto(2, 2):
            total = total + basis_poly(alpha, 2, 2)
        assert total == Polynomial.const(2, 1)

    def test_partition_of_unity_full_range(self):
        for n in range(1, 4):
            for t in range(0, 6):
                total = Polynomial.zero(n)
                for alpha in monomials_upto(n, t):
                    total = total + basis_poly(alpha, t, n)
                assert total == Polynomial.const(n, 1), (n, t)

    def test_degree_cap_enforced(self):
        with pytest.raises(ValueError):
            basis_poly((3,), 2, 1)

    def test_against_sympy_oracle(self):
        # independent expansion of the defining product for (n, t) = (2, 2)
        sympy = pytest.importorskip("sympy")
        x1, x2 = sympy.symbols("x1 x2")
        n = 2
        t = 2
        for alpha in monomials_upto(n, t):
            slack = t - sum(alpha)
            mult = sympy.factorial(t) / (
                sympy.factorial(alpha[0]) * sympy.factorial(alpha[1]) * sympy.factorial(slack)
            )
            expr = (
                mult
                * (n + sympy.sqrt(n)) ** (-t)
                * (sympy.sqrt(n) - x1 - x2) ** slack
                * (1 + x1) ** alpha[0]
                * (1 + x2) ** alpha[1]
            )
            expanded = sympy.expand(expr)
            ours = basis_poly(alpha, t, n)
            for mono, coeff in ours.terms.items():
                sym_coeff = expanded.coeff(x1, mono[0]).coeff(x2, mono[1])
                a, b = sympy.Rational(str(coeff.a)), sympy.Rational(str(coeff.b))
                assert sympy.simplify(sym_coeff - (a + b * sympy.sqrt(2))) == 0

    def test_nonnegative_on_simplex_samples(self):
        for alpha in monomials_upto(2, 3):
            b = basis_poly(alpha, 3, 2)
            for pt in simplex_lattice_rounded(2, 6)[1]:
                assert b.evaluate_float(pt) >= -1e-12


class TestConversion:
    def test_linear_example(self):
        e = to_bernstein(scalar(x()), 1)
        assert e[(0,)][0, 0] == ExtRational(-1)
        assert e[(1,)][0, 0] == ExtRational(1)

    def test_constant_all_coeffs_equal(self):
        c = Fraction(3, 7)
        e = to_bernstein(scalar(Polynomial.const(2, c)), 3)
        assert all(mat[0, 0] == ExtRational(c) for _, mat in e.items())

    def test_square_example(self):
        e = to_bernstein(scalar(x() * x()), 2)
        coeffs = [e[(k,)][0, 0] for k in range(3)]
        assert coeffs == [ExtRational(1), ExtRational(-1), ExtRational(1)]

    def test_round_trip_random(self, rng):
        # every (n, t) with C(n + t, n) <= 120 for n <= 7, except that n = 1
        # stops at t = 24 (the from_bernstein oracle costs O(t^4) there);
        # matrix degree t and a random lower degree alternate
        for n in range(1, 8):
            t = 0
            while math.comb(n + t, n) <= 120 and (n > 1 or t <= 24):
                deg = t if t % 2 == 0 else rng.randint(0, t - 1)
                M = random_sym_matrix(rng, rng.randint(1, 3), n, deg)
                e = to_bernstein(M, t)
                assert from_bernstein(e) == M, (n, t)
                lifted = elevate(to_bernstein(M, max(M.degree, 0)), t)
                assert lifted.coeffs == e.coeffs, (n, t)
                t += 1

    def test_cold_conversion_n4_t6(self, rng):
        # a full-degree matrix; the corner coefficients are the values of M
        # at the vertices of the scaled simplex
        n, t = 4, 6
        M = random_sym_matrix(rng, 2, n, t)
        e = to_bernstein(M, t)
        assert len(e.coeffs) == math.comb(n + t, n)
        corner = ExtRational(n - 1, 1, n)  # n + sqrt(n) - 1
        assert e[(0,) * n] == M.evaluate([ExtRational(-1)] * n)
        for i in range(n):
            vertex = [corner if j == i else ExtRational(-1) for j in range(n)]
            assert e[tuple(t if j == i else 0 for j in range(n))] == M.evaluate(vertex)

    def test_degree_too_small(self):
        with pytest.raises(ValueError):
            to_bernstein(scalar(x() ** 3), 2)

    def test_all_ones_reconstructs_one(self):
        from pmicert.bernstein import BernsteinExpansion
        from pmicert.algebra import RationalSymMatrix

        coeffs = {a: RationalSymMatrix([[1]]) for a in monomials_upto(2, 3)}
        e = BernsteinExpansion(2, 3, 1, coeffs)
        assert from_bernstein(e) == scalar(Polynomial.const(2, 1))


class TestElevation:
    def test_linear_elevation_example(self):
        e = elevate(to_bernstein(scalar(x()), 1), 2)
        assert [e[(k,)][0, 0] for k in range(3)] == [
            ExtRational(-1),
            ExtRational(0),
            ExtRational(1),
        ]

    def test_composition(self, rng):
        M = random_sym_matrix(rng, 2, 1, 2)
        e = to_bernstein(M, 2)
        one_step = elevate(elevate(e, 3), 4)
        two_step = elevate(e, 4)
        assert all(one_step[a] == two_step[a] for a in one_step.coeffs)

    def test_elevation_matches_direct_solve(self, rng):
        M = random_sym_matrix(rng, 1, 2, 2)
        via_elevate = elevate(to_bernstein(M, 2), 4)
        direct = to_bernstein(M, 4)
        assert all(via_elevate[a] == direct[a] for a in direct.coeffs)

    def test_downward_rejected(self, rng):
        e = to_bernstein(random_sym_matrix(rng, 1, 1, 2), 2)
        with pytest.raises(ValueError):
            elevate(e, 1)


class TestNorms:
    def test_examples(self):
        assert abs(bernstein_norm(scalar(x()), 1) - 1.0) < 1e-12
        C = SymPolyMatrix(
            [[Polynomial.const(1, 3), Polynomial.const(1, 1)],
             [Polynomial.const(1, 1), Polynomial.const(1, 3)]]
        )
        assert abs(bernstein_norm(C, 0) - 4.0) < 1e-12  # spectral norm of [[3,1],[1,3]]
        two = Polynomial.const(1, 2)
        G = SymPolyMatrix([[two, x()], [x(), two]])
        assert abs(bernstein_norm(G, 1) - 3.0) < 1e-12

    def test_monotone_in_degree(self, rng):
        # norm at a higher basis degree never exceeds the norm at a lower one
        for _ in range(100):
            p = random_poly(rng, rng.randint(1, 2), rng.randint(1, 3))
            d = max(p.degree, 0)
            n1 = bernstein_norm(scalar(p), d + rng.randint(1, 3))
            n2 = bernstein_norm(scalar(p), d)
            assert n1 <= n2 + 1e-10

    def test_sup_bounded_by_norm(self, rng):
        for _ in range(20):
            n = rng.randint(1, 2)
            p = random_poly(rng, n, 3)
            norm = bernstein_norm(scalar(p), max(p.degree, 0))
            pts = simplex_lattice_rounded(n, 200 if n == 1 else 19)[1]
            assert len(pts) >= 200
            sup = max(abs(p.evaluate_float(pt)) for pt in pts)
            assert sup <= norm + 1e-10

    def test_submultiplicative(self, rng):
        for _ in range(100):
            n = rng.randint(1, 2)
            f = random_poly(rng, n, 2)
            g = random_poly(rng, n, 2)
            d1, d2 = max(f.degree, 0), max(g.degree, 0)
            lhs = bernstein_norm(scalar(f * g), d1 + d2)
            rhs = bernstein_norm(scalar(f), d1) * bernstein_norm(scalar(g), d2)
            assert lhs <= rhs + 1e-10

    def test_quadratic_form_bound(self, rng):
        # |xi^T P xi| coefficients stay below the matrix norm for unit xi,
        # and the sup over many xi nearly attains it
        for _ in range(5):
            P = random_sym_matrix(rng, 2, 1, 2)
            e = to_bernstein(P, max(P.degree, 0))
            mats = [m.to_numpy() for m in e.coeffs.values()]
            normB = bernstein_norm(P)
            best = 0.0
            nprng = np.random.default_rng(11)
            for _ in range(500):
                xi = nprng.standard_normal(2)
                xi /= np.linalg.norm(xi)
                val = max(abs(float(xi @ m @ xi)) for m in mats)
                assert val <= normB + 1e-10
                best = max(best, val)
            assert best >= 0.95 * normB

    def test_float_norm_matches_exact_path(self, rng):
        cases = [(2, 2, 3), (3, 2, 2), (3, 3, 5), (4, 2, 3), (4, 4, 4)]
        for (n, deg, t), ell in itertools.product(cases, (1, 2, 3)):
            M = random_sym_matrix(rng, ell, n, deg)
            dicts = [
                [{a: float(c) for a, c in M.entries[i][j].terms.items()} for j in range(ell)]
                for i in range(ell)
            ]
            exact = bernstein_norm(M, t)
            approx = bernstein_norm_float(dicts, n, ell, t)
            assert abs(approx - exact) <= 1e-12 * exact


def test_exact_lattice_points_lie_on_simplex():
    for n in (1, 2):
        for pt in simplex_lattice(n, 4):
            coords = [ExtRational.coerce(c) for c in pt]
            assert all((c + 1).sign() >= 0 for c in coords)
            total = ExtRational.sqrt(n)
            for c in coords:
                total = total - c
            assert total.sign() >= 0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rounded_lattice_is_the_float_of_the_exact_one(n):
    # n = 1 and n = 4 fold sqrt(n) into the rational part
    for res in (1, 2, 3, 6, 10) if n < 5 else (1, 4, 7):
        betas, pts = simplex_lattice_rounded(n, res)
        exact = simplex_lattice(n, res)
        assert len(betas) == len(exact) == len(pts) == math.comb(res + n, n)
        floats = np.array(exact, dtype=float).reshape(len(exact), n)
        assert np.array_equal(pts, floats)
        assert np.array_equal(np.signbit(pts), np.signbit(floats))
        for beta, point in zip(betas, exact):
            assert simplex_lattice_point(n, beta, res) == point


class TestExpansionSerialization:
    def test_round_trip_byte_identical(self, rng):
        for _ in range(10):
            n = rng.randint(1, 2)
            M = random_sym_matrix(rng, rng.randint(1, 2), n, rng.randint(0, 2))
            e = to_bernstein(M, max(M.degree, 0) + 1)
            from pmicert.bernstein import parse_expansion, serialize_expansion

            text = serialize_expansion(e)
            back = parse_expansion(text)
            assert serialize_expansion(back) == text
            assert from_bernstein(back) == M

    def test_sqrt_entries_survive(self):
        p = Polynomial(2, {(1, 0): ExtRational(0, 1, 2)})
        e = to_bernstein(scalar(p), 1)
        from pmicert.bernstein import parse_expansion, serialize_expansion

        assert from_bernstein(parse_expansion(serialize_expansion(e))) == scalar(p)

    def test_parse_errors_name_lines(self):
        from pmicert.bernstein import ExpansionParseError, parse_expansion

        with pytest.raises(ExpansionParseError):
            parse_expansion("nope\n")
        e = to_bernstein(scalar(x()), 1)
        from pmicert.bernstein import serialize_expansion

        text = serialize_expansion(e)
        with pytest.raises(ExpansionParseError) as info:
            parse_expansion("\n".join(text.splitlines()[:6]))
        assert "line" in str(info.value)

    def test_declared_degree_bounded_by_text(self):
        from pmicert.bernstein import ExpansionParseError, parse_expansion

        text = "bexp-v1\nnvars 2\ndegree 1000\nsize 1\nrecords 0\nend\n"
        assert len(text) == 49
        with pytest.raises(ExpansionParseError, match="^line 3: degree 1000"):
            parse_expansion(text)

    def test_index_count_not_built_past_records(self):
        from pmicert.bernstein import ExpansionParseError, parse_expansion

        # C(400000, 200000) has 120,000 digits; only the declared count is needed
        text = ("bexp-v1\nnvars 200000\ndegree 200000\nsize 0\nrecords 1\n"
                + "x\n" * 200000)
        with pytest.raises(ExpansionParseError, match=r"^line 5: .* = C\(400000, 200000\)"):
            parse_expansion(text)

    def test_oversized_matrix_rejected_before_allocation(self):
        import tracemalloc

        from pmicert.bernstein import ExpansionParseError, parse_expansion

        text = "bexp-v1\nnvars 1\ndegree 0\nsize 3000\nrecords 1\nalpha 0\n(1/1)\nend\n"
        tracemalloc.start()
        try:
            with pytest.raises(ExpansionParseError, match="^line 4: size 3000"):
                parse_expansion(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # a 3000 x 3000 grid alone is 72 MB of pointers

    @pytest.mark.parametrize(
        "edit, line",
        [
            # one record fewer than the C(nvars + degree, nvars) = 3 written
            (lambda lines: lines[:4] + ["records 2"] + lines[5:9] + lines[11:], 5),
            # the right count, but alpha 0 twice and alpha 1 missing
            (lambda lines: lines[:7] + lines[5:7] + lines[9:], 8),
            (lambda lines: lines[:7] + ["alpha 3"] + lines[8:], 8),
        ],
        ids=["short-count", "repeated-alpha", "alpha-above-degree"],
    )
    def test_every_alpha_exactly_once(self, edit, line):
        from pmicert.bernstein import ExpansionParseError, parse_expansion, serialize_expansion

        lines = serialize_expansion(to_bernstein(scalar(x() + 2), 2)).splitlines()
        assert [lines[4], lines[5], lines[7], lines[9]] == [
            "records 3", "alpha 0", "alpha 1", "alpha 2"]
        with pytest.raises(ExpansionParseError, match=f"^line {line}: "):
            parse_expansion("\n".join(edit(lines)) + "\n")

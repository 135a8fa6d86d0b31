import dataclasses
import importlib
import random
from fractions import Fraction

import pytest

from pmicert.ring import ExtRational
from pmicert.algebra import PolyMatrix, Polynomial, SymPolyMatrix, congruence, psd_exact
from pmicert.bounds import theta
from pmicert.scalarize import (
    charpoly_scalarization,
    equivalence_check,
    reduction_step,
    scalarize,
    scalarize_base2,
    verify_witness,
)
from conftest import random_poly, random_sym_matrix

# the package re-exports the function `scalarize` under the module's name
scalarize_module = importlib.import_module("pmicert.scalarize")


def x(i=0, n=1):
    return Polynomial.variable(n, i)


def const(v, n=1):
    return Polynomial.const(n, v)


class TestBase2:
    def test_diagonal_formulas(self):
        g1 = x() + 2
        g2 = x() * x()
        G = SymPolyMatrix([[g1, Polynomial.zero(1)], [Polynomial.zero(1), g2]])
        polys = scalarize_base2(G).polynomials()
        assert polys[0] == g1
        assert polys[1] == g2
        assert polys[2] == g1 * g1 * g2
        assert polys[3] == g1 + g2
        assert polys[4] == g1 * g2 * g2
        assert polys[5] == (g1 + g2) * g1 * g2

    def test_constant_values(self):
        G = SymPolyMatrix([[const(2), const(1)], [const(1), const(2)]])
        vals = [p.coeff((0,) * p.nvars) for p in scalarize_base2(G).polynomials()]
        assert [float(v) for v in vals] == [2, 2, 6, 6, 6, 18]

    def test_first_witness_is_unit_vector(self, rng):
        G = random_sym_matrix(rng, 2, 1, 2)
        d, v = scalarize_base2(G).entries[0]
        assert d == G[0, 0]
        assert v[0, 0] == const(1) and v[1, 0].is_zero()

    def test_all_witnesses_verify(self, rng):
        for _ in range(10):
            G = random_sym_matrix(rng, 2, 2, 2)
            for d, v in scalarize_base2(G).entries:
                assert verify_witness(d, v, G)

    def test_sixth_polynomial_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        a, b, c = sympy.symbols("a b c")  # G11, G12, G22
        A = sympy.Matrix([[1, 0], [1, 1]]) * sympy.Matrix(
            [[a + 2 * b + c, -c - b], [0, a + 2 * b + c]]
        )
        D = (A.T * sympy.Matrix([[a, b], [b, c]]) * A).applyfunc(sympy.expand)
        assert D[0, 1] == 0 and D[1, 0] == 0
        expected = sympy.expand(
            (a + 2 * b + c) * ((a + 2 * b + c) * c - (b + c) ** 2)
        )
        assert sympy.expand(D[1, 1] - expected) == 0
        # and the emitted entry matches that display for symbolic-entry G
        g11, g12, g22 = x(0, 3), x(1, 3), x(2, 3)
        G = SymPolyMatrix([[g11, g12], [g12, g22]])
        sixth = scalarize_base2(G).polynomials()[5]
        s = g11 + 2 * g12 + g22
        assert sixth == s * (s * g22 - (g12 + g22) ** 2)

    def test_wrong_size_rejected(self, rng):
        with pytest.raises(ValueError):
            scalarize_base2(random_sym_matrix(rng, 3, 1, 1))


class TestReductionStep:
    def test_diagonal_pivot(self, rng):
        G = random_sym_matrix(rng, 2, 1, 2)
        st = reduction_step(G, 1, 1)
        det = G[0, 0] * G[1, 1] - G[0, 1] * G[0, 1]
        assert st.s == G[0, 0]
        assert st.B[0, 0] == G[0, 0] * det

    def test_mixed_pivot(self, rng):
        G = random_sym_matrix(rng, 2, 1, 2)
        st = reduction_step(G, 1, 2)
        s = G[0, 0] + 2 * G[0, 1] + G[1, 1]
        assert st.s == s
        assert st.B[0, 0] == s * (s * G[1, 1] - (G[0, 1] + G[1, 1]) ** 2)

    def test_constant_example(self):
        G = SymPolyMatrix([[const(2), const(1)], [const(1), const(2)]])
        st = reduction_step(G, 1, 1)
        assert st.s == const(2) and st.B[0, 0] == const(6)

    def test_congruence_identities(self, rng):
        # X- X+ = s^2 I and s^4 T G T^T = X+ (X- T G T^T X-^T) X+^T
        for size in (2, 3):
            G = random_sym_matrix(rng, size, 1, 1)
            for i in range(1, size + 1):
                for j in range(i, size + 1):
                    st = reduction_step(G, i, j)
                    prod = st.X_minus @ st.X_plus
                    s2 = st.s * st.s
                    for r in range(size):
                        for c in range(size):
                            expected = s2 if r == c else Polynomial.zero(G.nvars)
                            assert prod.entries[r][c] == expected
                    TGT = st.T @ G @ st.T.transpose()
                    lhs = TGT.scale_poly(st.s ** 4)
                    Gij = st.transform @ G @ st.transform.transpose()
                    rhs = st.X_plus @ Gij @ st.X_plus.transpose()
                    assert lhs.entries == rhs.entries
                    # transform G transform^T = diag(s^3, B)
                    zero = Polynomial.zero(G.nvars)
                    assert Gij[0, 0] == st.s**3
                    assert all(Gij[0, c] == zero for c in range(1, size))
                    for r in range(1, size):
                        for c in range(1, size):
                            assert Gij[r, c] == st.B[r - 1, c - 1]

    @pytest.mark.parametrize("size", [3, 4])
    def test_index_built_row_operations_equal_products(self, rng, size):
        # reduction_step sums entries of G by index; the matrix products
        # they stand for are formed here only
        G = random_sym_matrix(rng, size, 2, 1)
        one, zero = const(1, 2), Polynomial.zero(2)
        for i in range(1, size + 1):
            for j in range(i, size + 1):
                st = reduction_step(G, i, j)
                order = list(range(size))
                order[0], order[i - 1] = order[i - 1], order[0]
                T = PolyMatrix([[one if c == order[r] else zero for c in range(size)]
                                for r in range(size)])
                if i < j:
                    add = [[one if r == c else zero for c in range(size)] for r in range(size)]
                    add[i - 1][j - 1] = one
                    T = T @ PolyMatrix(add)
                assert st.T == T
                assert st.transform == st.X_minus @ T
                conj = T @ G @ T.transpose()
                s, beta = conj[0, 0], [conj[r, 0] for r in range(1, size)]
                assert st.s == s
                assert [st.X_minus[r, 0] for r in range(1, size)] == [-b for b in beta]
                assert [st.X_plus[r, 0] for r in range(1, size)] == beta
                assert st.B.entries == [
                    [s * (s * conj[r + 1, c + 1] - beta[r] * beta[c]) for c in range(size - 1)]
                    for r in range(size - 1)]

    def test_degree_caps(self, rng):
        G = random_sym_matrix(rng, 3, 1, 2)
        d_G = G.degree
        for i in range(1, 4):
            for j in range(i, 4):
                st = reduction_step(G, i, j)
                assert st.s.degree <= d_G
                assert st.B.degree <= 3 * d_G

    def test_index_validation(self, rng):
        G = random_sym_matrix(rng, 2, 1, 1)
        with pytest.raises(ValueError):
            reduction_step(G, 2, 1)
        with pytest.raises(ValueError):
            reduction_step(G, 0, 1)


class TestScalarize:
    def test_counts(self, rng):
        assert len(scalarize(random_sym_matrix(rng, 2, 1, 1))) == 6
        assert len(scalarize(random_sym_matrix(rng, 3, 1, 1))) == 42

    def test_matches_base2_for_2x2(self, rng):
        G = random_sym_matrix(rng, 2, 2, 2)
        assert scalarize(G).polynomials() == scalarize_base2(G).polynomials()

    def test_degree_cap_and_witnesses(self, rng):
        for size, n in ((2, 2), (3, 1)):
            G = random_sym_matrix(rng, size, n, 2)
            system = scalarize(G)
            cap = 3 ** (size - 1) * max(G.degree, 0)
            for d, v in system.entries:
                assert d.degree <= cap
                assert verify_witness(d, v, G)

    def test_size_limits(self, rng):
        with pytest.raises(ValueError):
            scalarize(random_sym_matrix(rng, 1, 1, 1))
        with pytest.raises(ValueError):
            scalarize(random_sym_matrix(rng, 6, 1, 0))

    def test_verify_witness_rejects_offset(self, rng):
        G = random_sym_matrix(rng, 2, 1, 1)
        d, v = scalarize(G).entries[0]
        assert not verify_witness(d + 1, v, G)

    def test_one_witness_check_per_entry(self, rng, monkeypatch):
        calls = []
        original = scalarize_module.verify_witness

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(scalarize_module, "verify_witness", counted)
        scalarize(random_sym_matrix(rng, 3, 1, 1))
        assert len(calls) == theta(3) == 42


def _bump(P, r, c, amount=1):
    """Copy of P with `amount` added to entry (r, c)."""
    grid = [list(row) for row in P.entries]
    grid[r][c] = grid[r][c] + amount
    return grid


def _corrupt_B(step):
    grid = _bump(step.B, 0, 1)
    grid[1][0] = grid[0][1]
    return dataclasses.replace(step, B=SymPolyMatrix(grid))


def _corrupt_transform(step):
    # row 0 of transform meets the zero padding of every lifted witness, so
    # a corruption there is invisible by design; row 1 is not
    return dataclasses.replace(step, transform=PolyMatrix(_bump(step.transform, 1, 0)))


def _corrupt_base_d(system):
    entries = list(system.entries)
    d, v = entries[2]
    entries[2] = (d + 1, v)
    return dataclasses.replace(system, entries=entries)


class TestSingleCheckMutations:
    """The final per-entry check alone catches a corrupted reduction step or
    base case: the reduction and base-case checks it replaced are redundant."""

    @pytest.mark.parametrize(
        "target, corrupt",
        [
            ("reduction_step", _corrupt_B),
            ("reduction_step", _corrupt_transform),
            ("scalarize_base2", _corrupt_base_d),
        ],
        ids=["B_offdiagonal", "transform_entry", "base_case_d"],
    )
    def test_corruption_raises(self, rng, monkeypatch, target, corrupt):
        original = getattr(scalarize_module, target)
        done = []

        def corrupted(*args):
            result = original(*args)
            if not done:
                done.append(True)
                return corrupt(result)
            return result

        monkeypatch.setattr(scalarize_module, target, corrupted)
        G = random_sym_matrix(rng, 3, 1, 1)
        with pytest.raises(AssertionError, match="witness failed"):
            scalarize(G)
        assert done


class TestEquivalence:
    def test_ball_slice(self):
        one = const(1)
        G = SymPolyMatrix([[one, x()], [x(), one]])
        system = scalarize(G)
        report = equivalence_check(
            G, system, [[Fraction(1, 2)], [Fraction(2)], [Fraction(1)], [Fraction(-1)]]
        )
        assert report.ok
        assert report.results[0].matrix_psd
        assert not report.results[1].matrix_psd
        assert report.results[2].matrix_psd  # boundary: eigenvalues 0 and 2

    def test_random_instances(self, rng):
        for _ in range(10):
            G = random_sym_matrix(rng, 2, 1, 2)
            system = scalarize(G)
            pts = [[Fraction(rng.randint(-8, 8), 4)] for _ in range(40)]
            assert equivalence_check(G, system, pts).ok

    def test_all_pivots_vanish_point(self):
        # G = [[p, -p], [-p, p]] has s12 identically zero and every pivot
        # vanishing at x = 0; the zero matrix is still PSD there
        p = x() * x()
        G = SymPolyMatrix([[p, -p], [-p, p]])
        system = scalarize(G)
        report = equivalence_check(G, system, [[Fraction(0)], [Fraction(1, 2)]])
        assert report.ok
        assert report.results[0].matrix_psd


class TestCharPoly:
    def test_constant_example(self):
        G = SymPolyMatrix([[const(2), const(1)], [const(1), const(2)]])
        entries = charpoly_scalarization(G)
        assert entries[0].poly == const(4)
        assert entries[1].poly == const(3)
        assert entries[0].witnesses is not None
        assert entries[1].witnesses is None

    def test_identity(self):
        entries = charpoly_scalarization(SymPolyMatrix.identity(2, 1))
        assert entries[0].poly == const(2) and entries[1].poly == const(1)

    def test_flags_indefinite(self):
        G = SymPolyMatrix([[const(1), Polynomial.zero(1)], [Polynomial.zero(1), const(-1)]])
        entries = charpoly_scalarization(G)
        assert entries[0].poly.is_zero()
        assert entries[1].poly == const(-1)

    def test_agrees_with_determinant(self, rng):
        sympy = pytest.importorskip("sympy")
        lam = sympy.Symbol("lam")
        t = sympy.Symbol("t")
        G = random_sym_matrix(rng, 3, 1, 1)
        entries = charpoly_scalarization(G)
        M = sympy.Matrix(
            3, 3, lambda i, j: sympy.Rational(str(G[i, j].coeff((0,)).a))
            + sympy.Rational(str(G[i, j].coeff((1,)).a)) * t
        )
        char = sympy.expand((lam * sympy.eye(3) - M).det())
        rebuilt = lam ** 3
        for idx, entry in enumerate(entries, start=1):
            poly_sym = sum(
                sympy.Rational(str(c.a)) * t ** a[0] for a, c in entry.poly.terms.items()
            )
            rebuilt += (-1) ** idx * poly_sym * lam ** (3 - idx)
        assert sympy.expand(char - rebuilt) == 0

    def test_set_description_matches_scalarize(self, rng):
        for _ in range(5):
            G = random_sym_matrix(rng, 2, 1, 1)
            system = scalarize(G)
            entries = charpoly_scalarization(G)
            for _ in range(30):
                pt = [Fraction(rng.randint(-6, 6), 3)]
                by_scalarize = all(d.evaluate(pt).sign() >= 0 for d in system.polynomials())
                by_charpoly = all(e.poly.evaluate(pt).sign() >= 0 for e in entries)
                assert by_scalarize == by_charpoly == psd_exact(G.evaluate(pt))

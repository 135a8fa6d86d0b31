"""The exact matrix work of certify-simplex in integers against its
ExtRational oracles: the fraction-free LDL^T behind ldlt, psd_exact and
polya._pd_margin, the one-call Kronecker Gram of assemble_simplex_putinar,
its multiplier terms (one LDL^T per sigma polynomial), and integer
Bernstein elevation."""

import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pmicert.ring import (ONE, ZERO, ExtRational, RadicandMismatch, _make, format_parts,
                          parse_parts)
from pmicert.algebra import (
    LineReader,
    Polynomial,
    PolyMatrix,
    RationalSymMatrix,
    SymPolyMatrix,
    _sym_matrix,
    ldlt,
    lower_triangle_rows,
    monomials_upto,
    multinomial,
    psd_exact,
)
from pmicert.bernstein import BernsteinExpansion, elevate, to_bernstein
from pmicert.certify import (
    MultiplierTerm,
    QMCertificate,
    _blocks_to_squares,
    _product_membership,
    assemble_simplex_putinar,
    ball_constraint,
    deserialize,
    gram_from_squares,
    serialize,
    trivial_ball_witness,
    verify_certificate,
)
from pmicert.polya import _pd_margin, polya_certificate
from pmicert.problemio import ProblemData, dump_problem
from conftest import random_sym_matrix

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# oracles: the ExtRational loops the integer code replaced


def oracle_ldlt(M: RationalSymMatrix):
    """Symmetric elimination one ExtRational operation at a time, the upper
    triangle only, a zero pivot with a zero row skipped."""
    n = M.size
    a = [row[:] for row in M.entries]
    cols, pivots = [], []
    for k in range(n):
        rowk = a[k]
        piv = rowk[k]
        s = piv.sign()
        if s < 0:
            raise ValueError("matrix is not positive semidefinite (negative pivot)")
        if s == 0:
            if any(rowk[j] for j in range(k + 1, n)):
                raise ValueError("matrix is not positive semidefinite (zero pivot row)")
            continue
        inv = piv.inverse()
        col = [ZERO] * k + [ONE] + [rowk[i] * inv for i in range(k + 1, n)]
        cols.append(col)
        pivots.append(piv)
        for i in range(k + 1, n):
            factor = col[i]
            if not factor:
                continue
            row = a[i]
            for j in range(i, n):
                row[j] = row[j] - factor * rowk[j]
    return cols, pivots


def oracle_margin(M: RationalSymMatrix):
    """The smallest leading principal minor as a float, from the products of
    the oracle's pivots; None unless M is PD."""
    try:
        _, pivots = oracle_ldlt(M)
    except ValueError:
        return None
    if len(pivots) < M.size:
        return None
    minor, margin = ONE, math.inf
    for d in pivots:
        minor = minor * d
        try:
            margin = min(margin, float(minor))
        except OverflowError:
            pass
    return margin


def scaled(M: RationalSymMatrix, c) -> RationalSymMatrix:
    """c M, one ExtRational product per entry."""
    c = ExtRational.coerce(c)
    return RationalSymMatrix([[v * c for v in row] for row in M.entries])


def plus(A: RationalSymMatrix, B: RationalSymMatrix) -> RationalSymMatrix:
    """A + B, one ExtRational sum per entry."""
    return RationalSymMatrix([[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A.entries, B.entries)])


def oracle_elevate(e: BernsteinExpansion, target: int) -> BernsteinExpansion:
    """Degree elevation one unit step and one ExtRational matrix at a time."""
    out = e
    while out.degree < target:
        t, ell = out.degree, out.ell
        coeffs = {}
        for alpha in monomials_upto(out.nvars, t + 1):
            acc = RationalSymMatrix([[ZERO] * ell for _ in range(ell)])
            if sum(alpha) <= t:
                acc = plus(acc, scaled(out[alpha], t + 1 - sum(alpha)))
            for i, ei in enumerate(alpha):
                if ei:
                    lower = list(alpha)
                    lower[i] -= 1
                    acc = plus(acc, scaled(out[tuple(lower)], ei))
            coeffs[alpha] = scaled(acc, ExtRational(Fraction(1, t + 1)))
        out = BernsteinExpansion(out.nvars, t + 1, ell, coeffs)
    return out


def outcome(fn, M):
    """("returned", result) or ("raised", exception type, message)."""
    try:
        return "returned", fn(M)
    except ValueError as exc:
        return "raised", type(exc), str(exc)


# ---------------------------------------------------------------------------
# random matrices over Q, Q(sqrt 2), Q(sqrt 3) and Q(sqrt 8)


def _value(rng, surd):
    v = ExtRational(Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
    if surd and rng.random() < 0.5:
        v = v + ExtRational(0, Fraction(rng.randint(-2, 2), rng.randint(1, 3)), surd)
    return v


def _positive(rng, surd):
    v = ExtRational(Fraction(rng.randint(1, 4), rng.randint(1, 3)))
    if surd and rng.random() < 0.5:
        v = v + ExtRational.sqrt(surd) * rng.randint(0, 2)
    return v


def _congruent(U, d):
    """U^T diag(d) U."""
    n = len(d)
    return [[sum((U[r][i] * d[r] * U[r][j] for r in range(n)), ZERO) for j in range(n)]
            for i in range(n)]


def _unit_upper(rng, size, surd):
    return [[ONE if i == j else _value(rng, surd) if j > i else ZERO for j in range(size)]
            for i in range(size)]


def cases(rng, surd, sizes=range(1, 19)):
    """(kind, matrix) per size: PD (U^T D U, U unit upper triangular, D > 0),
    singular PSD whose zero pivots have zero rows (zeros in D), a zero
    pivot with a nonzero row (one entry right of such a pivot bumped), and
    indefinite (a negative entry in D, and a random symmetric matrix)."""
    for size in sizes:
        U = _unit_upper(rng, size, surd)
        d = [_positive(rng, surd) for _ in range(size)]
        yield "pd", _congruent(U, d)
        zeros = rng.sample(range(size), max(1, size // 4))
        d0 = [ZERO if k in zeros else v for k, v in enumerate(d)]
        singular = _congruent(U, d0)
        yield "zero-row", singular
        k = min(zeros)
        if k < size - 1:
            j = rng.randrange(k + 1, size)
            bumped = [row[:] for row in singular]
            bumped[k][j] = bumped[j][k] = bumped[k][j] + 1
            yield "zero-pivot-nonzero-row", bumped
        dn = d[:]
        dn[rng.randrange(size)] = -dn[0]
        yield "indefinite", _congruent(U, dn)
        R = [[_value(rng, surd) for _ in range(size)] for _ in range(size)]
        yield "symmetric", [[R[min(i, j)][max(i, j)] for j in range(size)] for i in range(size)]


# 8 is not squarefree: Z[sqrt(8)] is still a ring, and every minor lies in it
SURDS = [0, 2, 3, 8]


class TestIntegerLdlt:
    @pytest.mark.parametrize("surd", SURDS)
    def test_ldlt_equals_oracle(self, surd):
        rng = random.Random(1000 + surd)
        seen = set()
        for kind, entries in cases(rng, surd):
            M = RationalSymMatrix(entries)
            expected = outcome(oracle_ldlt, M)
            assert outcome(ldlt, M) == expected, (kind, M.size)
            seen.add((kind, expected[0]))
        assert {("pd", "returned"), ("zero-row", "returned"),
                ("zero-pivot-nonzero-row", "raised"), ("indefinite", "raised")} <= seen

    @pytest.mark.parametrize("surd", SURDS)
    def test_psd_exact_and_margin_equal_oracle(self, surd):
        rng = random.Random(2000 + surd)
        for kind, entries in cases(rng, surd):
            M = RationalSymMatrix(entries)
            got = outcome(oracle_ldlt, M)
            psd = got[0] == "returned"
            pd = psd and len(got[1][1]) == M.size
            assert psd_exact(M) == psd, (kind, M.size)
            assert psd_exact(M, strict=True) == pd, (kind, M.size)
            assert _pd_margin(M) == oracle_margin(M), (kind, M.size)
            if kind == "pd":
                assert pd
            if kind in ("zero-row", "zero-pivot-nonzero-row"):
                assert not pd

    def test_pivots_and_columns_rebuild_the_matrix(self):
        rng = random.Random(5)
        for surd in SURDS:
            for kind, entries in cases(rng, surd, sizes=(1, 4, 9)):
                M = RationalSymMatrix(entries)
                if kind not in ("pd", "zero-row"):
                    continue
                cols, pivots = ldlt(M)
                assert all(p.sign() > 0 for p in pivots)
                rebuilt = [[sum((p * c[i] * c[j] for c, p in zip(cols, pivots)), ZERO)
                            for j in range(M.size)] for i in range(M.size)]
                assert rebuilt == M.entries

    def test_margin_is_the_smallest_leading_minor(self):
        M = RationalSymMatrix([[4, 2, 0], [2, 3, 1], [0, 1, Fraction(3, 4)]])
        # leading minors 4, 8 and 4 (9/4 - 1) - 2 (3/2) = 2
        assert _pd_margin(M) == 2.0

    def test_minor_past_the_float_range_is_skipped(self):
        big = ExtRational(10 ** 200)
        M = RationalSymMatrix([[big, ZERO], [ZERO, big]])
        assert _pd_margin(M) == 1e200
        assert _pd_margin(M) == oracle_margin(M)

    def test_denominators_far_apart(self):
        M = RationalSymMatrix([[Fraction(1, 3), Fraction(1, 7)], [Fraction(1, 7), Fraction(1, 11)]])
        assert outcome(ldlt, M) == outcome(oracle_ldlt, M)
        assert _pd_margin(M) == oracle_margin(M)

    def test_mixed_radicands_raise(self):
        # no matrix mixes two radicands, so ldlt, psd_exact and _pd_margin
        # never see one; matrices of one radicand each meet in an elevation
        s2, s3 = ExtRational.sqrt(2), ExtRational.sqrt(3)
        for entries in ([[s2, ZERO], [ZERO, s3]],
                        [[ONE, s2, ZERO], [s2, ExtRational(3), ONE], [ZERO, ONE, s3 + 2]]):
            with pytest.raises(RadicandMismatch, match=r"sqrt\(2\) with sqrt\(3\)"):
                RationalSymMatrix(entries)
        coeffs = {(0,): RationalSymMatrix([[s2, ZERO], [ZERO, ONE]]),
                  (1,): RationalSymMatrix([[ONE, ZERO], [ZERO, s3]])}
        with pytest.raises(RadicandMismatch, match=r"sqrt\(2\) with sqrt\(3\)"):
            elevate(BernsteinExpansion(1, 1, 2, coeffs), 2)

    def test_radicand_in_one_entry_only(self):
        M = RationalSymMatrix([[ExtRational(2), ONE], [ONE, ExtRational.sqrt(5)]])
        assert outcome(ldlt, M) == outcome(oracle_ldlt, M)
        assert psd_exact(M, strict=True)


# ---------------------------------------------------------------------------
# elevation


class TestIntegerElevation:
    @pytest.mark.parametrize("n, ell, degree, steps", [(1, 2, 2, 4), (2, 2, 2, 3), (2, 3, 1, 2),
                                                       (3, 1, 2, 2)])
    def test_multi_step_equals_oracle(self, n, ell, degree, steps):
        rng = random.Random(10 * n + ell)
        e = to_bernstein(random_sym_matrix(rng, ell, n, degree), degree)
        got = elevate(e, degree + steps)
        expected = oracle_elevate(e, degree + steps)
        assert got.degree == expected.degree
        assert list(got.coeffs) == list(expected.coeffs)
        assert all(got[a] == expected[a] for a in expected.coeffs)
        one_step = elevate(e, degree + 1)
        assert all(one_step[a] == oracle_elevate(e, degree + 1)[a] for a in one_step.coeffs)

    def test_irrational_coefficients(self):
        # n = 2 puts sqrt(2) into every coefficient of x1 x2
        F = SymPolyMatrix([[Polynomial(2, {(1, 1): 1, (0, 0): 3}), Polynomial.variable(2, 0)],
                           [Polynomial.variable(2, 0), Polynomial.const(2, 2)]])
        e = to_bernstein(F, 2)
        assert any(v.radicand for _, mat in e.items() for row in mat.entries for v in row)
        got, expected = elevate(e, 5), oracle_elevate(e, 5)
        assert all(got[a] == expected[a] for a in expected.coeffs)

    def test_same_degree_is_the_expansion(self):
        e = to_bernstein(random_sym_matrix(random.Random(3), 2, 1, 2), 2)
        assert elevate(e, 2) is e


# ---------------------------------------------------------------------------
# assembly: one-call Kronecker Gram and merged multiplier terms


def _target(n, ell, seed):
    """A target PD on the simplex: I + E / 64 with E of degree 2."""
    rng = random.Random(seed)
    E = random_sym_matrix(rng, ell, n, 2)
    return SymPolyMatrix([[E[a, b] * Fraction(1, 64) + (1 if a == b else 0) for b in range(ell)]
                          for a in range(ell)])


def _arrow_witness(n):
    one, zero = Polynomial.const(n, 1), Polynomial.zero(n)
    grid = [[one if a == b else zero for b in range(n + 1)] for a in range(n + 1)]
    for i in range(n):
        grid[0][i + 1] = grid[i + 1][0] = Polynomial.variable(n, i)
    v = PolyMatrix.column([one] + [-Polynomial.variable(n, i) for i in range(n)])
    return SymPolyMatrix(grid), QMCertificate(n, 1, n + 1, 2, "exact", [], [MultiplierTerm(ONE, v)])


def _witness(n, kind):
    """(G, witness that 1 - ||x||^2 lies in QM[G]): the ball itself or the
    (n + 1) x (n + 1) arrow matrix."""
    return _arrow_witness(n) if kind == "arrow" else (ball_constraint(n), trivial_ball_witness(n))


def _coefficients(F, max_degree):
    """(c_alpha, M_alpha, S, sigma) for each Bernstein coefficient of F's
    Polya certificate: c_alpha b_alpha M_alpha is its term, and b_alpha =
    sum S + (sum sigma) (1 - ||x||^2) in weighted scalar squares."""
    n = F.nvars
    pc = polya_certificate(F, max_degree)
    t = pc.degree
    base = ExtRational(n, 1, n) ** (-t) if t else ONE
    for alpha, M in pc.expansion.items():
        c_alpha = base * multinomial(t, alpha + (t - sum(alpha),))
        yield (c_alpha, M, *_product_membership(alpha, t, n))


def _sigma_parts(F, max_degree):
    """{q: [(c_alpha w, M_alpha)]} over the squares w q^2 of every sigma."""
    parts = {}
    for c_alpha, M, _, sigma in _coefficients(F, max_degree):
        for w, q in sigma:
            parts.setdefault(q, []).append((c_alpha * w, M))
    return parts


def _merged(parts, ell):
    """sum c M over parts, entry by entry in ExtRationals."""
    return RationalSymMatrix([[sum((c * M[i, j] for c, M in parts), ZERO) for j in range(ell)]
                              for i in range(ell)])


def _verify_exit(certificate, problem):
    """Exit status of `pmicert verify --mode exact` in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "pmicert.cli", "verify", str(certificate),
                           str(problem), "--mode", "exact"], env=env, capture_output=True,
                          timeout=120).returncode


def oracle_kronecker_gram(F, witness, max_degree, basis):
    """sum_alpha A_alpha (x) M_alpha on basis, one ExtRational product and sum
    per entry: A_alpha the Gram of alpha's scalar squares, each entry placed
    by its monomials."""
    n, ell = F.nvars, F.size
    bw_squares = _blocks_to_squares(witness)
    place = {tuple(b): u for u, b in enumerate(basis)}
    dim = len(basis) * ell
    gram = [[ZERO] * dim for _ in range(dim)]
    for c_alpha, M, S, sigma in _coefficients(F, max_degree):
        squares = [(c_alpha * w, [q]) for w, q in S]
        squares += [(c_alpha * w * ws, [bs * q]) for w, q in sigma for ws, bs in bw_squares]
        A = gram_from_squares(squares, n, 1)
        for u, bu in enumerate(A.basis):
            for v, bv in enumerate(A.basis):
                for i in range(ell):
                    for j in range(ell):
                        a, b = place[tuple(bu)] * ell + i, place[tuple(bv)] * ell + j
                        gram[a][b] = gram[a][b] + A.gram[u, v] * M[i, j]
    return gram


class TestAssembly:
    @pytest.mark.parametrize("n, ell, witness", [(1, 2, "ball"), (1, 3, "arrow"), (2, 2, "ball"),
                                                 (2, 2, "arrow"), (2, 1, "arrow")])
    def test_kronecker_gram_equals_oracle(self, n, ell, witness):
        F = _target(n, ell, seed=10 * n + ell)
        G, W = _witness(n, witness)
        block = assemble_simplex_putinar(F, G, W, 6).sos_blocks[0]
        assert block.gram.entries == oracle_kronecker_gram(F, W, 6, block.basis)

    @pytest.mark.parametrize("witness", ["ball", "arrow"])
    @pytest.mark.parametrize("n, ell", [(1, 2), (1, 3), (2, 2), (2, 3)])
    def test_one_ldlt_per_sigma_polynomial(self, n, ell, witness, tmp_path):
        F = _target(n, ell, seed=n + 7 * ell)
        G, W = _witness(n, witness)
        cert = assemble_simplex_putinar(F, G, W, 6)
        parts = _sigma_parts(F, 6)
        width = len(W.multipliers)
        ranks = [len(ldlt(_merged(terms, ell))[1]) for terms in parts.values()]
        assert len(cert.multipliers) == sum(ranks) * width
        # one term per (alpha, square of sigma, column of M_alpha, witness term) before
        unmerged = sum(len(ldlt(M)[1]) for terms in parts.values() for _, M in terms) * width
        assert len(cert.multipliers) <= unmerged
        vectors = [tuple(p for row in t.matrix.entries for p in row) for t in cert.multipliers]
        assert len(set(vectors)) == len(vectors)
        assert all(t.scale.sign() > 0 for t in cert.multipliers)
        assert cert.reconstruction(G) == F
        # the check of record, from the serialized text in a fresh process
        problem = tmp_path / "p.pmi"
        problem.write_text(dump_problem(ProblemData(n, ell, G.size, F, G)))
        (tmp_path / "c.qmc").write_text(serialize(cert))
        cert.multipliers[0].scale = cert.multipliers[0].scale * 2
        (tmp_path / "tampered.qmc").write_text(serialize(cert))
        assert _verify_exit(tmp_path / "c.qmc", problem) == 0
        assert _verify_exit(tmp_path / "tampered.qmc", problem) == 1

    def test_merge_missing_a_part_fails_verification(self, monkeypatch):
        # leave one alpha's c_alpha w M_alpha out of the first N_q that merges
        # several: the factor is still PD, and the final exact check must
        # refuse the certificate
        import pmicert.certify as certify

        F = _target(2, 2, seed=16)
        target = next(terms for terms in _sigma_parts(F, 6).values() if len(terms) > 1)
        full, wrong = _merged(target, 2), []

        def drop_one_part(N):
            if N == full:
                wrong.append(N)
                N = _merged(target[1:], 2)
            return ldlt(N)

        monkeypatch.setattr(certify, "ldlt", drop_one_part)
        with pytest.raises(AssertionError, match="assembled certificate failed verification"):
            assemble_simplex_putinar(F, *_witness(2, "arrow"), 6)
        assert len(wrong) == 1

    def test_radicands_fail_as_before(self):
        # n = 1: c_alpha and the facet weights are rational, so a target over
        # Q(sqrt 3) merges and verifies exactly
        root3 = ExtRational.sqrt(3)
        x = Polynomial.variable(1, 0)
        F = SymPolyMatrix([[Polynomial.const(1, 2), x * root3], [x * root3, Polynomial.const(1, 2)]])
        G, W = _witness(1, "ball")
        cert = assemble_simplex_putinar(F, G, W, 6)
        unmerged = sum(len(terms) for terms in _sigma_parts(F, 6).values()) * F.size
        assert len(cert.multipliers) < unmerged
        assert verify_certificate(F, G, cert, mode="exact").ok
        # n = 2: they carry sqrt 2, which meets sqrt 3 as it did per alpha
        x1 = Polynomial.variable(2, 0)
        F2 = SymPolyMatrix([[Polynomial.const(2, 2), x1 * root3], [x1 * root3, Polynomial.const(2, 2)]])
        with pytest.raises(RadicandMismatch):
            assemble_simplex_putinar(F2, *_witness(2, "ball"), 6)


# ---------------------------------------------------------------------------
# one integer state: the routes that make a matrix agree on equality and hash


def _same(A, B):
    """A and B are equal, hash equal and hold the same ExtRational entries."""
    return A == B and B == A and hash(A) == hash(B) and A.entries == B.entries


class TestOneState:
    def test_values_and_sums_with_unreduced_denominators(self):
        from pmicert.algebra import _summed

        half, three_halves = ExtRational(Fraction(1, 2)), ExtRational(Fraction(3, 2))
        plain = RationalSymMatrix([[half, three_halves], [three_halves, ExtRational(2)]])
        assert _same(RationalSymMatrix([[Fraction(2, 4), "6/4"], ["3/2", 2]]), plain)
        # numerators 2, 6, 8 over 4, and a sqrt(2) part that cancels
        summed = _summed(2, {0: [2, 0, 0], 1: [6, 4, 2], 3: [8, 0, 0]}, 4, False)
        assert summed.entries[0][1] == three_halves + ExtRational(0, 1, 2)
        assert not _same(summed, plain)
        summed = _summed(2, {0: [2, 2, 2], 1: [6, 0, 2], 3: [8, -2, 2]}, 4, False)
        assert not _same(summed, plain)
        assert _same(_summed(2, {0: 2, 1: 6, 3: 8}, 4, True), plain)
        assert _same(_summed(2, {0: [2, 0, 0], 1: [6, 0, 2], 3: [8, 0, 3]}, 4, False), plain)
        root = RationalSymMatrix([[ExtRational(Fraction(1, 2), Fraction(1, 2), 2), ZERO],
                                  [ZERO, ONE]])
        assert _same(_summed(2, {0: [2, 2, 2], 3: [4, 0, 0]}, 4, False), root)
        assert len({plain, root, RationalSymMatrix([[Fraction(1, 2), Fraction(3, 2)],
                                                    [Fraction(3, 2), 2]])}) == 2

    @pytest.mark.parametrize("n, ell, degree", [(1, 2, 2), (2, 2, 2), (2, 3, 1)])
    def test_elevated_matrices_equal_their_values(self, n, ell, degree):
        rng = random.Random(5 * n + ell)
        e = to_bernstein(random_sym_matrix(rng, ell, n, degree), degree)
        got, expected = elevate(e, degree + 2), oracle_elevate(e, degree + 2)
        for alpha, M in got.items():
            assert _same(M, expected[alpha])
            assert {expected[alpha]: alpha}[M] == alpha

    @pytest.mark.parametrize("n, ell", [(1, 2), (2, 2), (2, 3)])
    def test_sigma_sums_equal_their_values(self, n, ell, monkeypatch):
        import pmicert.certify as certify

        seen = []
        monkeypatch.setattr(certify, "ldlt", lambda N: seen.append(N) or ldlt(N))
        F = _target(n, ell, seed=3 * n + ell)
        assemble_simplex_putinar(F, *_witness(n, "ball"), 6)
        monkeypatch.undo()
        expected = [_merged(terms, ell) for terms in _sigma_parts(F, 6).values()]
        # the facet Grams are factored first, the N_q last
        sums = seen[-len(expected):]
        for N, M in zip(sums, expected):
            assert _same(N, M)
        assert set(sums) == set(expected)

    @pytest.mark.parametrize("grid", [[[1, 2]], [[1, 2], [2]], [[1, 2], [3, 4]],
                                      [[ONE, ExtRational.sqrt(2)], [ExtRational.sqrt(3), ONE]],
                                      []])
    def test_bad_grids_raise(self, grid):
        with pytest.raises(ValueError):
            RationalSymMatrix(grid)

    def test_mixed_radicands_are_rejected(self):
        # every matrix has its form: a grid of two or more irrational
        # radicands is refused, naming the two least whatever their places
        s2, s3, s5 = ExtRational.sqrt(2), ExtRational.sqrt(3), ExtRational.sqrt(5)
        for diagonal in ([s2, s3], [s3, s2], [s5, s3, s2], [s3, s5, s2], [s2, s5, s3]):
            grid = [[v if i == j else ONE for j, _ in enumerate(diagonal)]
                    for i, v in enumerate(diagonal)]
            with pytest.raises(RadicandMismatch, match=r"^cannot mix sqrt\(2\) with sqrt\(3\)$"):
                RationalSymMatrix(grid)
        with pytest.raises(RadicandMismatch, match=r"sqrt\(2\) with sqrt\(3\)"):
            RationalSymMatrix([[s3 + 1, s2], [s2, ONE]])

    def test_gram_from_squares_makes_no_grid(self):
        x = Polynomial.variable(1, 0)
        block = gram_from_squares([(ExtRational(Fraction(1, 3)), [x + 1]),
                                   (ExtRational.sqrt(2), [x * x - x])], 1, 1)
        assert block.gram.entries[0][1] == ExtRational(Fraction(1, 3))

    @pytest.mark.parametrize("n, ell", [(1, 2), (2, 2)])
    def test_verification_converts_no_gram(self, n, ell, monkeypatch):
        # the Gram an assembly makes, and one read from text, reach the exact
        # check as they are: no grid of values goes back to integers
        import pmicert.algebra as algebra

        G, W = _witness(n, "ball")
        F = _target(n, ell, seed=n + ell)
        cert = assemble_simplex_putinar(F, G, W, 6)
        real, calls = algebra._parts_matrix, []
        monkeypatch.setattr(algebra, "_parts_matrix",
                            lambda n, parts: calls.append(parts) or real(n, parts))
        assert verify_certificate(F, G, cert, mode="exact").ok
        assert calls == []
        parsed = deserialize(serialize(cert))
        assert len(calls) == len(parsed.sos_blocks) == 1  # the reader's, once
        del calls[:]
        assert verify_certificate(F, G, parsed, mode="exact").ok
        assert calls == []


# ---------------------------------------------------------------------------
# one float reader: to_numpy and M[i, j] read the form, whatever route made it


def _wide(rng, surd):
    """A value over Q (surd 0) or Q(sqrt surd) whose numerator or
    denominator may be past 2^53, its sqrt part zero, negative or positive."""
    def part():
        big = rng.choice([1, 2**53 + 1, 3**40, 10**30])
        return Fraction(rng.randint(-9, 9) * rng.choice([1, big]),
                        rng.randint(1, 9) * rng.choice([1, big + 2]))
    q = part() if surd and rng.random() < 0.7 else 0
    return ExtRational(part(), q, surd) if q else ExtRational(part())


def _wide_grid(rng, n, surd):
    upper = [[_wide(rng, surd) for _ in range(n)] for _ in range(n)]
    return [[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]


def _routes(rng, n, surd):
    """(route, matrix) of each route that makes a RationalSymMatrix."""
    from pmicert.algebra import _summed

    made = RationalSymMatrix(_wide_grid(rng, n, surd))
    yield "constructor", made
    yield "reader", LineReader("\n".join(lower_triangle_rows(made))).sym_matrix(n, "matrix")
    D = rng.choice([7, 2**60 + 3])
    acc = {i * n + j: [rng.randint(-2**70, 2**70), rng.choice([0, -1, 1]) * rng.randint(1, 2**60),
                       surd] for i in range(n) for j in range(i, n) if rng.random() < 0.8}
    if surd:
        yield "summed", _summed(n, acc, D, False)
    yield "summed-rational", _summed(n, {key: value[0] for key, value in acc.items()}, D, True)
    other = RationalSymMatrix(_wide_grid(rng, n, surd))
    e = BernsteinExpansion(1, 1, n, {(0,): made, (1,): other})
    for alpha, M in elevate(e, 3).items():
        yield f"elevate{alpha}", M


def _floats_of_values(M):
    n = M.size
    return np.array([[float(M[i, j]) for j in range(n)] for i in range(n)])


class TestOneFloatReader:
    @pytest.mark.parametrize("surd", [0, 2, 3])
    def test_floats_and_indices_from_every_route(self, surd):
        rng = random.Random(11 + surd)
        for n in (1, 2, 3, 5):
            for route, M in _routes(rng, n, surd):
                # bit for bit, signed zeros included
                assert M.to_numpy().tobytes() == _floats_of_values(M).tobytes(), (route, n)
                grid = M.entries
                for i in range(n):
                    for j in range(n):
                        assert M[i, j] == M[j, i] == grid[i][j]
                        assert M[i - n, j] == M[i, j - n] == M[i - n, j - n] == M[i, j]
                for bad in [(n, 0), (0, n), (-n - 1, 0), (0, -n - 1)]:
                    with pytest.raises(IndexError):
                        M[bad]

    def test_relax_certificate_gram(self):
        # the Gram of extract_certificate comes from each float's exact ratio:
        # denominators past 2^53 from small entries, and those of the solver
        from dataclasses import replace
        from pmicert.relax import build_relaxation, extract_certificate, solve_sdp

        p = build_relaxation(Polynomial.variable(1, 0), ball_constraint(1), 2)
        result = solve_sdp(p)
        crafted = np.array([[3e20, -1e-30, 0.1], [-1e-30, 2.5, -7e-17], [0.1, -7e-17, 1e-300]])
        for X0 in (result.X0, crafted):
            gram = extract_certificate(replace(result, X0=X0), p).sos_blocks[0].gram
            assert gram.to_numpy().tobytes() == _floats_of_values(gram).tobytes()
            assert max(gram[i, j].parts()[2] for i in range(3) for j in range(3)) > 2**53


class TestOnePrinter:
    """The coefficient text of every exact text format is ring.format_parts:
    an ExtRational, a Polynomial over its common denominator and a matrix
    printed from its form give the same text, and parse_parts reads it
    back."""

    @given(data=st.data())
    def test_printers_agree_and_round_trip(self, data):
        r = data.draw(st.sampled_from([0, 2, 3]), "radicand")
        n = data.draw(st.integers(1, 4), "size")
        # numerators 2a and 3b over 6k share a factor with the denominator
        # but not with each other; a or b 0 gives zeros
        den = 6 * data.draw(st.integers(1, 10), "k")
        small = st.integers(-12, 12)
        upper = [[(data.draw(st.sampled_from([1, 2, 3])) * data.draw(small),
                   data.draw(st.sampled_from([1, 2, 3])) * data.draw(small) if r else 0)
                  for _ in range(i, n)] for i in range(n)]
        M = _sym_matrix([[p for p, _ in row] for row in upper],
                        [[q for _, q in row] for row in upper], r, den)
        ps, qs, mr, L = M._f
        texts = [[format_parts(p, q, L, mr) for p, q in zip(prow, qrow)]
                 for prow, qrow in zip(ps, qs)]
        values = [_make(p, q, den, r) for row in upper for p, q in row]
        flat = [t for row in texts for t in row]
        for value, text in zip(values, flat):
            assert str(value) == text
            assert _make(*parse_parts(text)) == value
            assert all(math.gcd(int(a), int(b)) == 1 for a, b in re.findall(r"(\d+)/(\d+)", text))
        assert [str(v) for i, row in enumerate(M.entries) for v in row[i:]] == flat
        poly = Polynomial(1, {(k,): v for k, v in enumerate(values)})
        terms = [f"({t}) * x1^{k}" for k, t in enumerate(flat) if values[k]]
        assert poly.to_text() == (" + ".join(reversed(terms)) or "(0/1) * x1^0")
        rows = lower_triangle_rows(M)
        assert rows == [" ".join(f"({texts[j][i - j]})" for j in range(i + 1))
                        for i in range(n)]
        assert LineReader("\n".join(rows)).sym_matrix(n, "matrix") == M

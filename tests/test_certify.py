import json
import pathlib
import random
from fractions import Fraction
from itertools import product

import pytest

from pmicert.ring import ExtRational, RadicandMismatch
from pmicert.algebra import (
    PolyMatrix,
    Polynomial,
    RationalSymMatrix,
    SymPolyMatrix,
    congruence,
    ldlt,
    monomials_upto,
    multinomial,
    psd_exact,
)
from pmicert.certify import (
    SHAPE_TABLE_SIZE,
    CertificateParseError,
    _basis_memberships,
    _blocks_to_squares,
    _fold_squares,
    _product_membership,
    MultiplierTerm,
    QMCertificate,
    SOSBlock,
    assemble_simplex_putinar,
    ball_constraint,
    ball_polynomial,
    blocks_to_vector_squares,
    deserialize,
    facet_certificate,
    facet_polynomial,
    gram_from_squares,
    serialize,
    trivial_ball_witness,
    verify_certificate,
)
from pmicert.bernstein import basis_poly, elevate, to_bernstein
from pmicert.cli import main
from pmicert.polya import polya_certificate
from pmicert.problemio import ProblemData, dump_problem, load_problem
from conftest import random_poly, random_sym_matrix, shape_tables

ROOT = pathlib.Path(__file__).resolve().parent.parent


def x(i=0, n=1):
    return Polynomial.variable(n, i)


def scalar(p):
    return SymPolyMatrix.scalar(p)


class TestFacets:
    def test_line_identities(self):
        p_up, _ = facet_certificate("upper", 1)
        assert p_up == Polynomial.const(1, 1) - x()
        p_lo, _ = facet_certificate("lower", 1, 0)
        assert p_lo == x() + 1

    def test_sqrt2_constant_bookkeeping(self):
        # constant terms: sqrt(2)/2 * 2 * 1/2 + sqrt(2)/2 = sqrt(2)
        p, cert = facet_certificate("upper_sum", 2)
        assert p.coeff((0, 0)) == ExtRational.sqrt(2)
        recon = cert.reconstruction(ball_constraint(2))
        assert recon[0, 0] == p

    def test_all_dimensions_up_to_five(self):
        for n in range(1, 6):
            p, cert = facet_certificate("upper", n)
            assert verify_certificate(scalar(p), ball_constraint(n), cert).ok
            for i in range(n):
                p, cert = facet_certificate("lower", n, i)
                assert verify_certificate(scalar(p), ball_constraint(n), cert).ok

    def test_degree_two(self):
        for kind, idx in (("upper", 0), ("lower", 1)):
            _, cert = facet_certificate(kind, 3, idx)
            assert cert.k == 2
            assert all(b.degree() <= 2 for b in cert.sos_blocks)

    def test_sympy_oracle_for_upper_facet(self):
        sympy = pytest.importorskip("sympy")
        x1, x2 = sympy.symbols("x1 x2")
        s2 = sympy.sqrt(2)
        rhs = (s2 / 2) * ((x1 - 1 / s2) ** 2 + (x2 - 1 / s2) ** 2) + (s2 / 2) * (
            1 - x1**2 - x2**2
        )
        assert sympy.simplify(rhs - (s2 - x1 - x2)) == 0

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            facet_certificate("upper", 0)
        with pytest.raises(ValueError):
            facet_certificate("lower", 2, 5)
        with pytest.raises(ValueError):
            facet_certificate("sideways", 2)


def _sos_part(block, nvars, ell):
    """The matrix of a certificate whose only part is the SOS block."""
    return QMCertificate(nvars, ell, 1, 0, "exact", [block], []).reconstruction(
        ball_constraint(nvars))


class TestGramFromSquares:
    def test_reconstructs_weighted_sum(self, rng):
        squares = []
        n, ell = 2, 2
        for _ in range(4):
            squares.append(
                (Fraction(rng.randint(1, 4)), [random_poly(rng, n, 1) for _ in range(ell)])
            )
        block = gram_from_squares(squares, n, ell)
        expected = SymPolyMatrix.zero(ell, n)
        for w, col in squares:
            outer = PolyMatrix([[col[i] * col[j] for j in range(ell)] for i in range(ell)])
            expected = SymPolyMatrix((expected + outer.scale(ExtRational.coerce(w))).entries)
        assert _sos_part(block, n, ell) == expected

    def test_round_trip_through_vector_squares(self, rng):
        squares = [
            (Fraction(2), [x(0, 1) + 1, x(0, 1)]),
            (Fraction(1, 2), [Polynomial.const(1, 1), Polynomial.zero(1)]),
        ]
        block = gram_from_squares(squares, 1, 2)
        cert = QMCertificate(1, 2, 1, 2, "exact", [block], [])
        back = blocks_to_vector_squares(cert)
        rebuilt = SymPolyMatrix.zero(2, 1)
        for w, col in back:
            outer = PolyMatrix([[col[i] * col[j] for j in range(2)] for i in range(2)])
            rebuilt = SymPolyMatrix((rebuilt + outer.scale(w)).entries)
        assert rebuilt == _sos_part(block, 1, 2)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            gram_from_squares([(Fraction(-1), [x()])], 1, 1)


class TestAssemble:
    def test_scalar_example_coefficients(self):
        F = scalar(x() + 2)
        e = to_bernstein(F, 1)
        assert e[(0,)][0, 0] == ExtRational(1)
        assert e[(1,)][0, 0] == ExtRational(3)
        cert = assemble_simplex_putinar(F, ball_constraint(1), trivial_ball_witness(1), 6)
        report = verify_certificate(F, ball_constraint(1), cert)
        assert report.ok and report.residual_norm == 0.0
        assert cert.k == 2

    def test_matrix_example(self):
        two = Polynomial.const(1, 2)
        F = SymPolyMatrix([[two, x()], [x(), two]])
        cert = assemble_simplex_putinar(F, ball_constraint(1), trivial_ball_witness(1), 6)
        report = verify_certificate(F, ball_constraint(1), cert)
        assert report.ok and report.residual_norm == 0.0
        assert cert.k <= 4

    def test_identity_trivial(self):
        cert = assemble_simplex_putinar(
            SymPolyMatrix.identity(2, 1), ball_constraint(1), trivial_ball_witness(1), 4
        )
        assert cert.k == 0
        assert not cert.multipliers
        assert _sos_part(cert.sos_blocks[0], 1, 2) == SymPolyMatrix.identity(2, 1)

    def test_degree_accounting(self):
        F = scalar(x() * x() + x() + 1)
        witness = trivial_ball_witness(1)
        cert = assemble_simplex_putinar(F, ball_constraint(1), witness, 8)
        from pmicert.polya import polya_certificate

        t = polya_certificate(F, 8).degree
        assert cert.k <= 2 * t + witness.k

    def test_two_variable_sqrt_ring(self):
        # n = 2 exercises the sqrt(2) facet constants end to end
        F = scalar(x(0, 2) + x(1, 2) + 3)
        cert = assemble_simplex_putinar(F, ball_constraint(2), trivial_ball_witness(2), 6)
        report = verify_certificate(F, ball_constraint(2), cert)
        assert report.ok and report.residual_norm == 0.0

    def test_rejects_bad_ball_witness(self):
        F = scalar(x() + 2)
        bad = trivial_ball_witness(1)
        bad.multipliers[0] = MultiplierTerm(
            ExtRational(2), bad.multipliers[0].matrix
        )
        with pytest.raises(ValueError):
            assemble_simplex_putinar(F, ball_constraint(1), bad, 6)

    def test_nontrivial_ball_witness_route(self):
        # constraint G = diag(1 - ||x||^2, 1): witness embeds the ball in a
        # larger constraint matrix
        n = 1
        g = ball_polynomial(n)
        G = SymPolyMatrix(
            [[g, Polynomial.zero(n)], [Polynomial.zero(n), Polynomial.const(n, 1)]]
        )
        witness = QMCertificate(
            n, 1, 2, 2, "exact", [],
            [MultiplierTerm(ExtRational(1),
                            PolyMatrix.column([Polynomial.const(n, 1), Polynomial.zero(n)]))],
        )
        assert verify_certificate(scalar(g), G, witness).ok
        F = scalar(x() + 2)
        cert = assemble_simplex_putinar(F, G, witness, 6)
        report = verify_certificate(F, G, cert)
        assert report.ok and report.residual_norm == 0.0


class TestVerifier:
    def _valid_cert(self, rng):
        n = rng.randint(1, 2)
        ell = rng.randint(1, 2)
        G = random_sym_matrix(rng, rng.randint(1, 2), n, 1)
        squares = [
            (Fraction(rng.randint(1, 3)), [random_poly(rng, n, 1) for _ in range(ell)])
            for _ in range(2)
        ]
        block = gram_from_squares(squares, n, ell)
        mult = MultiplierTerm(
            ExtRational(Fraction(rng.randint(1, 3), 2)),
            PolyMatrix([[random_poly(rng, n, 1) for _ in range(ell)] for _ in range(G.size)]),
        )
        cert = QMCertificate(n, ell, G.size, 6, "exact", [block], [mult])
        F = cert.reconstruction(G)
        return F, G, cert

    def test_valid_accepted(self, rng):
        for _ in range(20):
            F, G, cert = self._valid_cert(rng)
            assert verify_certificate(F, G, cert).ok

    def test_tampered_rejected(self, rng):
        for kind in ("coeff", "gram", "drop"):
            for _ in range(10):
                F, G, cert = self._valid_cert(rng)
                if kind == "coeff":
                    entry = cert.multipliers[0].matrix.entries[0][0]
                    if entry.is_zero():
                        continue
                    cert.multipliers[0].matrix.entries[0][0] = entry + 1
                elif kind == "gram":
                    block = cert.sos_blocks[0]
                    gram = [row[:] for row in block.gram.entries]
                    flipped = False
                    for r in range(len(gram)):
                        for c in range(r + 1):
                            if not gram[r][c].is_zero():
                                gram[r][c] = -gram[r][c]
                                gram[c][r] = gram[r][c]
                                flipped = True
                                break
                        if flipped:
                            break
                    if not flipped:
                        continue
                    cert.sos_blocks[0] = SOSBlock(block.basis, RationalSymMatrix(gram))
                else:
                    if congruence_is_zero(cert, G):
                        continue
                    cert.multipliers.pop()
                assert not verify_certificate(F, G, cert).ok

    def test_negative_scale_rejected(self, rng):
        F, G, cert = self._valid_cert(rng)
        cert.multipliers[0] = MultiplierTerm(
            ExtRational(-1), cert.multipliers[0].matrix
        )
        report = verify_certificate(F, G, cert)
        assert not report.ok

    def test_numeric_mode_tolerates_small_residual(self, rng):
        F, G, cert = self._valid_cert(rng)
        bumped = [
            [F[i, j] + Fraction(1, 10**9) if i == j else F[i, j] for j in range(F.size)]
            for i in range(F.size)
        ]
        F2 = SymPolyMatrix(bumped)
        assert not verify_certificate(F2, G, cert, mode="exact").ok
        assert verify_certificate(F2, G, cert, mode="numeric", tol=1e-6).ok
        assert not verify_certificate(F2, G, cert, mode="numeric", tol=1e-12).ok

    def test_shape_mismatches_reported(self, rng):
        F, G, cert = self._valid_cert(rng)
        other = random_sym_matrix(rng, G.size + 1, cert.nvars, 1)
        report = verify_certificate(F, other, cert)
        assert not report.ok and report.messages


def congruence_is_zero(cert, G):
    term = cert.multipliers[-1]
    return congruence(term.matrix, G).scale(term.scale).is_zero()


def _oracle_reconstruction(cert, G):
    """Term by term: each Gram entry as its own monomial, plus one congruence
    P^T G P per multiplier term and H (||x||^2 - 1) for a sphere multiplier H."""
    n, ell = cert.nvars, cert.ell
    out = PolyMatrix.zero(ell, ell, n)
    for block in cert.sos_blocks:
        grid = [[Polynomial.zero(n) for _ in range(ell)] for _ in range(ell)]
        for (u, bu), (v, bv) in product(enumerate(block.basis), repeat=2):
            mono = tuple(a + b for a, b in zip(bu, bv))
            for i, j in product(range(ell), repeat=2):
                grid[i][j] = grid[i][j] + Polynomial(n, {mono: block.gram[u * ell + i, v * ell + j]})
        out = out + PolyMatrix(grid)
    for term in cert.multipliers:
        out = out + congruence(term.matrix, G).scale(term.scale)
    if cert.sphere_multiplier is not None:
        out = out + cert.sphere_multiplier.scale_poly(-ball_polynomial(n))
    return SymPolyMatrix(out.entries)


def _full_gram_from_squares(squares, nvars, ell):
    """The full double loop: every (a, b) pair of every square, in both orders."""
    basis = sorted({mono for _, col in squares for p in col for mono in p.terms},
                   key=lambda a: (sum(a), a)) or [(0,) * nvars]
    index = {b: u for u, b in enumerate(basis)}
    dim = len(basis) * ell
    gram = [[ExtRational(0)] * dim for _ in range(dim)]
    for w, col in squares:
        vec = {index[mono] * ell + i: c for i, p in enumerate(col) for mono, c in p.terms.items()}
        for (a, ca), (b, cb) in product(vec.items(), repeat=2):
            gram[a][b] = gram[a][b] + ExtRational.coerce(w) * ca * cb
    return basis, gram


class TestOneGramShape:
    """The reconstruction folds the multiplier terms into one Gram block and
    collapses it onto monomials; it must equal the term-by-term sum exactly."""

    @staticmethod
    def _coeff(rng, numeric):
        if numeric:  # what a float solver leaves: dyadic rationals
            return ExtRational(Fraction(rng.uniform(-2, 2)))
        return ExtRational(Fraction(rng.randint(-3, 3), rng.randint(1, 4)))

    def _poly(self, rng, n, degree, numeric):
        if rng.random() < 0.3:
            return Polynomial.zero(n)
        monos = monomials_upto(n, degree)
        picked = rng.sample(monos, rng.randint(1, len(monos)))
        return Polynomial(n, {alpha: self._coeff(rng, numeric) for alpha in picked})

    def _scale(self, rng, surd):
        if rng.random() < 0.15:
            return ExtRational(0)
        a = Fraction(rng.randint(0, 4), rng.randint(1, 3))
        if surd:  # a + b sqrt(2) with a, b >= 0, b > 0
            return ExtRational(a, Fraction(rng.randint(1, 3), rng.randint(1, 3)), 2)
        return ExtRational(a if a else Fraction(1, 2))

    @pytest.mark.parametrize("case", range(27))
    def test_matches_term_by_term_sum(self, case):
        rng = random.Random(9000 + case)
        n, ell, m = (1 + case // 9, 1 + case // 3 % 3, 1 + case % 3)
        feature = case % 5
        numeric, surd = feature == 3, feature == 4
        sphere = feature == 2 or rng.random() < 0.2
        G = random_sym_matrix(rng, m, n, rng.randint(0, 2))
        blocks = []
        if feature != 0:
            monos = monomials_upto(n, 1)
            basis = sorted(rng.sample(monos, rng.randint(1, len(monos))),
                           key=lambda a: (sum(a), a))
            dim = len(basis) * ell
            gram = [[None] * dim for _ in range(dim)]
            for r in range(dim):
                for c in range(r + 1):
                    gram[r][c] = gram[c][r] = self._coeff(rng, numeric)
            blocks.append(SOSBlock(basis, RationalSymMatrix(gram)))
        mults = []
        if feature != 1:
            for _ in range(rng.randint(1, 4)):
                P = PolyMatrix([[self._poly(rng, n, rng.randint(0, 2), numeric)
                                 for _ in range(ell)] for _ in range(m)])
                mults.append(MultiplierTerm(self._scale(rng, surd), P))
        H = None
        if sphere:
            H = SymPolyMatrix.from_upper(
                ell, {(i, j): self._poly(rng, n, 1, numeric)
                      for i in range(ell) for j in range(i, ell)}, n)
        cert = QMCertificate(n, ell, m, 8, "numeric" if numeric else "exact",
                             blocks, mults, H)
        assert cert.reconstruction(G) == _oracle_reconstruction(cert, G)

    def test_multiplier_shape_checked(self, rng):
        G = random_sym_matrix(rng, 2, 1, 1)
        cert = QMCertificate(1, 1, 2, 4, "exact", [],
                             [MultiplierTerm(ExtRational(1), PolyMatrix([[x()]]))])
        with pytest.raises(ValueError, match="multiplier is 1x1, expected 2x1"):
            cert.reconstruction(G)

    def test_sphere_multiplier_size_checked(self):
        G = ball_constraint(1)
        mult = MultiplierTerm(ExtRational(1), PolyMatrix([[x(), x()]]))
        cert = QMCertificate(1, 2, 1, 4, "exact", [], [mult])
        F = cert.reconstruction(G)
        for size in (1, 3):
            H = SymPolyMatrix.from_upper(
                size, {(i, j): Polynomial.zero(1) for i in range(size) for j in range(i, size)}, 1)
            cert.sphere_multiplier = H
            report = verify_certificate(F, G, cert)
            assert not report.ok
            assert report.messages == [f"sphere multiplier has size {size} in 1 variables"]
            with pytest.raises(ValueError, match=f"sphere multiplier is {size}x{size}"):
                cert.reconstruction(G)

    @pytest.mark.parametrize("f, g, ok", [
        (x() * x(), Polynomial.const(1, 1), True),
        (Polynomial.const(1, -1), -(x() * x()), False),  # F(0) = -1 on {G >= 0} = {0}
        (2 * x() * x(), 1 + x() * x(), False),
    ], ids=["forms", "constant-F", "G-not-a-form"])
    def test_sphere_term_needs_forms(self, f, g, ok):
        # each identity f = g + (x^2 - 1) is exact; modulo the sphere it
        # proves f >= 0 on {g >= 0} only when f and g are forms, f of positive
        # degree
        cert = QMCertificate(1, 1, 1, 2, "exact", [],
                             [MultiplierTerm(ExtRational(1), PolyMatrix([[Polynomial.const(1, 1)]]))],
                             scalar(Polynomial.const(1, 1)))
        assert cert.reconstruction(scalar(g)) == scalar(f)
        report = verify_certificate(scalar(f), scalar(g), cert)
        assert report.ok is ok
        assert report.messages == ([] if ok else [
            "sphere multiplier needs F homogeneous of positive degree and G homogeneous"])

    def test_variable_counts_reported_not_raised(self):
        report = verify_certificate(scalar(ball_polynomial(1)), ball_constraint(2),
                                    trivial_ball_witness(1))
        assert not report.ok and report.messages == ["variable count mismatch"]
        cert = trivial_ball_witness(1)
        cert.multipliers[0] = MultiplierTerm(ExtRational(1), PolyMatrix([[x(0, 2)]]))
        report = verify_certificate(scalar(ball_polynomial(1)), ball_constraint(1), cert)
        assert report.messages == ["multiplier 0 is in 2 variables"]
        with pytest.raises(ValueError, match="multiplier is in 2 variables, expected 1"):
            cert.reconstruction(ball_constraint(1))

    def test_many_distinct_monomial_terms_stay_linear(self):
        # 5000 1x1 multipliers x1^u: a dense Gram over their 5000 monomials
        # alone would be 25 million slots, 200 MB of pointers
        import tracemalloc

        N = 5000
        body = "".join(f"multiplier {u} scale (1/1) rows 1 cols 1\n(1/1) * x1^{u}\n"
                       for u in range(N))
        cert = deserialize("qmcert-v1\nmode exact\nnvars 1\nsize 1\nconstraint-size 1\n"
                           f"degree {2 * N}\nsos-blocks 0\nmultipliers {N}\n{body}"
                           "sphere-multiplier none\nend\n")
        F = scalar(Polynomial(1, {(2 * u,): 1 for u in range(N)}))
        G = scalar(Polynomial.const(1, 1))
        tracemalloc.start()
        try:
            report = verify_certificate(F, G, cert)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok
        assert peak < 16_000_000

    @pytest.mark.parametrize("seed", range(6))
    def test_gram_from_squares_symmetric_and_equal_to_full_loop(self, seed):
        rng = random.Random(seed)
        n, ell = rng.randint(1, 3), rng.randint(1, 3)
        squares = []
        for _ in range(rng.randint(1, 6)):
            w = self._scale(rng, surd=seed % 2 == 1)
            squares.append((w, [self._poly(rng, n, 2, numeric=seed % 3 == 0)
                                for _ in range(ell)]))
        block = gram_from_squares(squares, n, ell)
        basis, gram = _full_gram_from_squares(squares, n, ell)
        assert block.basis == basis and block.gram.entries == gram
        dim = block.gram.size
        assert all(block.gram[a, b] == block.gram[b, a]
                   for a in range(dim) for b in range(dim))


def _oracle_fold_squares(squares, w):
    """The ExtRational fold that _fold_squares replaced: every product and
    sum a normalised coefficient."""
    out = {(i, j): {} for i in range(w) for j in range(i, w)}
    for scale, vec in squares:
        if not scale:
            continue
        items = [(p, mu, c) for p, poly in enumerate(vec) for mu, c in poly.terms.items()]
        for k, (p, mu, ca) in enumerate(items):
            wa = scale * ca
            twice = wa + wa
            for q, nu, cb in items[k:]:
                c = (twice if q == p and nu is not mu else wa) * cb
                mono = tuple(a + b for a, b in zip(mu, nu))
                prev = out[p, q].get(mono)
                out[p, q][mono] = c if prev is None else prev + c
    return {pq: {mono: c for mono, c in terms.items() if c} for pq, terms in out.items()}


def _fold_maps(squares, w):
    """_fold_squares as the oracle gives it: the terms of every slot p <= q,
    empty where no square reaches the slot."""
    fold = _fold_squares(squares, w)
    return {(i, j): fold[i, j].terms if (i, j) in fold else {}
            for i in range(w) for j in range(i, w)}


class TestIntegerKernels:
    """_fold_squares and gram_from_squares accumulate in integers; they must
    equal ExtRational loops entry for entry: the fold the loop it replaced,
    the Gram the full double loop."""

    @staticmethod
    def _value(rng, surd):
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 12))
        if surd and rng.random() < 0.6:
            return ExtRational(a, Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 9)), surd)
        return ExtRational(a or 1)

    def _squares(self, rng, n, w, surd, count):
        # a shared pool, so monomials repeat across entries and squares; a
        # few exponents go up to 2000
        pool = [tuple(rng.choice([0, 0, 1, 2, 3, rng.randint(0, 2000)]) for _ in range(n))
                for _ in range(6)]
        squares = []
        for _ in range(count):
            if rng.random() < 0.15:
                scale = ExtRational(0)
            else:
                scale = abs(self._value(rng, surd)) + Fraction(rng.randint(0, 2), rng.randint(1, 5))
            vec = []
            for _ in range(w):
                if rng.random() < 0.25:  # an empty column entry
                    vec.append(Polynomial.zero(n))
                    continue
                monos = rng.sample(pool, rng.randint(1, len(pool)))
                vec.append(Polynomial(n, {mu: self._value(rng, surd) for mu in monos}))
            squares.append((scale, vec))
        return squares

    CASES = [(seed, surd) for seed in range(12) for surd in (0, 2, 3)]

    @pytest.mark.parametrize("seed, surd", CASES)
    def test_fold_equals_oracle(self, seed, surd):
        rng = random.Random(seed)
        n, w = rng.randint(1, 4), rng.randint(1, 4)
        squares = self._squares(rng, n, w, surd, rng.randint(0, 8))
        assert _fold_maps(squares, w) == _oracle_fold_squares(squares, w)

    @pytest.mark.parametrize("seed, surd", CASES)
    def test_gram_equals_oracle(self, seed, surd):
        rng = random.Random(100 + seed)
        n, ell = rng.randint(1, 4), rng.randint(1, 3)
        squares = self._squares(rng, n, ell, surd, rng.randint(0, 8))
        block = gram_from_squares(squares, n, ell)
        assert (block.basis, block.gram.entries) == _full_gram_from_squares(squares, n, ell)

    @pytest.mark.parametrize("top", [0, 127, 128, 32767, 32768])
    def test_fold_packing_boundaries(self, top):
        # exponent sums up to 2 top, on both sides of a byte boundary
        one = ExtRational(1)
        vec = [Polynomial(2, {(top, 0): one, (0, top): Fraction(1, 3), (top, top): 2}),
               Polynomial(2, {(top, 1 if top else 0): Fraction(-1, 2)})]
        squares = [(ExtRational(Fraction(3, 7)), vec), (one, vec[::-1])]
        assert _fold_maps(squares, 2) == _oracle_fold_squares(squares, 2)
        # no variables at all
        const = [(one, [Polynomial(0, {(): Fraction(2, 3)})])]
        assert _fold_maps(const, 1) == _oracle_fold_squares(const, 1) == \
            {(0, 0): {(): ExtRational(Fraction(4, 9))}}

    def test_mixed_radicands_raise(self):
        one = Polynomial.const(1, 1)
        root2 = [(ExtRational(1), [one * ExtRational.sqrt(2)])]
        root3 = [(ExtRational.sqrt(3), [x()])]
        with pytest.raises(RadicandMismatch):
            _fold_maps(root2 + root3, 1)
        with pytest.raises(RadicandMismatch):
            gram_from_squares(root2 + root3, 1, 1)
        # a rational square mixes with either
        assert _fold_maps(root2 + [(ExtRational(2), [x()])], 1) == \
            _oracle_fold_squares(root2 + [(ExtRational(2), [x()])], 1)

    def test_distinct_prime_denominators_no_slower_than_oracle(self):
        # 600 squares, each over its own 30-bit prime: the per-key
        # denominators grow with every square that reaches the key
        import time

        import sympy

        rng = random.Random(5)
        primes, p = [], 2**29
        while len(primes) < 600:
            p = sympy.nextprime(p)
            primes.append(p)
        pool = [(e, 2 - e % 3) for e in range(4)]
        squares = []
        for q in primes:
            poly = Polynomial(2, {mu: Fraction(rng.randint(1, 9), q) for mu in rng.sample(pool, 2)})
            squares.append((ExtRational(Fraction(rng.randint(1, 9), q)), [poly]))

        def timed(fn):
            start = time.process_time()
            out = fn(squares, 1)
            return time.process_time() - start, out

        old, oracle = timed(_oracle_fold_squares)
        runs = [timed(_fold_maps) for _ in range(3)]
        assert all(folded == oracle for _, folded in runs)
        assert min(t for t, _ in runs) <= old


def _polya_target(n, ell, t, seed):
    """F = I + lam E, E a seeded symmetric matrix of degree 2, at the first
    lam = j/64 whose Polya degree is exactly t (every Bernstein coefficient
    PD at degree t, not at t - 1)."""
    rng = random.Random(seed)
    while True:
        E = random_sym_matrix(rng, ell, n, 2)
        if E.degree != 2:
            continue
        for j in range(1, 65):
            lam = Fraction(j, 64)
            F = SymPolyMatrix([[E[a, b] * lam + (1 if a == b else 0) for b in range(ell)]
                               for a in range(ell)])
            e, reached = to_bernstein(F, 2), 2
            while not all(psd_exact(mat, strict=True) for _, mat in e.items()):
                if reached == t:
                    break
                reached += 1
                e = elevate(e, reached)
            else:
                if reached == t:
                    return F
                continue
            break


def _arrow_witness(n):
    """G = [[1, x^T], [x, I]] and 1 - ||x||^2 = v^T G v with v = (1, -x)."""
    one, zero = Polynomial.const(n, 1), Polynomial.zero(n)
    grid = [[one if a == b else zero for b in range(n + 1)] for a in range(n + 1)]
    for i in range(n):
        grid[0][i + 1] = grid[i + 1][0] = x(i, n)
    v = PolyMatrix.column([one] + [-x(i, n) for i in range(n)])
    return SymPolyMatrix(grid), QMCertificate(n, 1, n + 1, 2, "exact", [],
                                              [MultiplierTerm(ExtRational(1), v)])


def _inner_ball_witness(n):
    """G = [1 - 2 ||x||^2] and 1 - ||x||^2 = sum x_i^2 + G: a witness with an
    SOS part, whose squares enter the Gram block through sigma."""
    block = gram_from_squares([(1, [x(i, n)]) for i in range(n)], n, 1)
    one = PolyMatrix([[Polynomial.const(n, 1)]])
    return scalar(ball_polynomial(n) * 2 - 1), QMCertificate(
        n, 1, 1, 2, "exact", [block], [MultiplierTerm(ExtRational(1), one)])


def _ldl_column_gram(F, witness, max_degree):
    """The SOS block as the LDL^T-column assembly builds it: every Bernstein
    coefficient M_alpha = sum piv col col^T enters as the vector squares
    (c_alpha w piv, q col) and (c_alpha w piv w_s, b_s q col), each folded by
    gram_from_squares."""
    n, ell = F.nvars, F.size
    bw_squares = _blocks_to_squares(witness)
    pc = polya_certificate(F, max_degree)
    t = pc.degree
    base = ExtRational(n, 1, n) ** (-t) if t else ExtRational(1)
    squares = []
    for alpha, mat in pc.expansion.items():
        c_alpha = base * multinomial(t, alpha + (t - sum(alpha),))
        S, sigma = _product_membership(alpha, t, n)
        for col, piv in zip(*ldlt(mat)):
            consts = [Polynomial.const(n, c) for c in col]
            squares += [(c_alpha * w * piv, [q * p for p in consts]) for w, q in S]
            squares += [(c_alpha * w * piv * ws, [bs * q * p for p in consts])
                        for w, q in sigma for ws, bs in bw_squares]
    return gram_from_squares(squares, n, ell)


class TestKroneckerAssembly:
    """assemble_simplex_putinar builds its Gram block as sum_alpha A_alpha
    (x) M_alpha; it must equal the LDL^T-column assembly in basis and in
    every entry."""

    @pytest.mark.parametrize("n, ell, t", [(n, ell, t) for n in (1, 2, 3)
                                           for ell in (1, 2, 3) for t in (2, 3)])
    def test_gram_equals_ldl_column_assembly(self, n, ell, t):
        F = _polya_target(n, ell, t, seed=100 * n + 10 * ell + t)
        witnesses = [(ball_constraint(n), trivial_ball_witness(n)), _arrow_witness(n)]
        if ell == 1:
            witnesses.append(_inner_ball_witness(n))
        for G, witness in witnesses:
            block = assemble_simplex_putinar(F, G, witness, t).sos_blocks[0]
            oracle = _ldl_column_gram(F, witness, t)
            assert block.basis == oracle.basis
            assert block.gram == oracle.gram

    def test_witness_with_sos_part(self):
        F = SymPolyMatrix([[Polynomial.const(2, 3), x(0, 2)], [x(0, 2), x(1, 2) + 3]])
        G, witness = _inner_ball_witness(2)
        cert = assemble_simplex_putinar(F, G, witness, 4)
        assert verify_certificate(F, G, cert).ok
        oracle = _ldl_column_gram(F, witness, 4)
        assert cert.sos_blocks[0].basis == oracle.basis
        assert cert.sos_blocks[0].gram == oracle.gram

    def test_corrupted_facet_square_raises(self, monkeypatch, cold_shape_tables):
        # facet_certificate makes no check of its own: the final exact check
        # of the assembled certificate must catch a wrong facet identity.
        # The tables start cold, so the assembly reads the corrupted identity.
        import pmicert.certify as certify

        real = certify.facet_certificate
        calls = []

        def corrupted(kind, n, index=0):
            calls.append(kind)
            target, cert = real(kind, n, index)
            block = cert.sos_blocks[0]
            gram = [row[:] for row in block.gram.entries]
            gram[0][0] = gram[0][0] * 2  # still PSD, no longer the facet
            cert.sos_blocks[0] = SOSBlock(block.basis, RationalSymMatrix(gram))
            return target, cert

        monkeypatch.setattr(certify, "facet_certificate", corrupted)
        with pytest.raises(AssertionError, match="failed verification"):
            assemble_simplex_putinar(scalar(x() + 2), ball_constraint(1),
                                     trivial_ball_witness(1), 6)
        assert calls


class TestShapeTables:
    """The Bernstein basis memberships, facet identities and conversion
    tables that certify-simplex keeps per shape: each entry is the exact
    identity it stands for, a certificate does not depend on what the
    tables hold, and each table stays at its bound."""

    GOLDEN = ROOT / "tests" / "golden"
    # (problem, committed .qmc): shapes (n, t) = (1, 1) and (2, 3)
    CASES = [(ROOT / "samples" / "matrix_target.pmi", GOLDEN / "matrix_target.qmc"),
             (GOLDEN / "simplex_n2.pmi", GOLDEN / "simplex_n2.qmc")]

    @pytest.mark.parametrize("n, t", [(n, t) for n in (1, 2, 3) for t in range(5)])
    def test_basis_memberships_are_the_basis(self, n, t):
        table = _basis_memberships(n, t)
        assert list(table) == monomials_upto(n, t)
        zero = Polynomial.zero(n)
        for alpha, (squares, sigma) in table.items():
            for part in (squares, sigma):
                assert len({q for _, q in part}) == len(part)  # one square per q
            sos = sum((q * q * w for w, q in squares), zero)
            ball = sum((q * q * w for w, q in sigma), zero)
            assert sos + ball * ball_polynomial(n) == basis_poly(alpha, t, n)

    def _assembled(self, case):
        prob = load_problem(str(self.CASES[case][0]))
        cert = assemble_simplex_putinar(prob.F, prob.G, trivial_ball_witness(prob.n), 12)
        return serialize(cert)

    def test_output_is_the_same_cold_and_warm(self, cold_shape_tables):
        golden = [qmc.read_text() for _, qmc in self.CASES]
        assert self._assembled(0) == golden[0]       # cold
        assert self._assembled(0) == golden[0]       # warmed by its own shape
        assert self._assembled(1) == golden[1]       # cold, another shape warm
        for n, t in [(1, 2), (1, 3), (2, 2), (3, 1)]:
            _basis_memberships(n, t)
        assert self._assembled(1) == golden[1]       # warmed by other shapes
        assert self._assembled(0) == golden[0]
        for table in shape_tables():
            table.cache_clear()
        assert self._assembled(1) == golden[1]       # cold again

    def test_tables_stay_at_their_bound(self, cold_shape_tables, tmp_path, capsys):
        # x1 + 2 on the ball in n variables certifies at Polya degree 1, so
        # each n is a new shape of every table
        for n in range(1, SHAPE_TABLE_SIZE + 2):
            path = tmp_path / f"n{n}.pmi"
            path.write_text(dump_problem(ProblemData(n, 1, 1, scalar(x(0, n) + 2),
                                                     ball_constraint(n))))
            assert main(["certify-simplex", str(path)]) == 0
        assert "certificate assembled" in capsys.readouterr().out
        for table in shape_tables():
            info = table.cache_info()
            assert info.maxsize == SHAPE_TABLE_SIZE
            assert info.currsize == SHAPE_TABLE_SIZE, table.__name__


class TestLazyMargins:
    """An exact verify decides without the float Gram margins; they are
    computed when first read, with the values an eager computation gives."""

    def test_exact_verify_reads_no_eigenvalue(self, monkeypatch):
        import pmicert.certify as certify
        from pmicert.algebra import min_eigenvalue_numeric

        F = scalar(x() + 2)
        cert = assemble_simplex_putinar(F, ball_constraint(1), trivial_ball_witness(1), 6)
        calls = []
        monkeypatch.setattr(certify, "min_eigenvalue_numeric",
                            lambda M: calls.append(M) or min_eigenvalue_numeric(M))
        report = verify_certificate(F, ball_constraint(1), cert, mode="exact")
        assert report.ok and calls == []
        margins = report.gram_margins
        assert margins == [min_eigenvalue_numeric(b.gram) for b in cert.sos_blocks]
        assert report.gram_margins is margins and len(calls) == len(cert.sos_blocks)

    def test_numeric_verify_reads_its_margins(self):
        # diag(1, -1) on the basis (1, x) is 1 - x^2 exactly: zero residual,
        # margin -1
        one = ExtRational(1)
        gram = RationalSymMatrix([[one, ExtRational(0)], [ExtRational(0), -one]])
        cert = QMCertificate(1, 1, 1, 2, "numeric", [SOSBlock([(0,), (1,)], gram)], [])
        report = verify_certificate(scalar(ball_polynomial(1)), ball_constraint(1), cert,
                                    mode="numeric")
        assert report.residual_norm == 0 and not report.ok
        assert report.gram_margins == [pytest.approx(-1)]
        assert report.messages == ["gram block 0 margin -1 below -tol"]


class TestAdvisoryPlacement:
    """The grid estimates behind the advisory degree are made only by
    `pmicert polya`, which prints them."""

    TARGET = str(ROOT / "samples" / "matrix_target.pmi")

    def _certify(self, out, capsys):
        code = main(["certify-simplex", self.TARGET, "--out", str(out), "--json"])
        return code, capsys.readouterr().out, out.read_text()

    def test_certify_makes_no_grid_estimate(self, monkeypatch, tmp_path, capsys):
        import pmicert.polya as polya

        expected = self._certify(tmp_path / "c.qmc", capsys)

        def refuse(*args):
            raise AssertionError("grid estimate made")

        monkeypatch.setattr(polya, "grid_min_eigenvalue", refuse)
        assert self._certify(tmp_path / "c.qmc", capsys) == expected
        assert expected[0] == 0
        assert expected[2] == (ROOT / "tests" / "golden" / "matrix_target.qmc").read_text()

    def test_polya_keeps_advisory_numbers(self, capsys):
        assert main(["polya", self.TARGET, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["advisory_degree"] == 1
        assert payload["fmin_estimate"] == "1.0"
        assert "advisory_note" not in payload
        assert main(["polya", self.TARGET]) == 0
        assert "advisory degree bound: 1\n" in capsys.readouterr().out


class TestSerialization:
    def test_round_trips_byte_identical(self, rng):
        certs = [
            facet_certificate("upper", 2)[1],
            facet_certificate("lower", 3, 1)[1],
            trivial_ball_witness(1),
        ]
        F = scalar(x() + 2)
        certs.append(
            assemble_simplex_putinar(F, ball_constraint(1), trivial_ball_witness(1), 6)
        )
        from conftest import synthetic_sphere_certificate

        certs.append(synthetic_sphere_certificate(rng, ball_constraint(1), 1)[2])
        for cert in certs:
            text = serialize(cert)
            again = deserialize(text)
            assert serialize(again) == text

    def test_truncated_file_names_missing_section(self):
        text = serialize(trivial_ball_witness(1))
        truncated = "\n".join(text.splitlines()[:5])
        with pytest.raises(CertificateParseError) as info:
            deserialize(truncated)
        assert "line" in str(info.value)

    def test_bad_header(self):
        with pytest.raises(CertificateParseError):
            deserialize("not-a-cert\n")

    @pytest.mark.parametrize("coeff", ["1/0", "1e999999999", "1_000", "1/2*sqrt(-2)"])
    def test_bad_coefficient_names_its_line(self, coeff):
        text = serialize(facet_certificate("upper", 1)[1])
        lines = text.splitlines()
        gram = lines.index("gram")
        lines[gram + 1] = f"({coeff})"
        with pytest.raises(CertificateParseError, match=f"^line {gram + 2}: "):
            deserialize("\n".join(lines))
        mult = next(i for i, line in enumerate(lines) if line.startswith("multiplier 0 "))
        lines = text.splitlines()
        lines[mult + 1] = f"({coeff}) * x1^1"
        with pytest.raises(CertificateParseError, match=f"^line {mult + 2}: "):
            deserialize("\n".join(lines))
        scale = lines[mult].split()[3]
        lines = text.splitlines()
        lines[mult] = lines[mult].replace(scale, f"({coeff})")
        with pytest.raises(CertificateParseError, match=f"^line {mult + 1}: "):
            deserialize("\n".join(lines))

    @pytest.mark.parametrize(
        "prefix, replacement",
        [
            ("multiplier 0 ", "multiplier 0 scale (1)"),
            ("mode ", "mode "),
            ("mode ", "mode fuzzy"),
            ("sos-blocks ", "sos-blocks "),
            ("nvars ", "nvars x"),
        ],
        ids=["multiplier-no-shape", "mode-empty", "mode-unknown", "sos-blocks-empty",
             "nvars-not-int"],
    )
    def test_malformed_header_names_its_line(self, tmp_path, capsys, prefix, replacement):
        from pmicert.cli import main
        from pmicert.problemio import ProblemData, dump_problem

        lines = serialize(trivial_ball_witness(1)).splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        lines[at] = replacement
        text = "\n".join(lines) + "\n"
        with pytest.raises(CertificateParseError, match=f"^line {at + 1}: "):
            deserialize(text)
        cert, prob = tmp_path / "c.qmc", tmp_path / "p.pmi"
        cert.write_text(text)
        G = ball_constraint(1)
        prob.write_text(dump_problem(ProblemData(1, 1, 1, G, G)))
        assert main(["verify", str(cert), str(prob)]) == 2
        assert capsys.readouterr().err.startswith(f"error: line {at + 1}: ")

    def test_repeated_variable_names_its_line(self):
        lines = serialize(trivial_ball_witness(2)).splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("multiplier 0 ")) + 1
        assert lines[at] == "(1/1) * x1^0*x2^0"
        lines[at] = "(1/1) * x1^0*x1^0"
        with pytest.raises(CertificateParseError, match=f"^line {at + 1}: .*repeated"):
            deserialize("\n".join(lines) + "\n")

    @pytest.mark.parametrize("factor", ["y1^0", "x1^0_0", "x1^+0", "x\u0661^0"])
    def test_malformed_factor_names_its_line(self, factor):
        lines = serialize(trivial_ball_witness(1)).splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith("multiplier 0 ")) + 1
        lines[at] = f"(1/1) * {factor}"
        with pytest.raises(CertificateParseError, match=f"^line {at + 1}: malformed"):
            deserialize("\n".join(lines) + "\n")

    def test_nvars_error_names_line_three(self):
        text = serialize(trivial_ball_witness(1)).replace("nvars 1", "nvars x")
        with pytest.raises(CertificateParseError, match="^line 3: nvars"):
            deserialize(text)

    def test_oversized_gram_rejected_before_allocation(self):
        import tracemalloc

        text = ("qmcert-v1\nmode exact\nnvars 1\nsize 4000\nconstraint-size 1\n"
                "degree 2\nsos-blocks 1\nblock 0 basis 1\n0\ngram\n(1/1)\n")
        tracemalloc.start()
        try:
            with pytest.raises(CertificateParseError, match="^line 4: size 4000"):
                deserialize(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # a 4000 x 4000 grid alone is 128 MB of pointers

    def test_nvars_bounded_by_text(self):
        text = ("qmcert-v1\nmode exact\nnvars 10000000\nsize 1\nconstraint-size 1\n"
                "degree 2\nsos-blocks 0\nmultipliers 1\n"
                "multiplier 0 scale (1/1) rows 1 cols 1\n(1/1) * 1\n"
                "sphere-multiplier none\nend\n")
        with pytest.raises(CertificateParseError, match="^line 3: nvars 10000000"):
            deserialize(text)

    def test_polynomial_terms_bounded_by_nvars(self):
        # nvars fits the text, but 20,000 terms of 120,000 exponents each do not
        line = " + ".join(["(1)"] * 20000)
        text = ("qmcert-v1\nmode exact\nnvars 120000\nsize 1\nconstraint-size 1\n"
                "degree 2\nsos-blocks 0\nmultipliers 1\n"
                f"multiplier 0 scale (1/1) rows 1 cols 1\n{line}\n"
                "sphere-multiplier none\nend\n")
        with pytest.raises(CertificateParseError, match="^line 10: more terms"):
            deserialize(text)

    def test_oversized_multiplier_and_sphere_rejected(self):
        text = serialize(trivial_ball_witness(1))
        for shape in ("rows 100000 cols 100000", "rows 1000000000000 cols 0",
                      "rows 0 cols 1000000000000"):
            with pytest.raises(CertificateParseError, match="multiplier"):
                deserialize(text.replace("rows 1 cols 1", shape))
        with pytest.raises(CertificateParseError, match="sphere-multiplier 100000"):
            deserialize(text.replace("sphere-multiplier none", "sphere-multiplier 100000"))

    def test_gram_row_length_checked(self):
        text = serialize(facet_certificate("upper", 1)[1])
        lines = text.splitlines()
        for i, line in enumerate(lines):
            if line == "gram":
                lines[i + 2] = lines[i + 2] + " (1/1)"
                break
        with pytest.raises(CertificateParseError) as info:
            deserialize("\n".join(lines))
        assert "gram row" in str(info.value)

"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints `ACCEPTANCE <id> ...: PASS` on success (run with `pytest -s`
to see the lines stream by; they also appear in captured output on failure).
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from pmicert.ring import ExtRational
from pmicert.algebra import (
    PolyMatrix,
    Polynomial,
    RationalSymMatrix,
    SymPolyMatrix,
    congruence,
    psd_exact,
)
from pmicert.bernstein import (
    bernstein_norm,
    elevate,
    from_bernstein,
    norm_of_expansion,
    simplex_lattice_rounded,
    to_bernstein,
)
from pmicert.bounds import BoundInputs, convergence_rate, putinar_matrix_bound, theta
from pmicert.certify import (
    MultiplierTerm,
    QMCertificate,
    SOSBlock,
    assemble_simplex_putinar,
    ball_constraint,
    deserialize,
    facet_certificate,
    gram_from_squares,
    serialize,
    trivial_ball_witness,
    verify_certificate,
)
from pmicert.homogenize import (
    dehomogenize_certificate,
    estimate_homogenized_min,
    lift_problem,
    _one_plus_norm2,
)
from pmicert.polya import (
    NotPositiveDefiniteOnSimplex,
    grid_min_eigenvalue,
    polya_bound,
    polya_certificate,
)
from pmicert.relax import build_relaxation, hierarchy, solve_relaxation
from pmicert.scalarize import scalarize, verify_witness
from pmicert.sdpa import export_sdpa, format_sdpa, parse_sdpa
from pmicert.algebra import monomials_upto

from conftest import (
    random_poly,
    random_sym_matrix,
    synthetic_sphere_certificate,
)


def _report(name: str, ok: bool = True):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def _random_points(rng, n, count):
    pts = [[Fraction(rng.randint(-8, 8), rng.choice([1, 2, 3, 4])) for _ in range(n)]
           for _ in range(count - 6)]
    pts += [[Fraction(v)] * n for v in (0, 1, -1)]
    pts += [[Fraction(v, 2)] * n for v in (1, -1, 2)]
    return pts


def test_criterion_1_scalarization_equivalence():
    rng = random.Random(101)
    failures = 0
    checked = 0

    def check(G, pts):
        nonlocal failures, checked
        system = scalarize(G)
        for pt in pts:
            matrix_psd = psd_exact(G.evaluate(pt))
            scalars_ok = all(d.evaluate(pt).sign() >= 0 for d, _ in system.entries)
            checked += 1
            if matrix_psd != scalars_ok:
                failures += 1

    x = Polynomial.variable(1, 0)
    zero = Polynomial.zero(1)
    # crafted boundary instances: pivots vanish at sample points
    crafted2 = [
        SymPolyMatrix([[x * x, x], [x, Polynomial.const(1, 1)]]),
        SymPolyMatrix([[x * x, -(x * x)], [-(x * x), x * x]]),  # s12 identically zero
        SymPolyMatrix([[zero, zero], [zero, x * x]]),
        SymPolyMatrix([[(x - 1) * (x + 1), x], [x, (x - 1) * (x + 1)]]),
        SymPolyMatrix([[x, zero], [zero, -x]]),
    ]
    for G in crafted2:
        check(G, _random_points(rng, 1, 100))
    for _ in range(50):
        n = rng.choice([1, 2])
        G = random_sym_matrix(rng, 2, n, rng.randint(0, 2))
        check(G, _random_points(rng, n, 100))

    y = Polynomial.variable(1, 0)
    crafted3 = [
        SymPolyMatrix(
            [[y * y, y, zero], [y, Polynomial.const(1, 1), zero], [zero, zero, y]]
        ),
        SymPolyMatrix(
            [[y * y, -(y * y), zero], [-(y * y), y * y, zero], [zero, zero, y * y]]
        ),
    ]
    for G in crafted3:
        check(G, _random_points(rng, 1, 100))
    for _ in range(20):
        G = random_sym_matrix(rng, 3, 1, rng.randint(0, 2))
        check(G, _random_points(rng, 1, 100))

    assert checked == 77 * 100
    _report("1 scalarization equivalence (77 instances x 100 points)", failures == 0)


def test_criterion_2_witness_exactness_and_counts():
    rng = random.Random(202)
    ok = True
    for size, expected in ((2, 6), (3, 42)):
        for _ in range(8):
            n = rng.choice([1, 2]) if size == 2 else 1
            G = random_sym_matrix(rng, size, n, rng.randint(1, 2))
            system = scalarize(G)
            ok &= len(system) == expected == theta(size)
            cap = 3 ** (size - 1) * max(G.degree, 0)
            for d, v in system.entries:
                ok &= verify_witness(d, v, G)
                ok &= d.degree <= cap
    _report("2 witness exactness, counts 6/42, degree caps", ok)


def test_criterion_3_polya_engine():
    rng = random.Random(303)
    x = Polynomial.variable(1, 0)
    two = Polynomial.const(1, 2)
    cert = polya_certificate(SymPolyMatrix([[two, x], [x, two]]), 5)
    ok = cert.degree == 1
    for alpha in ((0,), (1,)):
        ok &= psd_exact(cert.expansion[alpha], strict=True)

    for _ in range(30):
        n = rng.randint(1, 2)
        ell = rng.randint(1, 2)
        Q = PolyMatrix([[random_poly(rng, n, 1) for _ in range(ell)] for _ in range(ell)])
        F = congruence(Q, SymPolyMatrix.identity(ell, n))
        bump = Polynomial.const(n, Fraction(rng.randint(1, 4)))
        F = SymPolyMatrix(
            [[F[i, j] + bump if i == j else F[i, j] for j in range(ell)] for i in range(ell)]
        )
        d = max(F.degree, 0)
        got = polya_certificate(F, d + 40)
        norm = norm_of_expansion(to_bernstein(F, d))
        fmin, _, _ = grid_min_eigenvalue(F, 10**n * (d + 1))
        fmin = min(fmin, norm)
        ok &= got.degree <= d + polya_bound(d, norm, fmin)

    try:
        polya_certificate(SymPolyMatrix.scalar(x * x), 6)
        ok = False
    except NotPositiveDefiniteOnSimplex as exc:
        ok &= exc.witness is not None and all(float(c) == 0.0 for c in exc.witness)
    _report("3 Polya engine (endpoints, 30 bounded instances, refutation)", ok)


def test_criterion_4_bernstein_suite():
    rng = random.Random(404)
    ok = True
    # exact partition of unity
    from pmicert.bernstein import basis_poly

    for n in range(1, 4):
        for t in range(0, 6):
            total = Polynomial.zero(n)
            for alpha in monomials_upto(n, t):
                total = total + basis_poly(alpha, t, n)
            ok &= total == Polynomial.const(n, 1)
    # 100 exact round trips
    for _ in range(100):
        n = rng.randint(1, 2)
        M = random_sym_matrix(rng, rng.randint(1, 2), n, rng.randint(0, 3))
        t = max(M.degree, 0) + rng.randint(0, 2)
        ok &= from_bernstein(to_bernstein(M, t)) == M
    # norm properties at 1e-10 on 100 random pairs
    for _ in range(100):
        n = rng.randint(1, 2)
        f = random_poly(rng, n, 2)
        g = random_poly(rng, n, 2)
        d1, d2 = max(f.degree, 0), max(g.degree, 0)
        nf = bernstein_norm(SymPolyMatrix.scalar(f), d1)
        ng = bernstein_norm(SymPolyMatrix.scalar(g), d2)
        ok &= bernstein_norm(SymPolyMatrix.scalar(f), d1 + d2) <= nf + 1e-10
        ok &= bernstein_norm(SymPolyMatrix.scalar(f * g), d1 + d2) <= nf * ng + 1e-10
        pts = simplex_lattice_rounded(n, 200 if n == 1 else 19)[1]
        sup = max(abs(f.evaluate_float(p)) for p in pts)
        ok &= len(pts) >= 200 and sup <= nf + 1e-10
    # quadratic-form bound, 500 unit vectors per matrix
    nprng = np.random.default_rng(4040)
    for _ in range(3):
        P = random_sym_matrix(rng, 2, 1, 2)
        mats = [m.to_numpy() for m in to_bernstein(P, max(P.degree, 0)).coeffs.values()]
        normB = bernstein_norm(P)
        best = 0.0
        for _ in range(500):
            xi = nprng.standard_normal(2)
            xi /= np.linalg.norm(xi)
            val = max(abs(float(xi @ m @ xi)) for m in mats)
            ok &= val <= normB + 1e-10
            best = max(best, val)
        ok &= best >= 0.95 * normB
    _report("4 Bernstein suite (unity, round trips, norm laws, form bound)", ok)


def test_criterion_5_end_to_end_certificates():
    x = Polynomial.variable(1, 0)
    two = Polynomial.const(1, 2)
    G = ball_constraint(1)
    witness = trivial_ball_witness(1)
    ok = True
    for F in (SymPolyMatrix([[two, x], [x, two]]), SymPolyMatrix.scalar(x + 2)):
        cert = assemble_simplex_putinar(F, G, witness, 8)
        report = verify_certificate(F, G, cert, mode="exact")
        ok &= report.ok and report.residual_norm == 0.0
    _report("5 constructive certificates verify with exact residual 0", ok)


def test_criterion_6_putinar_vasilescu():
    x = Polynomial.variable(1, 0)
    free = SymPolyMatrix.scalar(Polynomial.const(1, 1))
    prob = lift_problem(SymPolyMatrix.scalar((x - 1) ** 2 + 1), free)
    est = estimate_homogenized_min(prob, grid=64)
    expected = 1.5 - math.sqrt(5) / 2
    ok = abs(est.value - expected) < 1e-4

    rng = random.Random(606)
    done = 0
    guard = 0
    while done < 20 and guard < 60:
        guard += 1
        n = rng.randint(1, 2)
        ell = rng.randint(1, 2)
        G = (
            ball_constraint(n)
            if guard % 2
            else random_sym_matrix(rng, 2, n, rng.randint(0, 1))
        )
        sprob, F_tilde, cert = synthetic_sphere_certificate(rng, G, ell, q=guard % 2)
        if sprob.F_tilde != F_tilde:
            continue
        if not verify_certificate(F_tilde, sprob.G_hat, cert).ok:
            ok = False
            break
        k, out = dehomogenize_certificate(cert, sprob)  # verifies its output exactly
        target = SymPolyMatrix(sprob.F.scale_poly(_one_plus_norm2(n) ** k).entries)
        ok &= verify_certificate(target, G, out, mode="exact").ok
        done += 1
    ok &= done == 20
    _report("6 homogenized minimum value and 20 exact dehomogenizations", ok)


def test_criterion_7_relaxation_values():
    x = Polynomial.variable(1, 0)
    one = Polynomial.const(1, 1)
    Gball = ball_constraint(1)
    Gm = SymPolyMatrix([[one, x], [x, one]])
    suite = [
        (x, Gball, -1.0),
        (x, Gm, -1.0),
        (x * x, Gball, 0.0),
    ]
    ok = True
    for f, G, expected in suite:
        values = hierarchy(f, G, 1, 3, tol=1e-6)
        ok &= abs(values[0] - expected) < 1e-5
        for a, b in zip(values, values[1:]):
            ok &= b >= a - 2e-5
    _report("7 relaxation values (-1, -1, 0) and monotone hierarchies", ok)


def test_criterion_8_bound_calculators():
    ok = True
    for k in range(1, 7):
        ok &= theta(k + 1) == (k + 1) * (k + 2) // 2 * (1 + theta(k))
    # independently scripted big-integer product of the all-ones evaluation
    independent = 1
    for factor in (8**7, 3 ** (6 * (2 - 1)), theta(2) ** 3, 1**2, 1**6):
        independent *= factor
    report = putinar_matrix_bound(BoundInputs(n=1, m=2, d=1, d_G=1))
    ok &= report.value == independent == 330225942528

    rng = random.Random(808)
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
        k = max(1, math.ceil(putinar_matrix_bound(inputs).value))
        ok &= convergence_rate(inputs, k, float(f_norm)) <= float(eps) * (1 + 1e-9)
    _report("8 bound calculators (recurrence, all-ones product, rate)", ok)


def _make_valid_certificate(rng):
    n = rng.randint(1, 2)
    ell = rng.randint(1, 2)
    kind = rng.randrange(3)
    if kind == 0:
        which = rng.choice(["upper", "lower"])
        idx = rng.randrange(n)
        target_poly, cert = facet_certificate(which, n, idx)
        return SymPolyMatrix.scalar(target_poly), ball_constraint(n), cert
    G = random_sym_matrix(rng, rng.randint(1, 2), n, 1)
    squares = [
        (Fraction(rng.randint(1, 3)), [random_poly(rng, n, 1) for _ in range(ell)])
        for _ in range(2)
    ]
    block = gram_from_squares(squares, n, ell)
    mults = [
        MultiplierTerm(
            ExtRational(Fraction(rng.randint(1, 3), 2)),
            PolyMatrix([[random_poly(rng, n, 1) for _ in range(ell)] for _ in range(G.size)]),
        )
    ]
    cert = QMCertificate(n, ell, G.size, 8, "exact", [block], mults)
    return cert.reconstruction(G), G, cert


def test_criterion_9_verifier_soundness_and_serialization():
    rng = random.Random(909)
    accepted = 0
    rejected = 0
    round_trips = 0
    trials = 0
    while accepted < 100 and trials < 400:
        trials += 1
        F, G, cert = _make_valid_certificate(rng)
        if not verify_certificate(F, G, cert, mode="exact").ok:
            continue
        accepted += 1
        text = serialize(cert)
        if serialize(deserialize(text)) == text:
            round_trips += 1
        tampered = deserialize(text)
        kind = rng.randrange(3)
        if kind == 0 and tampered.multipliers:
            entry = tampered.multipliers[0].matrix.entries[0][0]
            tampered.multipliers[0].matrix.entries[0][0] = entry + 1
        elif kind == 1:
            block = tampered.sos_blocks[0]
            gram = [row[:] for row in block.gram.entries]
            done = False
            for r in range(len(gram)):
                for c in range(r + 1):
                    if not gram[r][c].is_zero():
                        gram[r][c] = -gram[r][c] - 1
                        gram[c][r] = gram[r][c]
                        done = True
                        break
                if done:
                    break
            if not done:
                gram[0][0] = ExtRational(-1)
            tampered.sos_blocks[0] = SOSBlock(block.basis, RationalSymMatrix(gram))
        else:
            if tampered.multipliers and not congruence(
                tampered.multipliers[-1].matrix, G
            ).scale(tampered.multipliers[-1].scale).is_zero():
                tampered.multipliers.pop()
            else:
                entry = tampered.sos_blocks[0] if tampered.sos_blocks else None
                F = SymPolyMatrix(
                    [[F[i, j] + 1 if i == j else F[i, j] for j in range(F.size)]
                     for i in range(F.size)]
                )
        if not verify_certificate(F, G, tampered, mode="exact").ok:
            rejected += 1
    ok = accepted == 100 and rejected == 100 and round_trips == 100
    _report(
        f"9 verifier soundness ({accepted}/100 accepted, {rejected}/100 tampered rejected)",
        ok,
    )


def test_criterion_10_sdpa_round_trip():
    x = Polynomial.variable(1, 0)
    one = Polynomial.const(1, 1)
    Gball = ball_constraint(1)
    Gm = SymPolyMatrix([[one, x], [x, one]])
    ok = True
    for f, G in ((x, Gball), (x, Gm), (x * x, Gball)):
        for k in (1, 2, 3):
            p = build_relaxation(f, G, k)
            text = export_sdpa(p)
            data = parse_sdpa(text)
            ok &= data.sizes == p.block_sizes
            ok &= data.ncons == p.constraint_count()
            ok &= format_sdpa(data) == text
    _report("10 SDPA export/import structural round trip", ok)

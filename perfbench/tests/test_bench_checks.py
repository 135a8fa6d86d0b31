"""The benchmark's checks accept right answers and reject wrong ones.

Run with: python3 -m pytest perfbench/tests -q
"""

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import checks
import families
from checks import FAULT, PASS, WRONG
from refmath import QR, is_pd, parse_coeff, read_certificate, write_problem
from runner import _tamper

X = (1,)
ONE_1 = (0,)


def _problem(F, G, n=1):
    return write_problem(n, F, G)


def _cert(gram, mults, mode="exact", degree=2, n=1, m=1, basis=("0", "1")):
    lines = ["qmcert-v1", f"mode {mode}", f"nvars {n}", "size 1", f"constraint-size {m}",
             f"degree {degree}", "sos-blocks 1", f"block 0 basis {len(basis)}", *basis, "gram"]
    lines += [" ".join(f"({gram[r][c]})" for c in range(r + 1)) for r in range(len(gram))]
    lines.append(f"multipliers {len(mults)}")
    for i, (scale, entries) in enumerate(mults):
        lines.append(f"multiplier {i} scale ({scale}) rows {len(entries)} cols 1")
        lines += entries
    lines += ["sphere-multiplier none", "end"]
    return "\n".join(lines) + "\n"


# F = 2 - x^2 = 1 + 1 * (1 - x^2) over G = [1 - x^2]
BALL = [[{ONE_1: QR(1), (2,): QR(-1)}]]
F_RIGHT = [[{ONE_1: QR(2), (2,): QR(-1)}]]
CERT_RIGHT = _cert([["1/1", "0/1"], ["0/1", "0/1"]], [("1/1", ["(1/1) * x1^0"])])


def test_certificate_check_accepts_identity():
    files = {"problem": _problem(F_RIGHT, BALL), "out": CERT_RIGHT}
    assert checks.check_certificate({"points_seed": "t"}, 0, "", files).status == PASS


def test_certificate_check_rejects_one_perturbed_coefficient():
    bad = _cert([["3/2", "0/1"], ["0/1", "0/1"]], [("1/1", ["(1/1) * x1^0"])])
    files = {"problem": _problem(F_RIGHT, BALL), "out": bad}
    assert checks.check_certificate({"points_seed": "t"}, 0, "", files).status == WRONG
    bad_mult = _cert([["1/1", "0/1"], ["0/1", "0/1"]], [("1/1", ["(1/1) * x1^0 + (1/7) * x1^1"])])
    files["out"] = bad_mult
    assert checks.check_certificate({"points_seed": "t"}, 0, "", files).status == WRONG


def test_certificate_check_rejects_indefinite_gram():
    # 2 + 2x - x^2 = [1 x] [[1, 1], [1, 0]] [1 x]^T + (1 - x^2): the identity
    # holds, but the Gram is indefinite
    bad = _cert([["1/1", "1/1"], ["1/1", "0/1"]], [("1/1", ["(1/1) * x1^0"])])
    files = {"problem": _problem([[{ONE_1: QR(2), X: QR(2), (2,): QR(-1)}]], BALL), "out": bad}
    assert checks.check_certificate({"points_seed": "t"}, 0, "", files).status == WRONG


def test_tampering_breaks_a_certificate():
    files = {"problem": _problem(F_RIGHT, BALL), "out": _tamper(CERT_RIGHT)}
    assert checks.check_certificate({"points_seed": "t"}, 0, "", files).status == WRONG
    assert read_certificate(files["out"])["blocks"][0][1][0][0] == QR(2)


# refutations on the scaled simplex of n = 2: x_i >= -1, x1 + x2 <= sqrt(2)
F_INDEF = [[{(0, 0): QR(1), (1, 0): QR(1)}]]  # 1 + x1 <= 0 only at x1 = -1


def _refute(witness):
    stdout = json.dumps({"error": "refuted", "witness": witness})
    files = {"problem": _problem(F_INDEF, [[{(0, 0): QR(1)}]], n=2)}
    return checks.check_refutation({}, 1, stdout, files).status


def test_refutation_check():
    assert _refute(["-1/1", "0/1"]) == PASS
    assert _refute(["-1/1", "-1/1+1/1*sqrt(2)"]) == PASS
    assert _refute(["-2/1", "0/1"]) == WRONG            # outside: x1 < -1
    assert _refute(["-1/1", "5/2"]) == WRONG            # outside: x1 + x2 > sqrt(2)
    assert _refute(["0/1", "0/1"]) == WRONG             # F(0) = 1 is PD there


# relax: f = x on [-1, 1] (G = 1 - x^2), k = 1, optimum -1;
# x - gamma = (1/2)(1 + x)^2 + (-1 - gamma) + (1/2)(1 - x^2)


def _relax_files(gamma: Fraction):
    c = Fraction(1, 2) + (-1 - gamma)
    cert = _cert([[str(c), "1/2"], ["1/2", "1/2"]], [("1/2", ["(1/1) * x1^0"])],
                 mode="numeric")
    sdpa = "* x\n3\n2\n2 1\n0.0 1.0 0.0\n1 1 1 1 1.0\n"
    return {"problem": _problem([[{X: QR(1)}]], BALL), "out": cert, "sdpa": sdpa}


RELAX_DATA = {"n": 1, "k": 1, "m": 1, "d_G": 2, "points_seed": "r",
              "spec": {"family": "ball-linear", "b": [1]}}


def _relax(gamma: Fraction, sdpa=None):
    files = _relax_files(gamma)
    if sdpa:
        files["sdpa"] = sdpa
    stdout = json.dumps({"status": "ok", "gamma": repr(float(gamma))})
    return checks.check_relax(RELAX_DATA, 0, stdout, files).status


def test_relax_check_accepts_the_optimum():
    assert _relax(Fraction(-1)) == PASS


def test_relax_check_flags_a_shifted_gamma():
    assert _relax(Fraction(-1) - Fraction(1, 100)) == FAULT   # loose lower bound
    assert _relax(Fraction(-1) + Fraction(1, 100)) == WRONG   # not a lower bound


def test_relax_check_rejects_wrong_sdpa_shape():
    assert _relax(Fraction(-1), "4\n2\n2 1\n0 1 0 0\n") == WRONG
    assert _relax(Fraction(-1), "3\n2\n3 1\n0 1 0\n") == WRONG


# scalarize: G = [[1, x], [x, 1]], theta(2) = 6 entries with witnesses


def _poly(terms):
    return " + ".join(f"({c}) * x1^{e}" for e, c in terms)


G2 = [[{ONE_1: QR(1)}, {X: QR(1)}], [{X: QR(1)}, {ONE_1: QR(1)}]]
ENTRIES = [
    (_poly([(0, "1/1")]), [_poly([(0, "1/1")]), _poly([(0, "0/1")])]),
    (_poly([(0, "1/1")]), [_poly([(0, "0/1")]), _poly([(0, "1/1")])]),
    (_poly([(2, "-1/1"), (0, "1/1")]), [_poly([(1, "-1/1")]), _poly([(0, "1/1")])]),
    (_poly([(1, "2/1"), (0, "2/1")]), [_poly([(0, "1/1")]), _poly([(0, "1/1")])]),
    (_poly([(2, "-1/1"), (0, "1/1")]), [_poly([(0, "1/1")]), _poly([(1, "-1/1")])]),
    (_poly([(3, "-2/1"), (2, "-2/1"), (1, "2/1"), (0, "2/1")]),
     [_poly([(1, "-1/1"), (0, "-1/1")]), _poly([(1, "1/1"), (0, "1/1")])]),
]


def _scalarize(entries):
    stdout = json.dumps({"count": len(entries),
                         "entries": [{"poly": d, "witness": w} for d, w in entries]})
    files = {"problem": _problem([[{ONE_1: QR(1)}]], G2)}
    return checks.check_scalarize({"points_seed": "s"}, 0, stdout, files).status


def test_scalarize_check_accepts_the_six_inequalities():
    assert checks.theta(2) == 6 and checks.theta(3) == 42
    assert _scalarize(ENTRIES) == PASS


def test_scalarize_check_rejects_a_count_off_by_one():
    assert _scalarize(ENTRIES[:-1]) == WRONG
    assert _scalarize(ENTRIES + ENTRIES[:1]) == WRONG


def test_scalarize_check_rejects_a_wrong_witness():
    bad = list(ENTRIES)
    bad[2] = (bad[2][0], [_poly([(1, "1/1")]), _poly([(0, "1/1")])])
    assert _scalarize(bad) == WRONG


def test_charpoly_check():
    # det(l I - G) = l^2 - 2 l + (1 - x^2): g1 = 2, g2 = 1 - x^2
    files = {"problem": _problem([[{ONE_1: QR(1)}]], G2)}
    good = {"count": 2, "polynomials": [{"poly": _poly([(0, "2/1")])},
                                        {"poly": _poly([(2, "-1/1"), (0, "1/1")])}]}
    assert checks.check_charpoly({"points_seed": "c"}, 0, json.dumps(good), files).status == PASS
    good["polynomials"][1]["poly"] = _poly([(2, "-1/1"), (0, "2/1")])
    assert checks.check_charpoly({"points_seed": "c"}, 0, json.dumps(good), files).status == WRONG


def test_homogenize_check():
    forms = [[["1", "0"], ["0", "-2"]]]           # min eigenvalue -2
    data = {"forms": forms}

    def status(value, argmin):
        stdout = json.dumps({"F_tilde_min": repr(value), "argmin": [repr(v) for v in argmin]})
        return checks.check_homogenize(data, 0, stdout, {}).status

    assert status(-2.0, [0.0, 1.0]) == PASS
    assert status(-2.0 - 1e-6, [0.0, 1.0]) == WRONG   # below the true minimum
    assert status(-1.99, [0.0, 1.0]) == WRONG         # outside the stated accuracy
    assert status(-2.0, [0.0, 0.9]) == WRONG          # argmin not on the sphere


def test_trust_region_reference_matches_brute_force_sampling():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3):
        for _ in range(6):
            A = rng.integers(-3, 4, size=(n, n)).astype(float)
            A = (A + A.T) / 2
            b = rng.integers(-3, 4, size=n).astype(float)
            ref = checks.trust_region_min(A, b)
            pts = rng.standard_normal((60000, n))
            pts /= np.linalg.norm(pts, axis=1, keepdims=True)
            pts *= rng.random((60000, 1)) ** (1.0 / n)
            pts = np.vstack([pts, pts / np.linalg.norm(pts, axis=1, keepdims=True)])
            vals = np.einsum("pi,ij,pj->p", pts, A, pts) + pts @ b
            assert vals.min() >= ref - 1e-9
            assert vals.min() - ref <= 0.05 * max(1.0, np.abs(A).max() + np.abs(b).max())


def test_trust_region_hard_case():
    # f = -x1^2 on the unit disc: b has no component along the bottom eigenvector
    assert checks.trust_region_min([[-1.0, 0.0], [0.0, 1.0]], [0.0, 0.0]) == pytest.approx(-1.0)


def test_box_reference_matches_grid():
    rng = random.Random(5)
    for _ in range(20):
        a, b = families.box_separable(rng, 2)
        grid = np.linspace(-1, 1, 401)
        brute = sum(min(ai * t * t + float(bi) * t for t in grid) for ai, bi in zip(a, b))
        assert checks.box_min(a, b) == pytest.approx(brute, abs=1e-9)


def test_generated_targets_have_the_stated_polya_degree():
    rng = random.Random(2)
    F = families.simplex_target(rng, 1, 2, 3)
    coeffs2 = families.bernstein_coefficients(F, 1, 2)
    coeffs3 = families.bernstein_coefficients(F, 1, 3)
    assert not all(is_pd(m) for m in coeffs2.values())
    assert all(is_pd(m) for m in coeffs3.values())


def test_coefficient_parser():
    v = parse_coeff("3/4-1/2*sqrt(2)")
    assert v == QR(Fraction(3, 4), Fraction(-1, 2), 2)
    assert parse_coeff(str(v)) == v
    assert math.isclose(float(parse_coeff("-1/1+1/1*sqrt(2)")), math.sqrt(2) - 1)


def test_percentile_estimates():
    from run import percentile

    assert percentile([3.0, 1.0, 2.0], 0.5) == pytest.approx(2.0)
    values = list(range(1, 101))
    assert percentile(values, 0.5) == pytest.approx(50.5)
    assert 74 < percentile(values, 0.75) < 77


def test_tracer_wraps_from_outside_and_restores():
    import contextlib
    import io
    import sys

    from runner import Program
    from tracer import Tracer

    program = Program()
    cli = sys.modules["pmicert.cli"]
    original = cli.polya_certificate
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.polya_certificate is not original
        assert sys.modules["pmicert.certify"].polya_certificate is cli.polya_certificate
        with contextlib.redirect_stdout(io.StringIO()):
            assert program.cli.main(["bound", "--formula", "theta", "--m", "3"]) == 0
    finally:
        tracer.uninstall()
    assert cli.polya_certificate is original
    assert tracer.calls["bounds"] == 1 and tracer.calls["cli"] == 1
    metrics = tracer.metrics(1)
    assert metrics["cli.self_s"][0] > 0 and metrics["bounds.s"][0] > 0

"""Checks of the program's outputs, computed apart from the program.

Each check takes the job's check data, its exit code, its standard output
and the text of the files it wrote, and returns a Verdict:

  PASS   the output is right;
  FAULT  a relaxation bound below the true optimum by more than the stated
         accuracy: the loose-bound fault of the relaxation solver, counted
         as a failed job;
  WRONG  anything else: the run reports correct = false.

Identities are decided exactly (refmath.QR at rational points); numeric
references use numpy only where the quantity is irrational.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import numpy as np

from refmath import (
    ONE, ZERO, QR, PointEval, certificate_value, eval_matrix, is_pd, is_psd,
    parse_coeff, parse_poly_text, read_certificate, read_problem, read_sdpa_shape,
)

PASS, FAULT, WRONG = "pass", "fault", "wrong"

RELAX_ACCURACY = 1e-5       # |f_k - f*| <= RELAX_ACCURACY * max(1, |f*|)
HOMOGENIZE_ACCURACY = 1e-5  # |est - min| <= HOMOGENIZE_ACCURACY * max(1, max|M|)
NUMERIC_CERT_TOL = 1e-5     # pointwise residual of a numeric certificate


class Verdict:
    __slots__ = ("status", "message")

    def __init__(self, status: str, message: str = ""):
        self.status, self.message = status, message

    def __repr__(self):
        return f"Verdict({self.status}, {self.message!r})"


def _wrong(msg: str) -> Verdict:
    return Verdict(WRONG, msg)


def theta(m: int) -> int:
    """Entry count of the recursive scalarization: m(m+1)/2 pivots, each
    followed by the scalarization of an (m-1) x (m-1) block."""
    if m == 1:
        return 1
    pairs = m * (m + 1) // 2
    return pairs * (1 + theta(m - 1))


def random_points(seed: str, n: int, count: int, bound: int = 2, nonzero: bool = True):
    rng = random.Random(seed)
    pts = []
    for _ in range(count):
        pt = []
        for _ in range(n):
            num = rng.randint(-4 * bound, 4 * bound)
            while nonzero and num == 0:
                num = rng.randint(-4 * bound, 4 * bound)
            pt.append(Fraction(num, rng.randint(1, 4)))
        pts.append(pt)
    return pts


def gram_margin_ok(gram, tol: float) -> bool:
    """No eigenvalue of the (exact) Gram below -tol * max(1, max |entry|)."""
    arr = np.array([[float(v) for v in row] for row in gram])
    if arr.size == 0:
        return True
    scale = max(1.0, float(np.abs(arr).max()))
    return float(np.linalg.eigvalsh(arr)[0]) >= -tol * scale


def elementary_symmetric(mat):
    """e_1..e_m of the eigenvalues: sums of principal minors (exact)."""
    from itertools import combinations

    m = len(mat)
    out = []
    for k in range(1, m + 1):
        total = ZERO
        for idx in combinations(range(m), k):
            total = total + determinant([[mat[i][j] for j in idx] for i in idx])
        out.append(total)
    return out


def determinant(mat):
    a = [row[:] for row in mat]
    n = len(a)
    det = ONE
    for c in range(n):
        piv = next((r for r in range(c, n) if not a[r][c].is_zero()), None)
        if piv is None:
            return ZERO
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det = det * a[c][c]
        inv = a[c][c].inverse()
        for r in range(c + 1, n):
            if not a[r][c].is_zero():
                f = a[r][c] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


# ---------------------------------------------------------------------------
# references


def trust_region_min(A, b, c: float = 0.0) -> float:
    """min x^T A x + b^T x + c over |x| <= 1 (A symmetric), via eigh and the
    secular equation |x(lam)| = 1, x(lam) = -(A + lam I)^-1 b / 2."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    w, U = np.linalg.eigh(A)
    g = U.T @ b

    def x_of(lam):
        return -g / (2.0 * (w + lam))

    def value(y):
        return float(y @ (w * y) + g @ y + c)

    if w[0] > 0 and np.dot(x_of(0.0), x_of(0.0)) <= 1.0:
        return value(x_of(0.0))
    lo = max(0.0, -w[0])
    # hard case: no component along the bottom eigenspace
    bottom = np.abs(w - w[0]) <= 1e-12 * max(1.0, abs(w[0]))
    if np.all(np.abs(g[bottom]) <= 1e-14 * max(1.0, np.abs(g).max())):
        with np.errstate(divide="ignore", invalid="ignore"):
            y = np.where(bottom, 0.0, -g / (2.0 * (w - w[0])))
        if w[0] <= 0 and np.dot(y, y) <= 1.0:
            y[np.argmax(bottom)] = math.sqrt(1.0 - float(np.dot(y, y)))
            return value(y)
    hi = lo + 1.0
    while np.dot(x_of(hi), x_of(hi)) > 1.0:
        hi = lo + 2.0 * (hi - lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if np.dot(x_of(mid), x_of(mid)) > 1.0:
            lo = mid
        else:
            hi = mid
    return value(x_of(hi))


def box_min(a, b) -> float:
    total = Fraction(0)
    for ai, bi in zip(a, b):
        ai, bi = Fraction(ai), Fraction(bi)
        cands = [ai + bi, ai - bi]
        if ai > 0 and abs(bi / (2 * ai)) <= 1:
            cands.append(-bi * bi / (4 * ai))
        total += min(cands)
    return float(total)


def relax_reference(spec: dict) -> float:
    fam = spec["family"]
    if fam == "ball-quadratic":
        A = [[float(Fraction(v)) for v in row] for row in spec["A"]]
        return trust_region_min(A, [float(Fraction(v)) for v in spec["b"]],
                                float(Fraction(spec["c"])))
    if fam == "ball-linear":
        return -math.sqrt(sum(float(Fraction(v)) ** 2 for v in spec["b"]))
    if fam == "box-separable":
        return box_min([Fraction(v) for v in spec["a"]], [Fraction(v) for v in spec["b"]])
    raise ValueError(f"unknown family {fam}")


# ---------------------------------------------------------------------------
# checks by job type


def check_certificate(data, rc, stdout, files) -> Verdict:
    if rc != 0:
        return _wrong(f"exit {rc}, expected 0")
    prob = read_problem(files["problem"])
    cert = read_certificate(files["out"])
    if cert["mode"] != "exact":
        return _wrong("certificate is not exact")
    for point in random_points(data["points_seed"], prob["n"], 2):
        ev = PointEval(point)
        lhs = eval_matrix(prob["F"], ev)
        rhs = certificate_value(cert, prob["G"], ev)
        if any(not (x - y).is_zero() for rl, rr in zip(lhs, rhs) for x, y in zip(rl, rr)):
            return _wrong(f"F != SOS + sum scale P^T G P at {point}")
    for _, gram in cert["blocks"]:
        if not gram_margin_ok(gram, 1e-9):
            return _wrong("Gram block has an eigenvalue below rounding")
    return Verdict(PASS)


def check_refutation(data, rc, stdout, files) -> Verdict:
    if rc != 1:
        return _wrong(f"exit {rc}, expected 1 (refuted)")
    doc = json.loads(stdout)
    if "witness" not in doc:
        return _wrong("refutation carries no witness")
    prob = read_problem(files["problem"])
    n = prob["n"]
    w = [parse_coeff(c) for c in doc["witness"]]
    if len(w) != n:
        return _wrong("witness has the wrong length")
    if any((x + 1).sign() < 0 for x in w):
        return _wrong("witness violates x_i >= -1")
    if (QR(0, 1, n) - sum(w, ZERO)).sign() < 0:
        return _wrong("witness violates sum x_i <= sqrt(n)")
    if is_pd(eval_matrix(prob["F"], PointEval(w))):
        return _wrong("F is positive definite at the witness")
    return Verdict(PASS)


def check_exit(data, rc, stdout, files) -> Verdict:
    if rc != data["expect"]:
        return _wrong(f"exit {rc}, expected {data['expect']}")
    return Verdict(PASS)


def check_relax(data, rc, stdout, files) -> Verdict:
    if rc != 0:
        return _wrong(f"exit {rc}, expected 0")
    doc = json.loads(stdout)
    gamma = float(doc["gamma"])
    n, k, m, d_G = data["n"], data["k"], data["m"], data["d_G"]
    ncons, sizes = read_sdpa_shape(files["sdpa"])
    kprime = k - (d_G + 1) // 2
    if ncons != math.comb(n + 2 * k, n):
        return _wrong(f"SDPA has {ncons} constraints, expected C(n+2k, n)")
    if sizes != [math.comb(n + k, n), m * math.comb(n + kprime, n)]:
        return _wrong(f"SDPA block sizes {sizes}")
    verdict = _check_numeric_certificate(files, gamma, data)
    if verdict is not None:
        return verdict
    ref = relax_reference(data["spec"])
    acc = RELAX_ACCURACY * max(1.0, abs(ref))
    if gamma > ref + acc:
        return _wrong(f"f_k = {gamma!r} exceeds the optimum {ref!r}: not a lower bound")
    if gamma < ref - acc:
        return Verdict(FAULT, f"f_k = {gamma!r} is below the optimum {ref!r} by {ref - gamma:.3g}")
    return Verdict(PASS)


def _check_numeric_certificate(files, gamma: float, data):
    prob = read_problem(files["problem"])
    cert = read_certificate(files["out"])
    if cert["mode"] != "numeric" or cert["k"] != 2 * data["k"]:
        return _wrong("relaxation certificate header")
    g = QR(Fraction(gamma))
    # inside the scaled simplex, where the Bernstein norm bounds the residual
    for point in random_points(data["points_seed"], prob["n"], 2, bound=1):
        point = [x / 4 for x in point]
        ev = PointEval(point)
        resid = ev.poly(prob["F"][0][0]) - g - certificate_value(cert, prob["G"], ev)[0][0]
        if abs(float(resid)) > NUMERIC_CERT_TOL:
            return _wrong(f"certificate residual {float(resid):.3g} at {point}")
    for _, gram in cert["blocks"]:
        if not gram_margin_ok(gram, NUMERIC_CERT_TOL):
            return _wrong("numeric Gram block is not PSD within tolerance")
    return None


def check_scalarize(data, rc, stdout, files) -> Verdict:
    if rc != 0:
        return _wrong(f"exit {rc}, expected 0")
    doc = json.loads(stdout)
    prob = read_problem(files["problem"])
    n, m, G = prob["n"], prob["m"], prob["G"]
    if doc["count"] != theta(m) or len(doc["entries"]) != theta(m):
        return _wrong(f"count {doc['count']} != theta({m}) = {theta(m)}")
    entries = [(parse_poly_text(e["poly"], n), [parse_poly_text(w, n) for w in e["witness"]])
               for e in doc["entries"]]
    for point in random_points(data["points_seed"], n, 3, nonzero=False):
        ev = PointEval(point)
        Gv = eval_matrix(G, ev)
        values = []
        for d, v in entries:
            vv = [ev.poly(p) for p in v]
            quad = sum((vv[i] * Gv[i][j] * vv[j] for i in range(m) for j in range(m)), ZERO)
            dv = ev.poly(d)
            if not (dv - quad).is_zero():
                return _wrong(f"d_i != v_i^T G v_i at {point}")
            values.append(dv)
        if is_psd(Gv) != all(v.sign() >= 0 for v in values):
            return _wrong(f"G >= 0 and all d_i >= 0 disagree at {point}")
    return Verdict(PASS)


def check_charpoly(data, rc, stdout, files) -> Verdict:
    if rc != 0:
        return _wrong(f"exit {rc}, expected 0")
    doc = json.loads(stdout)
    prob = read_problem(files["problem"])
    n, m, G = prob["n"], prob["m"], prob["G"]
    if doc["count"] != m:
        return _wrong(f"count {doc['count']} != m = {m}")
    polys = [parse_poly_text(e["poly"], n) for e in doc["polynomials"]]
    for point in random_points(data["points_seed"], n, 3, nonzero=False):
        ev = PointEval(point)
        Gv = eval_matrix(G, ev)
        e = elementary_symmetric(Gv)
        values = [ev.poly(p) for p in polys]
        if any(not (a - b).is_zero() for a, b in zip(values, e)):
            return _wrong(f"g_i != e_i(eigenvalues of G) at {point}")
        if is_psd(Gv) != all(v.sign() >= 0 for v in values):
            return _wrong(f"G >= 0 and all g_i >= 0 disagree at {point}")
    return Verdict(PASS)


def check_homogenize(data, rc, stdout, files) -> Verdict:
    if rc != 0:
        return _wrong(f"exit {rc}, expected 0")
    doc = json.loads(stdout)
    value = float(doc["F_tilde_min"])
    forms = [np.array([[float(Fraction(v)) for v in row] for row in M]) for M in data["forms"]]
    closed = min(float(np.linalg.eigvalsh(M)[0]) for M in forms)
    scale = max(1.0, max(float(np.abs(M).max()) for M in forms))
    if value < closed - 1e-9:
        return _wrong(f"estimate {value!r} below the sphere minimum {closed!r}")
    if value - closed > HOMOGENIZE_ACCURACY * scale:
        return _wrong(f"estimate {value!r} is {value - closed:.3g} above the minimum {closed!r}")
    arg = np.array([float(v) for v in doc["argmin"]])
    if abs(float(np.linalg.norm(arg)) - 1.0) > 1e-9:
        return _wrong("argmin is not a unit vector")
    return Verdict(PASS)


def check_dehomogenize(data, rc, stdout, files) -> Verdict:
    if rc != 0:
        return _wrong(f"dehomogenization raised: {stdout.strip()[:200]}")
    prob = read_problem(files["problem"])
    cert = read_certificate(files["out"])
    n = prob["n"]
    deg_f = max(max((sum(e) for e in p), default=0) for row in prob["F"] for p in row)
    k = (cert["k"] - deg_f) // 2
    if cert["mode"] != "exact" or 2 * k + deg_f != cert["k"] or k < 0:
        return _wrong("dehomogenized certificate header")
    for point in random_points(data["points_seed"], n, 2):
        ev = PointEval(point)
        u = (ONE + sum((x * x for x in ev.point), ZERO)) ** k
        lhs = [[u * v for v in row] for row in eval_matrix(prob["F"], ev)]
        rhs = certificate_value(cert, prob["G"], ev)
        if any(not (x - y).is_zero() for rl, rr in zip(lhs, rhs) for x, y in zip(rl, rr)):
            return _wrong(f"(1+|x|^2)^k F != SOS + sum P^T G P at {point}")
    for _, gram in cert["blocks"]:
        if not gram_margin_ok(gram, 1e-9):
            return _wrong("Gram block has an eigenvalue below rounding")
    return Verdict(PASS)


CHECKS = {
    "certificate": check_certificate,
    "refutation": check_refutation,
    "exit": check_exit,
    "relax": check_relax,
    "scalarize": check_scalarize,
    "charpoly": check_charpoly,
    "homogenize": check_homogenize,
    "dehomogenize": check_dehomogenize,
}

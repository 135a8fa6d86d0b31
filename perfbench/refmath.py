"""The benchmark's own exact arithmetic, kept apart from the program.

Numbers a + b*sqrt(r) with rational a, b (class QR), sparse polynomials as
{exponent tuple: QR} dicts, readers for the program's text formats (problem
JSON, certificate text, SDPA), exact evaluation at points, and an exact
LDL^T positivity test.  Nothing here imports pmicert: every check that uses
these helpers is an independent computation.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction


class QR:
    """a + b*sqrt(r), exact; r == 0 means a plain rational."""

    __slots__ = ("a", "b", "r")

    def __init__(self, a=0, b=0, r=0):
        a, b = Fraction(a), Fraction(b)
        if b and math.isqrt(r) ** 2 == r:
            a, b = a + b * math.isqrt(r), Fraction(0)
        self.a, self.b, self.r = a, b, (r if b else 0)

    @staticmethod
    def of(v) -> "QR":
        return v if isinstance(v, QR) else QR(v)

    def _radicand(self, other: "QR") -> int:
        if self.r and other.r and self.r != other.r:
            raise ValueError(f"mixed radicands {self.r} and {other.r}")
        return self.r or other.r

    def __add__(self, other):
        o = QR.of(other)
        return QR(self.a + o.a, self.b + o.b, self._radicand(o))

    __radd__ = __add__

    def __neg__(self):
        return QR(-self.a, -self.b, self.r)

    def __sub__(self, other):
        return self + (-QR.of(other))

    def __rsub__(self, other):
        return QR.of(other) - self

    def __mul__(self, other):
        o = QR.of(other)
        r = self._radicand(o)
        return QR(self.a * o.a + self.b * o.b * r, self.a * o.b + self.b * o.a, r)

    __rmul__ = __mul__

    def inverse(self) -> "QR":
        den = self.a * self.a - self.b * self.b * self.r
        if den == 0:
            raise ZeroDivisionError("inverse of zero")
        return QR(self.a / den, -self.b / den, self.r)

    def __truediv__(self, other):
        return self * QR.of(other).inverse()

    def __pow__(self, k: int):
        out = QR(1)
        for _ in range(k):
            out = out * self
        return out

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        a, b = self.a, self.b
        sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
        if sb == 0 or sa == sb:
            return sa or sb
        if sa == 0:
            return sb
        # opposite signs: compare a^2 with b^2 r
        diff = a * a - b * b * self.r
        return sa if diff > 0 else (-sa if diff < 0 else 0)

    def __eq__(self, other):
        return (self - QR.of(other)).is_zero()

    def __hash__(self):
        return hash((self.a, self.b, self.r))

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.r)

    def __str__(self):
        a = f"{self.a.numerator}/{self.a.denominator}"
        if not self.b:
            return a
        b = abs(self.b)
        return f"{a}{'+' if self.b > 0 else '-'}{b.numerator}/{b.denominator}*sqrt({self.r})"

    __repr__ = __str__


ZERO, ONE = QR(0), QR(1)


def parse_coeff(text: str) -> QR:
    """'p/q', 'p/q+r/s*sqrt(n)' or 'p/q-r/s*sqrt(n)'."""
    s = text.replace(" ", "")
    if "sqrt(" not in s:
        return QR(Fraction(s))
    star = s.index("*sqrt(")
    r = int(s[star + 6:-1])
    head = s[:star]
    cut = 0  # the sign that separates the rational part from the sqrt part
    for i in range(1, len(head)):
        if head[i] in "+-" and head[i - 1] not in "+-/":
            cut = i
    if cut == 0:
        return QR(0, Fraction(head), r)
    return QR(Fraction(head[:cut]), Fraction(head[cut:]), r)


# ---------------------------------------------------------------------------
# polynomials: {exponent tuple: QR}


def poly_add(p: dict, q: dict, scale=ONE) -> dict:
    out = dict(p)
    for e, c in q.items():
        v = out.get(e, ZERO) + c * scale
        if v.is_zero():
            out.pop(e, None)
        else:
            out[e] = v
    return out


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, ZERO) + c1 * c2
    return {e: c for e, c in out.items() if not c.is_zero()}


def poly_degree(p: dict) -> int:
    return max((sum(e) for e in p), default=-1)


def poly_text(p: dict, nvars: int) -> str:
    """The program's polynomial text form, '(c) * x1^e1*...*xn^en + ...'."""
    if not p:
        return "(0/1) * " + "*".join(f"x{i + 1}^0" for i in range(nvars))
    keys = sorted(p, key=lambda e: (sum(e), e), reverse=True)
    return " + ".join(
        f"({p[e]}) * " + "*".join(f"x{i + 1}^{k}" for i, k in enumerate(e)) for e in keys
    )


def parse_poly_text(text: str, nvars: int) -> dict:
    out: dict = {}
    for chunk in text.split(" + "):
        chunk = chunk.strip()
        close = chunk.rindex(")")
        c = parse_coeff(chunk[1:close])
        exps = [0] * nvars
        rest = chunk[close + 1:].lstrip(" *")
        if rest and rest != "1":
            for factor in rest.split("*"):
                var, k = factor.split("^")
                exps[int(var[1:]) - 1] = int(k)
        e = tuple(exps)
        out[e] = out.get(e, ZERO) + c
    return {e: c for e, c in out.items() if not c.is_zero()}


class PointEval:
    """Exact polynomial values at one point, with cached monomial values."""

    def __init__(self, point):
        self.point = [QR.of(v) for v in point]
        self.cache: dict = {}

    def mono(self, e) -> QR:
        v = self.cache.get(e)
        if v is None:
            v = ONE
            for x, k in zip(self.point, e):
                if k:
                    v = v * x ** k
            self.cache[e] = v
        return v

    def poly(self, p: dict) -> QR:
        total = ZERO
        for e, c in p.items():
            total = total + c * self.mono(e)
        return total


# ---------------------------------------------------------------------------
# exact positivity of constant symmetric matrices


def ldlt_pivots(mat):
    """Pivots of an exact symmetric elimination, or None when a zero pivot has
    a nonzero row (then the matrix is indefinite)."""
    a = [[QR.of(v) for v in row] for row in mat]
    n = len(a)
    pivots = []
    for k in range(n):
        piv = a[k][k]
        if piv.is_zero():
            if any(not a[k][j].is_zero() for j in range(k, n)):
                return None
            pivots.append(ZERO)
            continue
        pivots.append(piv)
        inv = piv.inverse()
        for i in range(k + 1, n):
            if a[i][k].is_zero():
                continue
            f = a[i][k] * inv
            for j in range(k, n):
                a[i][j] = a[i][j] - f * a[k][j]
    return pivots


def is_psd(mat) -> bool:
    piv = ldlt_pivots(mat)
    return piv is not None and all(p.sign() >= 0 for p in piv)


def is_pd(mat) -> bool:
    piv = ldlt_pivots(mat)
    return piv is not None and all(p.sign() > 0 for p in piv)


# ---------------------------------------------------------------------------
# readers for the program's file formats


def read_problem(text: str) -> dict:
    """Problem JSON -> {'n', 'ell', 'm', 'F', 'G'} with full symmetric grids."""
    doc = json.loads(text)
    n = int(doc["n"])

    def grid(entries, size):
        g = [[{} for _ in range(size)] for _ in range(size)]
        for ent in entries:
            p = {}
            for exps, c in ent["terms"]:
                p = poly_add(p, {tuple(exps): parse_coeff(str(c))})
            g[ent["row"]][ent["col"]] = p
            g[ent["col"]][ent["row"]] = p
        return g

    return {"n": n, "ell": int(doc["ell"]), "m": int(doc["m"]),
            "F": grid(doc["F"], int(doc["ell"])), "G": grid(doc["G"], int(doc["m"]))}


def write_problem(n: int, F, G) -> str:
    """Problem JSON from full symmetric grids of polynomials."""
    def entries(grid):
        out = []
        for i in range(len(grid)):
            for j in range(i, len(grid)):
                p = grid[i][j]
                if p:
                    terms = [[list(e), str(p[e])]
                             for e in sorted(p, key=lambda e: (sum(e), e), reverse=True)]
                    out.append({"row": i, "col": j, "terms": terms})
        return out

    doc = {"n": n, "ell": len(F), "m": len(G), "F": entries(F), "G": entries(G)}
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def read_certificate(text: str) -> dict:
    """Certificate text -> dict with 'nvars', 'ell', 'm', 'k', 'mode',
    'blocks' [(basis, gram)], 'mults' [(scale, rows x cols grid)], 'sphere'."""
    lines = text.splitlines()
    pos = 0

    def take(prefix=""):
        nonlocal pos
        line = lines[pos]
        pos += 1
        if not line.startswith(prefix):
            raise ValueError(f"line {pos}: expected {prefix!r}, got {line[:40]!r}")
        return line[len(prefix):]

    if take() != "qmcert-v1":
        raise ValueError("missing header")
    cert = {"mode": take("mode "), "nvars": int(take("nvars ")), "ell": int(take("size ")),
            "m": int(take("constraint-size ")), "k": int(take("degree "))}
    n, ell = cert["nvars"], cert["ell"]
    blocks = []
    for b in range(int(take("sos-blocks "))):
        count = int(take(f"block {b} basis "))
        basis = [tuple(int(t) for t in take().split()) for _ in range(count)]
        take("gram")
        dim = count * ell
        gram = [[ZERO] * dim for _ in range(dim)]
        for r in range(dim):
            toks = take().split()
            if len(toks) != r + 1:
                raise ValueError(f"gram row {r} has {len(toks)} entries")
            for c, tok in enumerate(toks):
                gram[r][c] = gram[c][r] = parse_coeff(tok[1:-1])
        blocks.append((basis, gram))
    mults = []
    for i in range(int(take("multipliers "))):
        toks = take(f"multiplier {i} scale ").split()
        scale, rows, cols = parse_coeff(toks[0][1:-1]), int(toks[2]), int(toks[4])
        mat = [[parse_poly_text(take(), n) for _ in range(cols)] for _ in range(rows)]
        mults.append((scale, mat))
    sphere = take("sphere-multiplier ")
    cert["sphere"] = None
    if sphere != "none":
        size = int(sphere)
        H = [[{} for _ in range(size)] for _ in range(size)]
        for i in range(size):
            for j in range(i, size):
                H[i][j] = H[j][i] = parse_poly_text(take(), n)
        cert["sphere"] = H
    if take() != "end":
        raise ValueError("missing end marker")
    cert["blocks"], cert["mults"] = blocks, mults
    return cert


def read_sdpa_shape(text: str):
    """(constraint count, block sizes) from an SDPA sparse file."""
    body = [ln.strip() for ln in text.splitlines()
            if ln.strip() and not ln.lstrip().startswith(("*", '"'))]
    return int(body[0]), [int(t) for t in body[2].split()]


# ---------------------------------------------------------------------------
# evaluation of certificates and matrices


def eval_matrix(grid, ev: PointEval):
    return [[ev.poly(p) for p in row] for row in grid]


def matmul(A, B):
    return [[sum((A[i][k] * B[k][j] for k in range(len(B))), ZERO)
             for j in range(len(B[0]))] for i in range(len(A))]


def transpose(A):
    return [list(col) for col in zip(*A)]


def certificate_value(cert: dict, G, ev: PointEval, sphere: bool = False):
    """SOS part + sum scale * P^T G P (+ H * (|x|^2 - 1)) at one point."""
    ell = cert["ell"]
    total = [[ZERO] * ell for _ in range(ell)]
    for basis, gram in cert["blocks"]:
        z = [ev.mono(e) for e in basis]
        # Z = z (x) I_ell, value = Z^T gram Z
        for i in range(ell):
            for j in range(ell):
                acc = ZERO
                for u, zu in enumerate(z):
                    if zu.is_zero():
                        continue
                    row = gram[u * ell + i]
                    inner = ZERO
                    for v, zv in enumerate(z):
                        c = row[v * ell + j]
                        if not c.is_zero():
                            inner = inner + c * zv
                    acc = acc + zu * inner
                total[i][j] = total[i][j] + acc
    Gv = eval_matrix(G, ev)
    for scale, P in cert["mults"]:
        Pv = eval_matrix(P, ev)
        contrib = matmul(transpose(Pv), matmul(Gv, Pv))
        for i in range(ell):
            for j in range(ell):
                total[i][j] = total[i][j] + scale * contrib[i][j]
    if sphere and cert["sphere"] is not None:
        r2 = sum((x * x for x in ev.point), ZERO) - 1
        Hv = eval_matrix(cert["sphere"], ev)
        for i in range(ell):
            for j in range(ell):
                total[i][j] = total[i][j] + Hv[i][j] * r2
    return total

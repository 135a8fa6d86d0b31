"""Problem families for the four workloads.

Every generator takes a random.Random and returns plain data (polynomial
grids over QR, see refmath) plus the reference facts the checks need.  The
benchmark's own Bernstein expansion decides the Polya degree of each certify
target, so the job mix reaches fixed degrees.  Symmetry carries an instance
to an equivalent one for a given seed.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from refmath import ONE, ZERO, QR, is_pd, poly_add, poly_degree, poly_mul


def const(n: int, c) -> dict:
    c = QR.of(c)
    return {} if c.is_zero() else {(0,) * n: c}


def var(n: int, i: int, c=1) -> dict:
    e = [0] * n
    e[i] = 1
    return {tuple(e): QR.of(c)}


def ball_grid(n: int):
    p = const(n, 1)
    for i in range(n):
        p = poly_add(p, poly_mul(var(n, i), var(n, i)), QR(-1))
    return [[p]]


def arrow_grid(n: int):
    """[[1, x^T], [x, I]]: PSD exactly on the unit ball."""
    g = [[{} for _ in range(n + 1)] for _ in range(n + 1)]
    g[0][0] = const(n, 1)
    for i in range(n):
        g[0][i + 1] = g[i + 1][0] = var(n, i)
        g[i + 1][i + 1] = const(n, 1)
    return g


def box_grid(n: int):
    """diag(1 - x_i^2)."""
    g = [[{} for _ in range(n)] for _ in range(n)]
    for i in range(n):
        g[i][i] = poly_add(const(n, 1), poly_mul(var(n, i), var(n, i)), QR(-1))
    return g


def arrow_witness_text(n: int) -> str:
    """Certificate that 1 - |x|^2 = v^T G v with v = (1, -x) for the arrow G."""
    from refmath import poly_text

    lines = ["qmcert-v1", "mode exact", f"nvars {n}", "size 1",
             f"constraint-size {n + 1}", "degree 2", "sos-blocks 0", "multipliers 1",
             f"multiplier 0 scale (1/1) rows {n + 1} cols 1", poly_text(const(n, 1), n)]
    lines += [poly_text(var(n, i, -1), n) for i in range(n)]
    lines += ["sphere-multiplier none", "end"]
    return "\n".join(lines) + "\n"


def rand_poly(rng: random.Random, n: int, deg: int, lo: int = -3, hi: int = 3) -> dict:
    p = {}
    for d in range(deg + 1):
        for e in itertools.product(range(d + 1), repeat=n):
            if sum(e) == d:
                c = rng.randint(lo, hi)
                if c:
                    p[e] = QR(c)
    return p


def scale_grid(grid, c):
    return [[{e: v * c for e, v in p.items()} for p in row] for row in grid]


def add_grids(A, B):
    return [[poly_add(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


class Symmetry:
    """A cost-neutral change of an instance, drawn from the run's seed.

    Variables: x_i -> s_i x_perm(i) (signs only where the domain is symmetric
    under them).  Matrices: F -> P F P^T for a signed permutation P.  Both
    preserve the properties the checks rely on (positive definiteness on the
    simplex and its Polya degree, optima over the ball and the box, the set
    G >= 0), and the sizes and bit lengths that set a job's cost.
    """

    def __init__(self, rng: random.Random, n: int, size: int = 1, flip: bool = True):
        self.perm = list(range(n))
        rng.shuffle(self.perm)
        self.signs = [rng.choice((-1, 1)) if flip else 1 for _ in range(n)]
        self.mperm = list(range(size))
        rng.shuffle(self.mperm)
        self.msigns = [rng.choice((-1, 1)) for _ in range(size)]

    def exponent(self, e, offset: int = 0):
        """(new exponent, sign) of a monomial; the first `offset` variables
        are left alone."""
        out = list(e)
        sign = 1
        for i, k in enumerate(e[offset:]):
            out[offset + self.perm[i]] = k
            if k % 2 and self.signs[i] < 0:
                sign = -sign
        return tuple(out), sign

    def poly(self, p: dict) -> dict:
        out = {}
        for e, c in p.items():
            ne, sign = self.exponent(e)
            out[ne] = c if sign > 0 else -c
        return out

    def grid(self, G):
        q = self.mperm
        return [[{e: c * (self.msigns[i] * self.msigns[j]) for e, c in
                  self.poly(G[q[i]][q[j]]).items()} for j in range(len(G))]
                for i in range(len(G))]

    def permute(self, a):
        out = [0] * len(a)
        for i, v in enumerate(a):
            out[self.perm[i]] = v
        return out

    def vector(self, b):
        """Coefficients of a linear form under the variable change."""
        return self.permute([s * v for s, v in zip(self.signs, b)])

    def form(self, A, offset: int = 0):
        """Coefficient matrix of a quadratic form under the variable change;
        the first `offset` rows and columns belong to fixed variables."""
        idx = list(range(offset)) + [offset + p for p in self.perm]
        sgn = [1] * offset + self.signs
        size = len(A)
        out = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(size):
                out[idx[i]][idx[j]] = sgn[i] * sgn[j] * A[i][j]
        return out


# ---------------------------------------------------------------------------
# Bernstein coefficients on the scaled simplex, computed independently


def bernstein_coefficients(F, n: int, t: int) -> dict:
    """{alpha: ell x ell matrix of QR} at degree t.

    On the scaled simplex x_i = s y_i - 1 with s = n + sqrt(n) and barycentric
    y (n+1 coordinates summing to 1), the degree-t basis member for alpha is
    multinom(t; alpha, t-|alpha|) y^alpha y_{n+1}^(t-|alpha|).  So the
    coefficients are those of the degree-t homogenization in y, divided by
    the multinomial.
    """
    s = QR(n, 1, n)
    N = n + 1
    total = {tuple(1 if j == i else 0 for j in range(N)): ONE for i in range(N)}
    xs = [poly_add({tuple(1 if j == i else 0 for j in range(N)): s}, total, QR(-1))
          for i in range(n)]
    powers = [{(0,) * N: ONE}]
    for _ in range(t):
        powers.append(poly_mul(powers[-1], total))

    def homog(p: dict) -> dict:
        out = {}
        for e, c in p.items():
            term = {(0,) * N: c}
            for i, k in enumerate(e):
                for _ in range(k):
                    term = poly_mul(term, xs[i])
            out = poly_add(out, poly_mul(term, powers[t - sum(e)]))
        return out

    ell = len(F)
    homs = [[homog(F[i][j]) if j >= i else None for j in range(ell)] for i in range(ell)]
    coeffs = {}
    for beta in itertools.product(range(t + 1), repeat=N):
        if sum(beta) != t:
            continue
        mult = math.factorial(t)
        for b in beta:
            mult //= math.factorial(b)
        inv = QR(Fraction(1, mult))
        mat = [[ZERO] * ell for _ in range(ell)]
        for i in range(ell):
            for j in range(i, ell):
                mat[i][j] = mat[j][i] = homs[i][j].get(beta, ZERO) * inv
        coeffs[beta[:n]] = mat
    return coeffs


def _random_perturbation(rng: random.Random, n: int, ell: int):
    """Symmetric ell x ell integer matrix polynomial of degree exactly 2."""
    while True:
        E = [[{} for _ in range(ell)] for _ in range(ell)]
        for i in range(ell):
            for j in range(i, ell):
                E[i][j] = E[j][i] = rand_poly(rng, n, 2 if i != j else 1)
        if max(poly_degree(p) for row in E for p in row) == 2:
            return E


def simplex_target(rng: random.Random, n: int, ell: int, t_want: int):
    """F = I + lam E(x) whose Polya degree on the scaled simplex is exactly
    t_want, with lam = j/16 the first step that reaches it.

    Bernstein coefficients are linear in F and those of I are I, so the
    coefficients of F are I + lam C_alpha(E), computed once per degree.
    """
    while True:
        E = _random_perturbation(rng, n, ell)
        tables = {t: list(bernstein_coefficients(E, n, t).values())
                  for t in range(2, t_want + 1)}
        for step in range(1, 33):
            lam = QR(Fraction(step, 16))

            def all_pd(t):
                return all(is_pd([[(ONE if i == j else ZERO) + lam * m[i][j]
                                   for j in range(ell)] for i in range(ell)])
                           for m in tables[t])

            reached = next((t for t in range(2, t_want + 1) if all_pd(t)), None)
            if reached == t_want:
                eye = [[const(n, 1) if i == j else {} for j in range(ell)]
                       for i in range(ell)]
                return add_grids(eye, scale_grid(E, lam))
            if reached is None:
                break


def indefinite_target(rng: random.Random, n: int, ell: int):
    """F = I + E(x) with a vertex of the simplex where F has a negative
    eigenvalue (vertex values are the vertex Bernstein coefficients)."""
    while True:
        E = _random_perturbation(rng, n, ell)
        F = add_grids([[const(n, 1) if i == j else {} for j in range(ell)]
                       for i in range(ell)], E)
        coeffs = bernstein_coefficients(F, n, 2)
        vertices = [a for a in coeffs if max(a, default=0) in (0, 2) and sum(a) in (0, 2)]
        if any(not is_pd(coeffs[a]) for a in vertices):
            return F


# ---------------------------------------------------------------------------
# relaxation families: optimum known apart from the program
#
# Seeded instances put the minimizer on the program's 9-point-per-axis
# sampling grid (coordinates in multiples of 1/4); see README for why.

GRID = [Fraction(k, 4) for k in range(-4, 5)]


def quad_poly(n: int, A, b, c=0) -> dict:
    """x^T A x + b^T x + c with rational A (symmetric), b, c."""
    p = const(n, c)
    for i in range(n):
        for j in range(n):
            if A[i][j]:
                e = [0] * n
                e[i] += 1
                e[j] += 1
                p = poly_add(p, {tuple(e): QR(A[i][j])})
        if b[i]:
            p = poly_add(p, var(n, i, b[i]))
    return p


def _sym_int(rng: random.Random, n: int, lo=-3, hi=3):
    A = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            A[i][j] = A[j][i] = rng.randint(lo, hi)
    return A


def _gershgorin_shift(A) -> int:
    """An integer s with A + s I positive definite (Gershgorin)."""
    return max(0, max(sum(abs(v) for j, v in enumerate(row) if j != i) - row[i]
                      for i, row in enumerate(A)) + 1)


def ball_quadratic(rng: random.Random, n: int):
    """Quadratic over the unit ball whose minimum sits on a grid point: either
    at a unit vector (nonconvex, trust-region multiplier lam > 0), or at an
    interior grid point c (convex).  Returns (A, b, c0)."""
    A = _sym_int(rng, n)
    if rng.random() < 0.5:
        i, sgn = rng.randrange(n), rng.choice((-1, 1))
        lam = _gershgorin_shift(A) + rng.randint(0, 2)
        b = [-2 * sgn * (A[r][i] + (lam if r == i else 0)) for r in range(n)]
        return A, b, 0
    shift = _gershgorin_shift(A)
    A = [[A[i][j] + (shift if i == j else 0) for j in range(n)] for i in range(n)]
    while True:
        c = [rng.choice(GRID[2:-2]) for _ in range(n)]
        if sum(v * v for v in c) <= Fraction(9, 16):
            break
    # (x - c)^T A (x - c) = x^T A x - 2 (A c)^T x + c^T A c
    Ac = [sum(A[i][j] * c[j] for j in range(n)) for i in range(n)]
    return A, [-2 * v for v in Ac], sum(c[i] * Ac[i] for i in range(n))


def ball_linear(rng: random.Random, n: int):
    """c^T x with -c/|c| a grid point of the unit sphere: an axis direction,
    or (+-1/2, ..., +-1/2) when n == 4."""
    if n == 4 and rng.random() < 0.5:
        a = rng.randint(1, 4)
        return [a * rng.choice((-1, 1)) for _ in range(n)]
    c = [0] * n
    c[rng.randrange(n)] = rng.choice((-1, 1)) * rng.randint(1, 4)
    return c


def box_separable(rng: random.Random, n: int):
    """sum a_i x_i^2 + b_i x_i over [-1, 1]^n with each coordinate's minimizer
    on the grid.  Returns (a, b)."""
    a, b = [], []
    for _ in range(n):
        ai = rng.choice((-3, -2, -1, 1, 2, 3, 4))
        if ai > 0:
            xi = rng.choice(GRID)
            bi = -2 * ai * xi
        else:
            bi = rng.choice((-2, -1, 1, 2))
        a.append(ai)
        b.append(bi)
    return a, b


# ---------------------------------------------------------------------------
# describe: constraint matrices, unbounded quadratics, sphere certificates


def constraint_matrix(rng: random.Random, n: int, m: int, deg: int):
    """Symmetric m x m matrix with random integer polynomial entries."""
    G = [[{} for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            p = {}
            while not p:
                p = rand_poly(rng, n, deg)
            G[i][j] = G[j][i] = p
    return G


def unbounded_quadratic(rng: random.Random, n: int, ell: int):
    """Diagonal ell x ell F with quadratic entries x^T A x + b^T x + c, and
    for each entry the (n+1) x (n+1) matrix M of its lifted form
    [x0, x] M [x0, x]^T, whose smallest eigenvalue is the sphere minimum."""
    F = [[{} for _ in range(ell)] for _ in range(ell)]
    forms = []
    for i in range(ell):
        A = _sym_int(rng, n)
        b = [rng.randint(-3, 3) for _ in range(n)]
        c = rng.randint(-3, 3)
        if all(v == 0 for row in A for v in row):
            A[0][0] = 1
        F[i][i] = quad_poly(n, A, b, c)
        M = [[Fraction(c)] + [Fraction(v, 2) for v in b]]
        M += [[Fraction(b[r], 2)] + [Fraction(v) for v in A[r]] for r in range(n)]
        forms.append(M)
    return F, forms


def sphere_certificate(rng: random.Random, n: int, ell: int, half_degree: int, lift: int,
                       sym: Symmetry):
    """A valid exact sphere certificate for a lifted target, and the target.

    With N = n + 1 variables (x0 first), r = |x~|^2, z the monomials of degree
    h = half_degree, Q = L L^T, and a constant 1 x ell row P with weight c,
    the target F~ = (z (x) I)^T Q (z (x) I) + c P^T P r^h is homogeneous of
    degree 2h, and F = F~(1, x).  The certificate writes it as

        SOS  = (z (x) I)^T Q (z (x) I) * r^lift     (a Gram over degree h+lift)
        mult = c P^T P                               (G = [1])
        H    = c P^T P (1 + r + ... + r^(h-1)) - [lift] (z (x) I)^T Q (z (x) I)

    so that F~ = SOS + mult + H (r - 1).  With lift = 1 the transfer back needs
    (1 + |x|^2)^1.  `sym` changes x1..xn (x0 stays) in the basis and the Gram.
    Returns (F grid in n variables, certificate text).
    """
    from refmath import poly_text

    N = n + 1
    unit = [tuple(1 if j == i else 0 for j in range(N)) for i in range(N)]

    def monos(d):
        return sorted((e for e in itertools.product(range(d + 1), repeat=N) if sum(e) == d),
                      key=lambda e: (sum(e), e))

    basis = monos(half_degree)
    dim = len(basis) * ell
    L = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
    Q = [[sum(L[i][k] * L[j][k] for k in range(dim)) for j in range(dim)]
         for i in range(dim)]
    P = [rng.randint(-2, 2) or 1 for _ in range(ell)]
    c = QR(Fraction(rng.randint(1, 4), rng.randint(1, 3)))
    moved = [sym.exponent(e, offset=1) for e in basis]
    basis = [e for e, _ in moved]
    Q = [[moved[u // ell][1] * moved[v // ell][1] * Q[u][v] for v in range(dim)]
         for u in range(dim)]

    def quad_form(i, j):
        p = {}
        for u, bu in enumerate(basis):
            for v, bv in enumerate(basis):
                q = Q[u * ell + i][v * ell + j]
                if q:
                    p = poly_add(p, {tuple(a + b for a, b in zip(bu, bv)): QR(q)})
        return p

    r2 = {tuple(2 * k for k in e): ONE for e in unit}
    rp, geo = {(0,) * N: ONE}, {(0,) * N: ONE}
    for _ in range(half_degree - 1):
        rp = poly_mul(rp, r2)
        geo = poly_add(geo, rp)
    r_top = poly_mul(rp, r2)

    F = [[{} for _ in range(ell)] for _ in range(ell)]
    H = [[{} for _ in range(ell)] for _ in range(ell)]
    for i in range(ell):
        for j in range(ell):
            w = c * P[i] * P[j]
            Ft = poly_add(quad_form(i, j), {e: v * w for e, v in r_top.items()})
            for e, v in Ft.items():
                F[i][j] = poly_add(F[i][j], {e[1:]: v})
            H[i][j] = {e: v * w for e, v in geo.items()}
            if lift:
                H[i][j] = poly_add(H[i][j], quad_form(i, j), QR(-1))

    if lift:
        # Q(z) * r = sum_i (x_i z)^T Q (x_i z): one embedded copy of Q per x_i
        sos_basis = monos(half_degree + 1)
        index = {e: s for s, e in enumerate(sos_basis)}
        gram = [[0] * (len(sos_basis) * ell) for _ in range(len(sos_basis) * ell)]
        for xi in unit:
            pos = [index[tuple(a + b for a, b in zip(xi, bu))] for bu in basis]
            for u in range(len(basis)):
                for v in range(len(basis)):
                    for a in range(ell):
                        for b in range(ell):
                            gram[pos[u] * ell + a][pos[v] * ell + b] += Q[u * ell + a][v * ell + b]
    else:
        sos_basis, gram = basis, Q

    lines = ["qmcert-v1", "mode exact", f"nvars {N}", f"size {ell}", "constraint-size 1",
             f"degree {2 * (half_degree + lift)}", "sos-blocks 1",
             f"block 0 basis {len(sos_basis)}"]
    lines += [" ".join(str(k) for k in e) for e in sos_basis]
    lines.append("gram")
    lines += [" ".join(f"({gram[r][s]}/1)" for s in range(r + 1)) for r in range(len(gram))]
    lines += ["multipliers 1", f"multiplier 0 scale ({c}) rows 1 cols {ell}"]
    lines += [poly_text(const(N, p), N) for p in P]
    lines.append(f"sphere-multiplier {ell}")
    lines += [poly_text(H[i][j], N) for i in range(ell) for j in range(i, ell)]
    lines.append("end")
    return F, "\n".join(lines) + "\n"

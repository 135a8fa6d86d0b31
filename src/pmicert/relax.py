"""Matrix SOS relaxation of polynomial optimization over a matrix constraint.

The order-k relaxation of min f(x) s.t. G(x) >= 0 maximizes gamma subject to
f - gamma lying in the degree-2k truncation of the quadratic module of G,
which is a block SDP: a Gram block for the SOS part over the monomials of
degree <= k and one PSD block of size m*N1 encoding sum_i v_i^T G v_i with
deg v_i <= k' (k' chosen so the products never exceed degree 2k).  One
Douglas-Rachford loop maximizes gamma directly: gamma is a variable of the
affine coefficient-matching set, riding on the constant-monomial constraint,
and the loop alternates projections onto that set and onto PSD x PSD x R.
It exits optimal (small displacement, closed duality gap), infeasible or
unbounded (converged nonzero displacement), or on the iteration budget.
Everything is deterministic for fixed inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ring import ExtRational, ZERO
from .algebra import (
    PolyMatrix,
    Polynomial,
    SymPolyMatrix,
    min_eigenvalue_numeric,
    monomials_upto,
)
from .certify import MultiplierTerm, QMCertificate, SOSBlock

MAX_TOTAL_BLOCK_SIZE = 200


class MaxIterationsError(Exception):
    pass


class SolverError(Exception):
    pass


@dataclass
class SDPProblem:
    n: int
    k: int
    kprime: int
    m: int
    basis0: list          # monomials of the SOS Gram block
    basis1: list          # monomials of the multiplier block
    monomials: list       # constraint index: all gamma with |gamma| <= 2k
    entries0: list        # per constraint: {(i, j) i<=j: ExtRational} on Q0
    entries1: list        # per constraint: {(i, j) i<=j: ExtRational} on Q1
    rhs: list             # ExtRational coefficients of f per constraint
    const_index: int      # position of the constant monomial

    @property
    def block_sizes(self):
        return [len(self.basis0), self.m * len(self.basis1)]

    def constraint_count(self) -> int:
        return len(self.monomials)


def count_monomials(n: int, d: int) -> int:
    return math.comb(n + d, n)


def build_relaxation(f: Polynomial, G: SymPolyMatrix, k: int) -> SDPProblem:
    """Exact coefficient-matching data of the order-k relaxation."""
    n = f.nvars
    if G.nvars != n:
        raise ValueError("objective and constraint must share variables")
    if 2 * k < f.degree:
        raise ValueError(f"2k = {2 * k} is below deg f = {f.degree}")
    d_G = max(G.degree, 0)
    kprime = k - (-(-d_G // 2))
    if kprime < 0:
        raise ValueError(f"relaxation order {k} too small for constraint degree {d_G}")
    m = G.size
    basis0 = monomials_upto(n, k)
    basis1 = monomials_upto(n, kprime)
    monomials = monomials_upto(n, 2 * k)
    index = {g: c for c, g in enumerate(monomials)}
    N0, N1 = len(basis0), len(basis1)

    entries0 = [dict() for _ in monomials]
    for u in range(N0):
        for v in range(u, N0):
            g = tuple(a + b for a, b in zip(basis0[u], basis0[v]))
            entries0[index[g]][(u, v)] = ExtRational(1)

    entries1 = [dict() for _ in monomials]
    for a in range(m):
        for b in range(m):
            gab = G.entries[a][b]
            for mono, coeff in gab.terms.items():
                for u in range(N1):
                    for v in range(N1):
                        iu = a * N1 + u
                        iv = b * N1 + v
                        if iu > iv:
                            continue
                        g = tuple(
                            x + y + z for x, y, z in zip(basis1[u], basis1[v], mono)
                        )
                        row = entries1[index[g]]
                        row[(iu, iv)] = row.get((iu, iv), ZERO) + coeff
    for row in entries1:
        for key in [k_ for k_, v in row.items() if v.is_zero()]:
            del row[key]

    rhs = [f.coeff(g) for g in monomials]
    const_index = index[(0,) * n]
    return SDPProblem(
        n, k, kprime, m, basis0, basis1, monomials, entries0, entries1, rhs, const_index
    )


@dataclass
class RelaxResult:
    gamma: float
    X0: np.ndarray
    X1: np.ndarray
    affine_residual: float
    psd_margin: float
    iterations: int


@dataclass
class Infeasible:
    residual: float
    gamma_probed: float
    iterations: int


def _constraint_matrix(p: SDPProblem) -> np.ndarray:
    """One row per monomial c: [vec A0_c | vec A1_c | c is constant], so that
    A @ (vec X0, vec X1, gamma) is the coefficient vector of the certificate
    plus gamma."""
    N0, M1 = p.block_sizes
    A = np.zeros((p.constraint_count(), N0 * N0 + M1 * M1 + 1))
    for c, (row0, row1) in enumerate(zip(p.entries0, p.entries1)):
        for (i, j), v in row0.items():
            A[c, i * N0 + j] = A[c, j * N0 + i] = float(v)
        for (i, j), v in row1.items():
            A[c, N0 * N0 + i * M1 + j] = A[c, N0 * N0 + j * M1 + i] = float(v)
    A[p.const_index, -1] = 1.0
    return A


def _psd_project(X: np.ndarray) -> np.ndarray:
    X = 0.5 * (X + X.T)
    w, U = np.linalg.eigh(X)
    w = np.clip(w, 0.0, None)
    return (U * w) @ U.T


# Prox step of the objective -gamma: gamma moves up by STEP before each affine
# projection.  On ball and box instances with n <= 3, 3.0 had the smallest
# worst case of the values tried (3,324 iterations): 2.5 took 34,376 on one
# instance, 1.0 exceeded 60,000 on a box instance whose minimizer sits at a
# corner with a zero multiplier, and 10.0 took 10,831 there.  Such degenerate
# instances converge sublinearly for any STEP; some exhaust the budget.
STEP = 3.0


def solve_sdp(p: SDPProblem, tol: float = 1e-6, max_iter: int = 60000):
    """Maximize gamma with one Douglas-Rachford loop.

    The variable is z = (vec X0, vec X1, gamma); each iteration projects
    z + STEP*e_gamma onto the affine coefficient-matching set (x, with
    multiplier mu) and 2x - z onto PSD x PSD x R (y), then moves z by the
    displacement D = y - x.  Exits:

    - RelaxResult (the affine-side x) once |D| < feas_tol and gamma is within
      tol*max(1, |gamma|) of the dual value b.mu/STEP (mu/STEP is the moment
      vector);
    - once D has converged to a nonzero vector (Banjac et al., JOTA 2019),
      SolverError when D moves gamma (unbounded above), else Infeasible;
    - MaxIterationsError when max_iter iterations end first, as they do on a
      weakly infeasible problem, which has no converged displacement.
    """
    if sum(p.block_sizes) > MAX_TOTAL_BLOCK_SIZE:
        raise ValueError(
            f"total block size {sum(p.block_sizes)} exceeds {MAX_TOTAL_BLOCK_SIZE}"
        )
    N0, M1 = p.block_sizes
    s0, s1 = N0 * N0, N0 * N0 + M1 * M1
    A = _constraint_matrix(p)
    gram_pinv = np.linalg.pinv(A @ A.T)
    b = np.array([float(v) for v in p.rhs])
    feas_tol = max(tol * 1e-2, 1e-10)
    z = np.zeros(A.shape[1])
    D_prev = None
    for it in range(1, max_iter + 1):
        w = z.copy()
        w[-1] += STEP
        mu = gram_pinv @ (A @ w - b)
        x = w - mu @ A
        v = 2.0 * x - z
        y = np.concatenate((
            _psd_project(v[:s0].reshape(N0, N0)).ravel(),
            _psd_project(v[s0:s1].reshape(M1, M1)).ravel(),
            v[-1:],
        ))
        D = y - x
        z += D
        res = float(np.linalg.norm(D))
        gamma = float(x[-1])
        if res < feas_tol and abs(float(b @ mu) / STEP - gamma) < tol * max(1.0, abs(gamma)):
            X0 = x[:s0].reshape(N0, N0)
            X1 = x[s0:s1].reshape(M1, M1)
            margin = min(min_eigenvalue_numeric(X0), min_eigenvalue_numeric(X1))
            return RelaxResult(gamma, X0, X1, res, margin, it)
        if (D_prev is not None and res > feas_tol
                and np.linalg.norm(D - D_prev) <= feas_tol * res):
            if D[-1] > feas_tol:
                raise SolverError("relaxation appears unbounded above")
            return Infeasible(res, gamma, it)
        D_prev = D
    raise MaxIterationsError(f"iteration budget {max_iter} exhausted")


def _poly_from_rhs(p: SDPProblem) -> Polynomial:
    return Polynomial(p.n, {g: v for g, v in zip(p.monomials, p.rhs)})


def solve_relaxation(
    f: Polynomial, G: SymPolyMatrix, k: int, tol: float = 1e-6, max_iter: int = 60000
):
    """build_relaxation + solve_sdp."""
    p = build_relaxation(f, G, k)
    return p, solve_sdp(p, tol=tol, max_iter=max_iter)


def hierarchy(
    f: Polynomial,
    G: SymPolyMatrix,
    k_from: int,
    k_to: int,
    tol: float = 1e-6,
    max_iter: int = 60000,
):
    """Relaxation values f_k for k in [k_from, k_to]; monotonicity within
    2*tol is asserted, matching the theory."""
    if k_from > k_to:
        raise ValueError("empty order range")
    values = []
    for k in range(k_from, k_to + 1):
        _, result = solve_relaxation(f, G, k, tol=tol, max_iter=max_iter)
        if isinstance(result, Infeasible):
            raise SolverError(f"order {k} relaxation infeasible")
        values.append(result.gamma)
    for a, b in zip(values, values[1:]):
        if b < a - 2 * tol:
            raise AssertionError(f"hierarchy not monotone: {a} -> {b}")
    return values


def extract_certificate(result: RelaxResult, p: SDPProblem) -> QMCertificate:
    """Numeric certificate for f - gamma from the solved Gram blocks.

    Floats are dyadic rationals, so the stored payload is exact; the
    certificate carries mode="numeric" because it verifies only up to the
    solver tolerance.
    """
    N0 = len(p.basis0)
    N1 = len(p.basis1)
    X0 = _psd_project(result.X0)
    gram = [
        [ExtRational(Fraction(float(X0[i, j]))) for j in range(N0)] for i in range(N0)
    ]
    for i in range(N0):
        for j in range(N0):
            gram[j][i] = gram[i][j]
    block = SOSBlock(list(p.basis0), gram)
    mults = []
    w, U = np.linalg.eigh(0.5 * (result.X1 + result.X1.T))
    for idx in range(len(w)):
        if w[idx] <= 1e-14:
            continue
        vec = U[:, idx]
        entries = []
        for a in range(p.m):
            terms = {}
            for u in range(N1):
                val = float(vec[a * N1 + u])
                if val != 0.0:
                    terms[p.basis1[u]] = ExtRational(Fraction(val))
            entries.append([Polynomial(p.n, terms)])
        mults.append(
            MultiplierTerm(ExtRational(Fraction(float(w[idx]))), PolyMatrix(entries))
        )
    return QMCertificate(p.n, 1, p.m, 2 * p.k, "numeric", [block], mults)


def certificate_target(p: SDPProblem, gamma: float) -> SymPolyMatrix:
    """The scalar matrix [f - gamma] the extracted certificate represents."""
    f = _poly_from_rhs(p)
    return SymPolyMatrix.scalar(f - ExtRational(Fraction(gamma)))

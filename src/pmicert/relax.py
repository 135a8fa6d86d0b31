"""Matrix SOS relaxation of polynomial optimization over a matrix constraint.

The order-k relaxation of min f(x) s.t. G(x) >= 0 maximizes gamma subject to
f - gamma lying in the degree-2k truncation of the quadratic module of G,
which is a block SDP: a Gram block for the SOS part over the monomials of
degree <= k and one PSD block of size m*N1 encoding sum_i v_i^T G v_i with
deg v_i <= k' (k' chosen so the products never exceed degree 2k).  The solver
alternates projections onto the affine coefficient-matching subspace and the
PSD cone product inside a bisection loop on gamma; gamma is a free scalar
riding on the constant-monomial constraint.  Everything is deterministic for
fixed inputs.
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
from .certify import MultiplierTerm, QMCertificate, SOSBlock, verify_certificate

MAX_TOTAL_BLOCK_SIZE = 200


class MaxIterationsError(Exception):
    def __init__(self, message, best_gamma=None, residual=None, best_iterate=None):
        super().__init__(message)
        self.best_gamma = best_gamma
        self.residual = residual
        self.best_iterate = best_iterate  # (X0, X1) of the last feasible probe


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
    sample_hint: float | None = None  # known upper bound on the optimum

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


def _dense_constraints(p: SDPProblem):
    N0 = len(p.basis0)
    M1 = p.m * len(p.basis1)
    ncons = p.constraint_count()
    A0 = np.zeros((ncons, N0, N0))
    A1 = np.zeros((ncons, M1, M1))
    for c in range(ncons):
        for (i, j), v in p.entries0[c].items():
            A0[c, i, j] = float(v)
            A0[c, j, i] = float(v)
        for (i, j), v in p.entries1[c].items():
            A1[c, i, j] = float(v)
            A1[c, j, i] = float(v)
    return A0, A1


def _psd_project(X: np.ndarray) -> np.ndarray:
    X = 0.5 * (X + X.T)
    w, U = np.linalg.eigh(X)
    w = np.clip(w, 0.0, None)
    return (U * w) @ U.T


class _Projector:
    """Shared state for repeated feasibility probes at varying gamma."""

    def __init__(self, p: SDPProblem):
        self.p = p
        self.A0, self.A1 = _dense_constraints(p)
        ncons = p.constraint_count()
        gram = np.zeros((ncons, ncons))
        for g in range(ncons):
            for h in range(g, ncons):
                val = float(np.sum(self.A0[g] * self.A0[h]) + np.sum(self.A1[g] * self.A1[h]))
                gram[g, h] = val
                gram[h, g] = val
        self.gram_pinv = np.linalg.pinv(gram)
        self.b_base = np.array([float(v) for v in p.rhs])
        N0 = len(p.basis0)
        M1 = p.m * len(p.basis1)
        self.X0 = np.zeros((N0, N0))
        self.X1 = np.zeros((M1, M1))
        self.shadow = (self.X0, self.X1)
        self.probe_gap = math.inf

    def _apply(self, X0, X1):
        return np.einsum("gij,ij->g", self.A0, X0) + np.einsum("gij,ij->g", self.A1, X1)

    def _affine_project(self, X0, X1, b):
        r = self._apply(X0, X1) - b
        mu = self.gram_pinv @ r
        return (
            X0 - np.einsum("g,gij->ij", mu, self.A0),
            X1 - np.einsum("g,gij->ij", mu, self.A1),
        )

    def probe(self, gamma: float, feas_tol: float, max_inner: int):
        """Douglas-Rachford feasibility probe between the affine subspace and
        the PSD cone product; returns (feasible, residual, iters).

        The iterate displacement converges to the gap between the two sets:
        it vanishes iff the probe is feasible, so stagnation at a positive
        displacement is an early infeasibility exit.
        """
        b = self.b_base.copy()
        b[self.p.const_index] -= gamma
        Z0, Z1 = self.X0, self.X1
        res = math.inf
        it = 0
        window = []
        for it in range(1, max_inner + 1):
            A0p, A1p = self._affine_project(Z0, Z1, b)
            B0 = _psd_project(2.0 * A0p - Z0)
            B1 = _psd_project(2.0 * A1p - Z1)
            D0 = B0 - A0p
            D1 = B1 - A1p
            Z0 = Z0 + D0
            Z1 = Z1 + D1
            res = math.sqrt(float(np.sum(D0 * D0) + np.sum(D1 * D1)))
            if res < feas_tol:
                break
            window.append(res)
            if len(window) > 60:
                window.pop(0)
                # displacement stagnating well above tolerance: infeasible
                if res > 50 * feas_tol and window[0] - res < 0.001 * res:
                    break
        self.X0, self.X1 = Z0, Z1  # warm start for the next probe
        A0p, A1p = self._affine_project(Z0, Z1, b)
        feasible = res < feas_tol
        self.probe_gap = res
        if feasible:
            self.shadow = (A0p, A1p)
        return feasible, res, it


def _sample_upper_bound(f: Polynomial, G: SymPolyMatrix) -> float | None:
    """min of f over sampled points of K, an upper bound on the SDP optimum."""
    n = f.nvars
    ticks = np.linspace(-1.0, 1.0, 9)
    pts = ticks[np.indices((9,) * n).reshape(n, 9**n).T]  # the 9^n grid, last axis fastest
    feasible = pts[min_eigenvalue_numeric(G.evaluate_float(pts)) >= -1e-9]
    if not len(feasible):
        return None
    return float(f.evaluate_float(feasible).min())


def solve_sdp(p: SDPProblem, tol: float = 1e-6, max_iter: int = 60000):
    """Maximize gamma by bisection over feasibility probes.

    Returns a RelaxResult whose gamma is within ~tol of the SDP optimum on
    desk-scale problems, or Infeasible when no gamma admits a representation.
    Raises MaxIterationsError when the iteration budget runs out mid-search.
    """
    if sum(p.block_sizes) > MAX_TOTAL_BLOCK_SIZE:
        raise ValueError(
            f"total block size {sum(p.block_sizes)} exceeds {MAX_TOTAL_BLOCK_SIZE}"
        )
    proj = _Projector(p)
    feas_tol = max(tol * 1e-2, 1e-10)
    budget = [max_iter]
    best = {"gamma": None, "X0": None, "X1": None, "res": math.inf}
    total_iters = [0]

    def probe(gamma: float) -> bool:
        inner = min(4000, budget[0])
        if inner <= 0:
            raise MaxIterationsError(
                f"iteration budget {max_iter} exhausted",
                best_gamma=best["gamma"],
                residual=best["res"],
                best_iterate=(best["X0"], best["X1"]),
            )
        ok, res, used = proj.probe(gamma, feas_tol, inner)
        budget[0] -= used
        total_iters[0] += used
        if ok:
            best.update(
                gamma=gamma,
                X0=proj.shadow[0].copy(),
                X1=proj.shadow[1].copy(),
                res=res,
            )
        return ok

    # upper start: any value strictly above the sampled minimum of f on K is
    # infeasible; fall back to a coefficient bound when sampling finds nothing
    scale = float(sum(abs(float(v)) for v in p.rhs)) + 1.0
    range_cap = 1e6 * scale
    hi = p.sample_hint
    if hi is None:
        hi = scale
    lo = hi
    step = 1.0
    while probe(hi):
        lo = hi
        hi += step
        step *= 2.0
        if hi > range_cap:
            raise SolverError("relaxation appears unbounded above")
    if lo == hi:
        # hi infeasible from the start: walk down until a feasible gamma appears
        found = False
        step = 1.0
        smallest_gap = math.inf
        while True:
            lo = hi - step
            if lo < -range_cap:
                break
            ok = probe(lo)
            smallest_gap = min(smallest_gap, proj.probe_gap)
            if ok:
                found = True
                break
            step *= 2.0
        if not found:
            return Infeasible(smallest_gap, lo, total_iters[0])
    # bisect (lo feasible, hi infeasible)
    while hi - lo > tol * 0.5:
        mid = 0.5 * (lo + hi)
        if probe(mid):
            lo = mid
        else:
            hi = mid
    margin = min(
        min_eigenvalue_numeric(best["X0"]), min_eigenvalue_numeric(best["X1"])
    )
    return RelaxResult(best["gamma"], best["X0"], best["X1"], best["res"], margin,
                       total_iters[0])


def _poly_from_rhs(p: SDPProblem) -> Polynomial:
    return Polynomial(p.n, {g: v for g, v in zip(p.monomials, p.rhs)})


def solve_relaxation(
    f: Polynomial, G: SymPolyMatrix, k: int, tol: float = 1e-6, max_iter: int = 60000
):
    """build_relaxation + solve_sdp with a sampled upper bound to anchor the
    bisection."""
    p = build_relaxation(f, G, k)
    hint = _sample_upper_bound(f, G)
    if hint is not None:
        p.sample_hint = hint + 0.5
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

"""Matrix SOS relaxation of polynomial optimization over a matrix constraint.

The order-k relaxation of min f(x) s.t. G(x) >= 0 maximizes gamma subject to
f - gamma lying in the degree-2k truncation of the quadratic module of G,
which is a block SDP: a Gram block for the SOS part over the monomials of
degree <= k and one PSD block of size m*N1 encoding sum_i v_i^T G v_i with
deg v_i <= k' (k' chosen so the products never exceed degree 2k).  One
Douglas-Rachford loop maximizes gamma directly: gamma is a variable of the
affine coefficient-matching set, riding on the constant-monomial constraint,
and the loop alternates projections onto that set and onto PSD x PSD x R,
with safeguarded Anderson acceleration of the fixed-point map.  It exits
optimal (small displacement, closed duality gap), infeasible or unbounded
(converged nonzero displacement with PSD Gram blocks, above the rounding
level of the data), or on the iteration budget; a displacement that
overflows, or converges within that rounding level, is a SolverError
naming the cause.  Everything is deterministic for fixed inputs.

The coefficient-matching data are index arrays per Gram block (constraint,
row, column, value).  The PSD projection reads the block layout of the
iterate: one stacked eigh per run of adjacent equal-size blocks, a clip for
1x1 blocks.  Each float it computes goes through the same operations in the
same order as a per-block projection, so iterates, evaluation counts and
every output are independent of how the blocks are grouped.  The loop calls
LAPACK's symmetric eigensolver and its linear solve as numpy's gufuncs
(_eigh, _solve1), the kernels np.linalg.eigh and np.linalg.solve wrap, on
the same arrays, so they return the same floats; one error state per solve
(_kernel_errors) makes a failed kernel raise np.linalg.LinAlgError, as
np.linalg does, and keeps floating-point warnings off stderr.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .ring import ExtRational, ZERO
from .algebra import (
    PolyMatrix,
    Polynomial,
    SymPolyMatrix,
    _parts_matrix,
    min_eigenvalue_numeric,
    monomials_upto,
    polynomial_from_parts,
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
    entries: list         # per Gram block: arrays (cons, row, col, val), see below
    rhs: list             # ExtRational coefficients of f per constraint
    const_index: int      # position of the constant monomial

    # entries[b] lists the nonzero upper-triangle slots of block b (row <=
    # col) sorted by (cons, row, col); val is the float of the exact sum of
    # the coefficients that slot carries in constraint cons.

    @property
    def block_sizes(self):
        return [len(self.basis0), self.m * len(self.basis1)]

    def constraint_count(self) -> int:
        return len(self.monomials)


def _index_arrays(slots: dict) -> tuple:
    """(cons, row, col, val) arrays of the nonzero {(cons, row, col): exact
    coefficient} slots, sorted by key."""
    keys = sorted(key for key, c in slots.items() if c)
    cons, row, col = np.array(keys, dtype=np.intp).reshape(-1, 3).T
    return cons, row, col, np.array([float(slots[key]) for key in keys])


def relaxation_size(f: Polynomial, G: SymPolyMatrix, k: int) -> tuple:
    """(k', block sizes [C(n + k, n), m C(n + k', n)]) of the order-k
    relaxation from the degrees alone, k' = k - ceil(deg G / 2).  ValueError
    when f and G do not share variables, 2k < deg f or k' < 0."""
    n = f.nvars
    if G.nvars != n:
        raise ValueError("objective and constraint must share variables")
    if 2 * k < f.degree:
        raise ValueError(f"2k = {2 * k} is below deg f = {f.degree}")
    d_G = max(G.degree, 0)
    kprime = k - (-(-d_G // 2))
    if kprime < 0:
        raise ValueError(f"relaxation order {k} too small for constraint degree {d_G}")
    return kprime, [math.comb(n + k, n), G.size * math.comb(n + kprime, n)]


def build_relaxation(f: Polynomial, G: SymPolyMatrix, k: int) -> SDPProblem:
    """Exact coefficient-matching data of the order-k relaxation."""
    n = f.nvars
    kprime, _ = relaxation_size(f, G, k)
    m = G.size
    # graded-lex order: each basis is a prefix of the order-2k monomials
    monomials = monomials_upto(n, 2 * k)
    basis0 = monomials[:math.comb(n + k, n)]
    basis1 = monomials[:math.comb(n + kprime, n)]
    index = {g: c for c, g in enumerate(monomials)}
    N0, N1 = len(basis0), len(basis1)

    slots0 = {}
    for u in range(N0):
        for v in range(u, N0):
            g = tuple(a + b for a, b in zip(basis0[u], basis0[v]))
            slots0[index[g], u, v] = 1

    slots1 = {}
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
                        key = (index[g], iu, iv)
                        slots1[key] = slots1[key] + coeff if key in slots1 else coeff

    terms = f.terms
    rhs = [terms.get(g, ZERO) for g in monomials]
    const_index = index[(0,) * n]
    return SDPProblem(
        n, k, kprime, m, basis0, basis1, monomials,
        [_index_arrays(slots0), _index_arrays(slots1)], rhs, const_index,
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
    sizes = p.block_sizes
    A = np.zeros((p.constraint_count(), sum(s * s for s in sizes) + 1))
    offset = 0
    for (cons, row, col, val), size in zip(p.entries, sizes):
        A[cons, offset + row * size + col] = val
        A[cons, offset + col * size + row] = val
        offset += size * size
    A[p.const_index, -1] = 1.0
    return A


# The LAPACK kernels behind np.linalg.eigh (UPLO='L') and np.linalg.solve with
# a 1-D right-hand side.  At the sizes of one evaluation the wrappers' type
# checks and errstate context cost more than the kernel itself, so the loop
# calls the gufuncs directly: same routines on the same arrays, so the same
# floats (tests/test_relax_reference.py pins this).  Called directly, a
# failed kernel returns NaN and raises numpy's "invalid" flag instead of
# LinAlgError; solve_sdp sets _kernel_errors() once per solve to turn that
# flag into the LinAlgError np.linalg raises.
_eigh = _umath_linalg.eigh_lo
_solve1 = _umath_linalg.solve1


def _raise_linalg_error(err: str, flag: int) -> None:
    raise np.linalg.LinAlgError(
        f"{err} in the relaxation solver: eigh or solve failed, or an iterate is not finite")


def _kernel_errors() -> np.errstate:
    """The floating-point error state of np.linalg's wrappers: an invalid
    value raises LinAlgError, overflow, division and underflow pass silently
    (solve_sdp tests the displacement for overflow itself)."""
    return np.errstate(call=_raise_linalg_error, invalid="call", over="ignore",
                       divide="ignore", under="ignore")


def _psd_project(X: np.ndarray) -> np.ndarray:
    X = 0.5 * (X + X.T)
    w, U = np.linalg.eigh(X)
    w = np.maximum(w, 0.0)
    return (U * w) @ U.T


def _block_views(v: np.ndarray, out: np.ndarray, sizes: list) -> list:
    """For each run of adjacent equal-size square blocks, whose vec forms lie
    in turn at the start of v and of out: the stacked (count, size, size)
    views of the run in v and in out, and for a run of blocks larger than
    1x1 the buffers _project_blocks writes into (the symmetrized blocks, the
    eigenvalues, the eigenvectors, the eigenvectors scaled by the clipped
    eigenvalues) with the transposed and broadcast views it reads."""
    views = []
    start = 0
    for size, group in itertools.groupby(sizes):
        count = len(list(group))
        stop = start + count * size * size
        X = v[start:stop].reshape(count, size, size)
        Y = out[start:stop].reshape(count, size, size)
        start = stop
        if size == 1:
            views.append((X, Y))
            continue
        S, U, UW = (np.empty((count, size, size)) for _ in range(3))
        w = np.empty((count, size))
        views.append((X, X.transpose(0, 2, 1), S, w, w[:, None, :], U,
                      U.transpose(0, 2, 1), UW, Y))
    return views


def _project_blocks(views: list) -> None:
    """PSD-project every block of the views of _block_views, with one eigh
    per run (a clip for 1x1 blocks).  Each block goes through the operations
    of _psd_project in the same order, so each target equals its
    _psd_project bit for bit."""
    for run in views:
        if len(run) == 2:
            X, Y = run
            np.maximum(X, 0.0, out=Y)
            continue
        X, XT, S, w, w_row, U, UT, UW, Y = run
        np.add(X, XT, out=S)
        np.multiply(S, 0.5, out=S)
        _eigh(S, out=(w, U))
        np.maximum(w, 0.0, out=w)
        np.multiply(U, w_row, out=UW)
        np.matmul(UW, UT, out=Y)


def _blocks_psd(v: np.ndarray, N0: int, M1: int, floor: float) -> bool:
    """Both Gram blocks of v have every eigenvalue >= floor."""
    s0 = N0 * N0
    return min(np.linalg.eigvalsh(v[:s0].reshape(N0, N0))[0],
               np.linalg.eigvalsh(v[s0:s0 + M1 * M1].reshape(M1, M1))[0]) >= floor


# Prox step of the objective -gamma: gamma moves up by STEP before each affine
# projection.  On ball and box instances with n <= 3, 3.0 had the smallest
# worst case of the values tried for the plain Douglas-Rachford loop (3,324
# iterations): 2.5 took 34,376 on one instance, 1.0 exceeded 60,000 on a box
# instance whose minimizer sits at a corner with a zero multiplier, and 10.0
# took 10,831 there.
STEP = 3.0

# Anderson acceleration of the fixed-point map z -> z + D (type II, as in
# SCS 3.x; Zhang, O'Donoghue & Boyd, SIAM J. Optim. 2020): the last AA_MEMORY
# secant pairs, Tikhonov weight AA_REG relative to the trace of the secant
# Gram matrix, and an accelerated point is kept only if its |D| is at most
# AA_SAFEGUARD times the |D| of the point it was extrapolated from.  Over the
# 11 relax benchmark jobs, 32 box instances at k = 2 and 28 ball and arrow
# instances, memory 12 took the fewest evaluations of the memories 3 to 20
# tried (10,762; 10 took 14,567 and 11 took 10,953); memory 3 exhausted the
# 60,000 budget on two box instances, and 4 to 6 took up to 28,368 on one.
AA_MEMORY = 12
AA_REG = 1e-10
AA_SAFEGUARD = 1.0


def check_solvable(block_sizes: list, tol: float, max_iter: int) -> None:
    """The ValueError of a run solve_sdp refuses before it starts: tol not
    finite and > 0, max_iter below 1, or blocks past MAX_TOTAL_BLOCK_SIZE."""
    if not (math.isfinite(tol) and tol > 0 and max_iter >= 1):
        raise ValueError(f"need a finite tol > 0 and max_iter >= 1, got {tol!r} and {max_iter!r}")
    if sum(block_sizes) > MAX_TOTAL_BLOCK_SIZE:
        raise ValueError(
            f"total block size {sum(block_sizes)} exceeds {MAX_TOTAL_BLOCK_SIZE}"
        )


def solve_sdp(p: SDPProblem, tol: float = 1e-6, max_iter: int = 60000):
    """Maximize gamma with one Douglas-Rachford loop, Anderson-accelerated.

    The variable is z = (vec X0, vec X1, gamma); each evaluation of the DR map
    projects z + STEP*e_gamma onto the affine coefficient-matching set (x,
    with multiplier mu) and 2x - z onto PSD x PSD x R (y), giving the
    displacement D = y - x.  The next z is the type-II Anderson point
    z + D - (dZ + dG) g over the last AA_MEMORY differences dZ of evaluated
    points and dG of their displacements, with g the regularized
    least-squares fit of D by dG.  The safeguard is checked on the next
    evaluation: if |D| there exceeds AA_SAFEGUARD times |D| at the point the
    step was taken from, the loop falls back to the plain DR point z + D of
    that base point, clears the history and evaluates again.  Every
    evaluation counts as one iteration.  Exits, each decided on the point
    evaluated last:

    - RelaxResult (the affine-side x) once |D| < feas_tol and gamma is within
      tol*max(1, |gamma|) of the dual value b.mu/STEP (mu/STEP is the moment
      vector);
    - once the displacements of two consecutive evaluations agree on a
      nonzero D (Banjac et al., JOTA 2019) whose Gram blocks are PSD to
      within sqrt(feas_tol)*|D|, as those of a limit displacement are,
      SolverError when D moves gamma (unbounded above), else Infeasible; but
      SolverError, naming the cause, when that |D| is within the rounding
      level of the data, which then decides neither;
    - SolverError as soon as |D| overflows;
    - MaxIterationsError when max_iter iterations end first, as they do on a
      weakly infeasible problem, which has no converged displacement.

    The Gram blocks are projected through _project_blocks, one eigh per run
    of adjacent equal-size blocks of z (both blocks at once when N0 = M1)
    and a clip for 1x1 blocks; the Anderson system is solved by LAPACK's
    gesv.  Both kernels are called as the gufuncs _eigh and _solve1, without
    np.linalg's wrappers, under one _kernel_errors() state for the loop, so a
    failed kernel raises np.linalg.LinAlgError as np.linalg does, and no
    floating-point warning is printed.  An evaluation writes its vectors,
    the projection and the Anderson history into buffers allocated once
    here.  Every float is computed by the same operations in the same order
    as with np.linalg and per-block projections into fresh arrays, so the
    iterates and the evaluation count are bit-identical to that form.
    """
    check_solvable(p.block_sizes, tol, max_iter)
    N0, M1 = p.block_sizes
    s0 = N0 * N0
    s1 = s0 + M1 * M1
    A = _constraint_matrix(p)
    gram_pinv = np.linalg.pinv(A @ A.T)
    b = np.array([float(v) for v in p.rhs])
    feas_tol = max(tol * 1e-2, 1e-10)
    dim = A.shape[1]
    # The rounding level of the data: each entry of the affine projection
    # sums terms over at most C = len(b) constraints on the scale of the
    # largest coefficient of f, so a sum's rounding error can reach
    # C * eps * max|b| (the usual bound for a recursive float sum; Higham,
    # Accuracy and Stability of Numerical Algorithms, 2002, section 3.1), and
    # |D| over dim entries sqrt(dim) times that.  A converged |D| at or below
    # it can be rounding alone: with f = 1e16 x + x^2 on [-1, 1] the loop
    # stalls on |D| = 2.0, one unit in the last place of 1e16.
    bmax = float(np.abs(b).max())
    rounding = len(b) * math.sqrt(dim) * math.ulp(1.0) * bmax
    # every vector of an evaluation lives in a buffer allocated here: w is
    # z + STEP*e_gamma, r the affine residual A w - b, y the PSD x PSD x R
    # projection of v
    z, w, x, v, y, D, D_prev, zD, last_zD, step = np.zeros((10, dim))
    blocks = _block_views(v, y, p.block_sizes)
    r, mu = np.zeros((2, len(b)))
    # ring buffers of the last AA_MEMORY differences of accepted evaluations:
    # of their plain DR images z + D (dZ + dG in the step), of their D, and
    # the Gram matrix of the latter
    dT = np.zeros((AA_MEMORY, dim))
    dG = np.zeros((AA_MEMORY, dim))
    GtG = np.zeros((AA_MEMORY, AA_MEMORY))
    # per history length h: views of the first h pairs and of their Gram
    # matrix, the identity, and the buffers of the Anderson system H g = rhs
    rhs, g = np.zeros((2, AA_MEMORY))
    history = [(GtG[:h, :h], np.eye(h), np.empty((h, h)), dG[:h], dT[:h], rhs[:h], g[:h])
               for h in range(AA_MEMORY + 1)]
    h = slot = 0
    # The last accepted evaluation, if any, is the previous one: its z + D
    # is last_zD and its D is D_prev.
    has_last = False
    fallback = None  # |D| at the point the pending Anderson step left
    with _kernel_errors():
        for it in range(1, max_iter + 1):
            D, D_prev = D_prev, D
            np.copyto(w, z)
            w[-1] += STEP
            np.matmul(A, w, out=r)
            r -= b
            np.matmul(gram_pinv, r, out=mu)
            np.matmul(mu, A, out=x)
            np.subtract(w, x, out=x)
            np.multiply(x, 2.0, out=v)
            v -= z
            _project_blocks(blocks)
            y[-1] = v[-1]
            np.subtract(y, x, out=D)
            res = math.sqrt(D @ D)
            if res == math.inf:
                raise SolverError(f"displacement overflowed at iteration {it}: coefficients "
                                  f"up to {bmax:.3g} are too large for the solver's floats")
            gamma = float(x[-1])
            if res < feas_tol and abs(float(b @ mu) / STEP - gamma) < tol * max(1.0, abs(gamma)):
                X0 = x[:s0].reshape(N0, N0)
                X1 = x[s0:s1].reshape(M1, M1)
                margin = min(min_eigenvalue_numeric(X0), min_eigenvalue_numeric(X1))
                return RelaxResult(gamma, X0, X1, res, margin, it)
            # D - D_prev goes straight into the history slot it fills if
            # this evaluation is accepted; a rejected one clears the history
            diff = None
            if it > 1 and res > feas_tol:
                diff = dG[slot]
                np.subtract(D, D_prev, out=diff)
                if (math.sqrt(diff @ diff) <= feas_tol * res
                        and _blocks_psd(D, N0, M1, -math.sqrt(feas_tol) * res)):
                    if res <= rounding:
                        raise SolverError(
                            f"displacement {res:.3g} converged within the rounding level "
                            f"{rounding:.3g} of coefficients up to {bmax:.3g}: neither "
                            "infeasibility nor unboundedness is decided")
                    if D[-1] > feas_tol:
                        raise SolverError("relaxation appears unbounded above")
                    return Infeasible(res, gamma, it)
            if fallback is not None and res > AA_SAFEGUARD * fallback:
                z, last_zD = last_zD, z
                h = slot = 0
                has_last, fallback = False, None
                continue
            np.add(z, D, out=zD)
            if has_last:
                np.subtract(zD, last_zD, out=dT[slot])
                if diff is None:
                    np.subtract(D, D_prev, out=dG[slot])
                h = min(h + 1, AA_MEMORY)
                GtG[slot, :h] = GtG[:h, slot] = dG[:h] @ dG[slot]
                slot = (slot + 1) % AA_MEMORY
            has_last = True
            zD, last_zD = last_zD, zD
            GtG_h, eye_h, H_h, dG_h, dT_h, rhs_h, g_h = history[h]
            trace = GtG_h.trace()
            if trace > 0.0:
                fallback = res
                np.multiply(AA_REG * trace, eye_h, out=H_h)
                np.add(GtG_h, H_h, out=H_h)
                np.matmul(dG_h, D, out=rhs_h)
                _solve1(H_h, rhs_h, out=g_h)
                np.matmul(g_h, dT_h, out=step)
                np.subtract(last_zD, step, out=z)
            else:
                fallback = None
                np.copyto(z, last_zD)
    raise MaxIterationsError(f"iteration budget {max_iter} exhausted")


def solve_relaxation(
    f: Polynomial, G: SymPolyMatrix, k: int, tol: float = 1e-6, max_iter: int = 60000
):
    """build_relaxation + solve_sdp, refused before the build."""
    check_solvable(relaxation_size(f, G, k)[1], tol, max_iter)
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
    X0 = _psd_project(result.X0).tolist()
    gram = _parts_matrix(N0, [(num, 0, den, 0) for i, row in enumerate(X0)
                              for num, den in map(float.as_integer_ratio, row[i:])])
    block = SOSBlock(list(p.basis0), gram)
    mults = []
    w, U = np.linalg.eigh(0.5 * (result.X1 + result.X1.T))
    for weight, vec in zip(w.tolist(), U.T.tolist()):
        if weight <= 1e-14:
            continue
        entries = []
        for a in range(p.m):
            terms = [(beta, v.as_integer_ratio()) for beta, v in zip(p.basis1, vec[a * N1:]) if v]
            entries.append([polynomial_from_parts(p.n, [beta for beta, _ in terms],
                                                  [(num, 0, den, 0) for _, (num, den) in terms])])
        mults.append(MultiplierTerm(ExtRational(weight), PolyMatrix(entries)))
    return QMCertificate(p.n, 1, p.m, 2 * p.k, "numeric", [block], mults)

"""The relaxation pipeline against reference implementations of its earlier
form: the per-constraint dict data of build_relaxation, the per-block PSD
projection, the allocating Douglas-Rachford loop and the Fraction-based
certificate extraction.  The current code computes the same floats in the
same order, so every comparison is exact."""

import math
import random
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from pmicert import relax
from pmicert.algebra import (PolyMatrix, Polynomial, RationalSymMatrix, SymPolyMatrix,
                             min_eigenvalue_numeric)
from pmicert.certify import MultiplierTerm, QMCertificate, SOSBlock, ball_constraint, serialize
from pmicert.problemio import load_problem
from pmicert.relax import (
    AA_MEMORY,
    AA_REG,
    AA_SAFEGUARD,
    STEP,
    Infeasible,
    MaxIterationsError,
    RelaxResult,
    SolverError,
    build_relaxation,
    extract_certificate,
    solve_sdp,
)
from pmicert.ring import ZERO, ExtRational
from pmicert.sdpa import to_sdpa_data

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


# -- reference implementations ----------------------------------------------

def ref_entries(f, G, k):
    """Per constraint, {(i, j) i <= j: ExtRational} on the SOS block and on
    the multiplier block."""
    p = build_relaxation(f, G, k)
    index = {g: c for c, g in enumerate(p.monomials)}
    basis0, basis1, m = p.basis0, p.basis1, p.m
    N0, N1 = len(basis0), len(basis1)
    entries0 = [dict() for _ in p.monomials]
    for u in range(N0):
        for v in range(u, N0):
            g = tuple(a + b for a, b in zip(basis0[u], basis0[v]))
            entries0[index[g]][(u, v)] = ExtRational(1)
    entries1 = [dict() for _ in p.monomials]
    for a in range(m):
        for b in range(m):
            for mono, coeff in G.entries[a][b].terms.items():
                for u in range(N1):
                    for v in range(N1):
                        iu, iv = a * N1 + u, b * N1 + v
                        if iu > iv:
                            continue
                        g = tuple(x + y + z for x, y, z in zip(basis1[u], basis1[v], mono))
                        row = entries1[index[g]]
                        row[(iu, iv)] = row.get((iu, iv), ZERO) + coeff
    for row in entries1:
        for key in [k_ for k_, v in row.items() if v.is_zero()]:
            del row[key]
    return p, entries0, entries1


def ref_constraint_matrix(p, entries0, entries1):
    N0, M1 = p.block_sizes
    A = np.zeros((p.constraint_count(), N0 * N0 + M1 * M1 + 1))
    for c, (row0, row1) in enumerate(zip(entries0, entries1)):
        for (i, j), v in row0.items():
            A[c, i * N0 + j] = A[c, j * N0 + i] = float(v)
        for (i, j), v in row1.items():
            A[c, N0 * N0 + i * M1 + j] = A[c, N0 * N0 + j * M1 + i] = float(v)
    A[p.const_index, -1] = 1.0
    return A


def ref_sdpa_entries(entries0, entries1):
    entries = []
    for c, (row0, row1) in enumerate(zip(entries0, entries1)):
        for (i, j) in sorted(row0):
            entries.append((c + 1, 1, i + 1, j + 1, float(row0[(i, j)])))
        for (i, j) in sorted(row1):
            entries.append((c + 1, 2, i + 1, j + 1, float(row1[(i, j)])))
    return entries


def ref_solve(p, tol=1e-6, max_iter=60000):
    """The DR loop with a fresh array for every intermediate vector."""
    N0, M1 = p.block_sizes
    s0, s1 = N0 * N0, N0 * N0 + M1 * M1
    A = relax._constraint_matrix(p)
    gram_pinv = np.linalg.pinv(A @ A.T)
    b = np.array([float(v) for v in p.rhs])
    feas_tol = max(tol * 1e-2, 1e-10)
    dim = A.shape[1]
    z = np.zeros(dim)
    dT = np.zeros((AA_MEMORY, dim))
    dG = np.zeros((AA_MEMORY, dim))
    GtG = np.zeros((AA_MEMORY, AA_MEMORY))
    h = slot = 0
    last = fallback = D_prev = None
    for it in range(1, max_iter + 1):
        w = z.copy()
        w[-1] += STEP
        mu = gram_pinv @ (A @ w - b)
        x = w - mu @ A
        v = 2.0 * x - z
        y = np.concatenate((
            relax._psd_project(v[:s0].reshape(N0, N0)).ravel(),
            relax._psd_project(v[s0:s1].reshape(M1, M1)).ravel(),
            v[-1:],
        ))
        D = y - x
        res = math.sqrt(D @ D)
        gamma = float(x[-1])
        if res < feas_tol and abs(float(b @ mu) / STEP - gamma) < tol * max(1.0, abs(gamma)):
            X0 = x[:s0].reshape(N0, N0)
            X1 = x[s0:s1].reshape(M1, M1)
            margin = min(min_eigenvalue_numeric(X0), min_eigenvalue_numeric(X1))
            return RelaxResult(gamma, X0, X1, res, margin, it)
        if (D_prev is not None and res > feas_tol
                and np.linalg.norm(D - D_prev) <= feas_tol * res
                and relax._blocks_psd(D, N0, M1, -math.sqrt(feas_tol) * res)):
            if D[-1] > feas_tol:
                raise SolverError("relaxation appears unbounded above")
            return Infeasible(res, gamma, it)
        D_prev = D
        if fallback is not None and res > AA_SAFEGUARD * fallback[1]:
            z, h, slot, last, fallback = fallback[0], 0, 0, None, None
            continue
        zD = z + D
        if last is not None:
            dT[slot] = zD - last[0]
            dG[slot] = D - last[1]
            h = min(h + 1, AA_MEMORY)
            GtG[slot, :h] = GtG[:h, slot] = dG[:h] @ dG[slot]
            slot = (slot + 1) % AA_MEMORY
        last = (zD, D)
        H = GtG[:h, :h].copy()
        trace = H.trace()
        if trace > 0.0:
            H.flat[::h + 1] += AA_REG * trace
            fallback = (zD, res)
            z = zD - np.linalg.solve(H, dG[:h] @ D) @ dT[:h]
        else:
            fallback = None
            z = zD
    raise MaxIterationsError(f"iteration budget {max_iter} exhausted")


def ref_extract(result, p):
    N0, N1 = len(p.basis0), len(p.basis1)
    X0 = relax._psd_project(result.X0)
    gram = [[ExtRational(Fraction(float(X0[i, j]))) for j in range(N0)] for i in range(N0)]
    for i in range(N0):
        for j in range(N0):
            gram[j][i] = gram[i][j]
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
        mults.append(MultiplierTerm(ExtRational(Fraction(float(w[idx]))), PolyMatrix(entries)))
    block = SOSBlock(list(p.basis0), RationalSymMatrix(gram))
    return QMCertificate(p.n, 1, p.m, 2 * p.k, "numeric", [block], mults)


# -- instances ----------------------------------------------------------------

def _var(i, n):
    return Polynomial.variable(n, i)


def _box(n):
    one = Polynomial.const(n, 1)
    return SymPolyMatrix([[one - _var(i, n) ** 2 if i == j else Polynomial.zero(n)
                           for j in range(n)] for i in range(n)])


def _arrow(n):
    """[[1, x^T], [x, I]]: PSD exactly on the unit ball."""
    one, zero = Polynomial.const(n, 1), Polynomial.zero(n)
    grid = [[one if a == b else zero for b in range(n + 1)] for a in range(n + 1)]
    for i in range(n):
        grid[0][i + 1] = grid[i + 1][0] = _var(i, n)
    return SymPolyMatrix(grid)


def _sample(name):
    prob = load_problem(str(SAMPLES / name))
    return prob.F[0, 0], prob.G


def _instances():
    x1, x2, x3 = (_var(i, 3) for i in range(3))
    y1, y2 = _var(0, 2), _var(1, 2)
    one2 = Polynomial.const(2, 1)
    return {
        "ball-n1-k1": (_var(0, 1), ball_constraint(1), 1),
        "ball-n3-k2": (x1 * x2 + x3 * x3 * x1 - x2, ball_constraint(3), 2),
        "box-n2-k2": (y1 * y1 + 2 * y1 + 3 * y2 * y2 + 6 * y2, _box(2), 2),
        "box-n3-k1": (x1 - 2 * x2 + x3, _box(3), 1),
        "arrow-n2-k1": (y1 - y2, _arrow(2), 1),
        "arrow-n2-k2": (y1 * y2 + y1, _arrow(2), 2),
        "matrix-2x2-k2": (y1 - 2 * y2 + y1 * y2,
                          SymPolyMatrix([[one2 - y1 * y1, y1 + y2], [y1 + y2, one2 - y2 * y2]]),
                          2),
        "sample-matrix-constraint-k1": (*_sample("matrix_constraint.pmi"), 1),
        "sample-matrix-constraint-k2": (*_sample("matrix_constraint.pmi"), 2),
    }


INSTANCES = _instances()


# -- tests --------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_index_arrays_match_dict_data(name):
    p, entries0, entries1 = ref_entries(*INSTANCES[name])
    assert np.array_equal(relax._constraint_matrix(p),
                          ref_constraint_matrix(p, entries0, entries1))
    assert to_sdpa_data(p).entries == ref_sdpa_entries(entries0, entries1)


def _layouts():
    fixed = [[1], [1, 1, 1], [2], [6, 6], [1, 1, 4, 4, 4, 1], [3, 5, 3], [8, 8, 7, 1, 8],
             [2, 1, 2, 1, 1]]
    rng = random.Random(20)
    drawn = []
    for _ in range(30):
        sizes = [rng.randint(1, 8)]
        for _ in range(rng.randint(0, 5)):
            sizes.append(sizes[-1] if rng.random() < 0.5 else rng.randint(1, 8))
        drawn.append(sizes)
    return [list(t) for t in dict.fromkeys(map(tuple, fixed + drawn))]


@pytest.mark.parametrize("sizes", _layouts(), ids=lambda s: "-".join(map(str, s)))
def test_block_projection_matches_per_block(sizes):
    rng = np.random.default_rng(sum(s * 10 ** i for i, s in enumerate(sizes)))
    v = rng.normal(size=sum(s * s for s in sizes) + 1)
    out = np.full_like(v, np.nan)
    relax._project_blocks(relax._block_views(v, out, sizes))
    expected, start = [], 0
    for s in sizes:
        expected.append(relax._psd_project(v[start:start + s * s].reshape(s, s)).ravel())
        start += s * s
    assert np.array_equal(out[:-1], np.concatenate(expected))
    assert np.isnan(out[-1])


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_solver_and_certificate_match_reference(name):
    f, G, k = INSTANCES[name]
    p = build_relaxation(f, G, k)
    r, ref = solve_sdp(p), ref_solve(p)
    assert isinstance(r, RelaxResult)
    assert (r.iterations, r.gamma, r.affine_residual, r.psd_margin) == (
        ref.iterations, ref.gamma, ref.affine_residual, ref.psd_margin)
    assert np.array_equal(r.X0, ref.X0) and np.array_equal(r.X1, ref.X1)
    assert serialize(extract_certificate(r, p)) == serialize(ref_extract(ref, p))


@pytest.mark.parametrize("G, outcome", [
    (SymPolyMatrix.scalar(Polynomial.zero(1)), Infeasible),
    (SymPolyMatrix.scalar(Polynomial.const(1, -1)), SolverError),
], ids=["infeasible", "unbounded"])
def test_solver_exits_match_reference(G, outcome):
    x = _var(0, 1)
    p = build_relaxation(-(x * x) if outcome is Infeasible else x, G, 1)
    if outcome is SolverError:
        with pytest.raises(SolverError):
            solve_sdp(p)
        with pytest.raises(SolverError):
            ref_solve(p)
        return
    r, ref = solve_sdp(p), ref_solve(p)
    assert (r.residual, r.gamma_probed, r.iterations) == (ref.residual, ref.gamma_probed,
                                                          ref.iterations)



# -- the LAPACK kernels the loop calls ----------------------------------------

def _with_zeros(rng, a):
    """a with about a quarter of its entries set to +0.0 and a quarter to -0.0."""
    draw = rng.random(a.shape)
    a[draw < 0.25] = 0.0
    a[(draw >= 0.25) & (draw < 0.5)] = -0.0
    return a


def _bits(*arrays):
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("size", range(2, 13))
def test_bound_eigh_matches_linalg(count, size):
    rng = np.random.default_rng(100 * count + size)
    X = _with_zeros(rng, rng.normal(size=(count, size, size)))
    upper = np.triu_indices(size, 1)
    X[:, upper[0], upper[1]] = X[:, upper[1], upper[0]]
    expected = _bits(*np.linalg.eigh(X))
    assert _bits(*relax._eigh(X)) == expected
    w, U = np.empty((count, size)), np.empty((count, size, size))
    relax._eigh(X, out=(w, U))
    assert _bits(w, U) == expected


@pytest.mark.parametrize("size", range(1, AA_MEMORY + 1))
def test_bound_solve_matches_linalg(size):
    rng = np.random.default_rng(size)
    M = rng.normal(size=(size, size))
    H = M @ M.T + AA_REG * np.trace(M @ M.T) * np.eye(size)
    rhs = _with_zeros(rng, rng.normal(size=size))
    expected = _bits(np.linalg.solve(H, rhs))
    assert _bits(relax._solve1(H, rhs)) == expected
    g = np.empty(size)
    relax._solve1(H, rhs, out=g)
    assert _bits(g) == expected


def test_failed_kernels_raise_linalg_error_without_warning():
    sizes = [3, 3, 1]
    v = np.zeros(sum(s * s for s in sizes) + 1)
    v[9:18] = np.nan
    views = relax._block_views(v, np.empty_like(v), sizes)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with relax._kernel_errors():
            with pytest.raises(np.linalg.LinAlgError):
                relax._project_blocks(views)
            with pytest.raises(np.linalg.LinAlgError):
                relax._solve1(np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones(2))
        # through the solver: NaN data reach the projection on the first
        # evaluation
        p = build_relaxation(*INSTANCES["box-n2-k2"][:2], 2)
        p.rhs = [math.nan] * len(p.rhs)
        with pytest.raises(np.linalg.LinAlgError):
            solve_sdp(p)

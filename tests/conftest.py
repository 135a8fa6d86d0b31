import random
import tempfile
from fractions import Fraction

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from pmicert.ring import ExtRational
from pmicert.algebra import PolyMatrix, Polynomial, SymPolyMatrix, monomials_upto

# property tests draw the same examples on every run and keep no example
# database; hypothesis's other cache (constants read from the source) goes to
# a temporary directory removed at exit instead of ./.hypothesis/
settings.register_profile("pmicert", derandomize=True, database=None, deadline=None)
settings.load_profile("pmicert")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="pmicert-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def random_poly(rng: random.Random, nvars: int, degree: int, span: int = 3) -> Polynomial:
    terms = {}
    for alpha in monomials_upto(nvars, degree):
        num = rng.randint(-span, span)
        if num:
            terms[alpha] = Fraction(num, rng.randint(1, 3))
    return Polynomial(nvars, terms)


def random_sym_matrix(rng: random.Random, size: int, nvars: int, degree: int) -> SymPolyMatrix:
    upper = {}
    for i in range(size):
        for j in range(i, size):
            upper[(i, j)] = random_poly(rng, nvars, degree)
    return SymPolyMatrix.from_upper(size, upper, nvars)


def random_homogeneous_poly(rng: random.Random, nvars: int, degree: int) -> Polynomial:
    terms = {}
    for alpha in monomials_upto(nvars, degree):
        if sum(alpha) != degree:
            continue
        num = rng.randint(-2, 2)
        if num:
            terms[alpha] = Fraction(num)
    if not terms:
        alpha = [0] * nvars
        alpha[rng.randrange(nvars)] = degree
        terms[tuple(alpha)] = Fraction(1)
    return Polynomial(nvars, terms)


def synthetic_sphere_certificate(rng: random.Random, G: SymPolyMatrix, ell: int, q: int = 0):
    """A valid sphere certificate with mixed-parity squares, multiplier pairs
    and a nonzero sphere multiplier, built so the certified matrix is exactly
    homogeneous.  Returns (problem, F_tilde, certificate)."""
    from pmicert.certify import MultiplierTerm, QMCertificate, gram_from_squares
    from pmicert.homogenize import HomogenizedProblem, lift_problem

    n = G.nvars
    N = n + 1
    lifted = lift_problem(SymPolyMatrix.zero(ell, n), G)
    G_hat = lifted.G_hat
    d_hat = lifted.d0 + lifted.d_G
    p = q + d_hat // 2
    d = 2 * p + 2

    A = [random_homogeneous_poly(rng, N, p) for _ in range(ell)]
    V = [random_homogeneous_poly(rng, N, p + 1) for _ in range(ell)]
    squares = [
        (ExtRational(1), [a + v for a, v in zip(A, V)]),
        (ExtRational(1), [a - v for a, v in zip(A, V)]),
    ]
    Am = PolyMatrix([[random_homogeneous_poly(rng, N, q) for _ in range(ell)]
                     for _ in range(G.size)])
    W = PolyMatrix([[random_homogeneous_poly(rng, N, q + 1) for _ in range(ell)]
                    for _ in range(G.size)])
    scale = ExtRational(Fraction(rng.randint(1, 3)))
    mults = [
        MultiplierTerm(scale, Am + W),
        MultiplierTerm(scale, Am - W),
    ]

    # sphere multiplier H = 2 A A^T + 2 scale Am^T G^ Am
    AAt = PolyMatrix([[A[i] * A[j] for j in range(ell)] for i in range(ell)])
    AmGAm = Am.transpose() @ G_hat @ Am
    H = SymPolyMatrix((AAt.scale(ExtRational(2)) + AmGAm.scale(scale * 2)).entries)

    norm2 = Polynomial.zero(N)
    for i in range(N):
        xi = Polynomial.variable(N, i)
        norm2 = norm2 + xi * xi
    VVt = PolyMatrix([[V[i] * V[j] for j in range(ell)] for i in range(ell)])
    WGW = W.transpose() @ G_hat @ W
    F_tilde = SymPolyMatrix(
        (VVt.scale(ExtRational(2)) + WGW.scale(scale * 2) + H.scale_poly(norm2)).entries
    )

    block = gram_from_squares(squares, N, ell)
    cert = QMCertificate(N, ell, G.size, d, "exact", [block], mults, H)
    F = F_tilde.dehomogenize()
    prob = HomogenizedProblem(
        F, G, F_tilde, lifted.G_tilde, G_hat, lifted.d0, n, d, lifted.d_G
    )
    return prob, F_tilde, cert


@pytest.fixture
def rng():
    return random.Random(20240811)


def shape_tables() -> list:
    """The per-shape tables that certify-simplex keeps for the life of the
    process (functools.lru_cache functions)."""
    from pmicert import bernstein, certify, cli

    return [certify.ball_polynomial, certify._facet_table, certify._basis_memberships,
            bernstein._conversion_tables, cli._bound_line]


@pytest.fixture
def cold_shape_tables():
    """The per-shape tables emptied before and after the test, so that a
    test that patches what fills them reads its patch and leaves no entry
    made from it behind."""
    for table in shape_tables():
        table.cache_clear()
    yield
    for table in shape_tables():
        table.cache_clear()

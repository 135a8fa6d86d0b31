"""Positivity certificates for polynomial matrix inequalities.

Exact scalarization of matrix inequalities with quadratic-module witnesses,
Bernstein/Polya positivity certificates on the scaled simplex, every
closed-form degree-bound formula as a calculator, homogenization machinery
for unbounded sets, a constructive simplex-to-membership certificate
pipeline with an exact verifier, and a matrix SOS relaxation with SDPA
export.
"""

from .ring import ExtRational, parse_ext_rational
from .algebra import (
    PolyMatrix,
    Polynomial,
    RationalSymMatrix,
    SymPolyMatrix,
    congruence,
    min_eigenvalue_numeric,
    parse_polynomial,
    psd_exact,
    scale_argument,
    scale_argument_matrix,
)
from .bernstein import (
    BernsteinExpansion,
    basis_poly,
    bernstein_norm,
    elevate,
    from_bernstein,
    parse_expansion,
    serialize_expansion,
    to_bernstein,
)
from .polya import (
    NotPositiveDefiniteOnSimplex,
    PolyaCertificate,
    advisory,
    parse_polya,
    polya_bound,
    polya_certificate,
    scherer_hol_step,
    serialize_polya,
)
from .scalarize import (
    ScalarizedSystem,
    charpoly_scalarization,
    equivalence_check,
    reduction_step,
    scalarize,
    scalarize_base2,
    verify_witness,
)
from .bounds import (
    BoundInputs,
    BoundReport,
    convergence_rate,
    eta_estimate,
    licq_bound,
    lojasiewicz_r,
    markov_gradient_bound,
    perturbation_bound,
    putinar_matrix_bound,
    putinar_scalar_bound,
    pv_bound,
    theta,
)
from .homogenize import (
    EmptyFeasibleSample,
    HomogenizedProblem,
    OddPartNonzero,
    dehomogenize_certificate,
    estimate_homogenized_min,
    lift_problem,
    perturb_for_nonneg,
)
from .certify import (
    QMCertificate,
    assemble_simplex_putinar,
    ball_constraint,
    ball_polynomial,
    deserialize,
    facet_certificate,
    serialize,
    trivial_ball_witness,
    verify_certificate,
)
from .relax import (
    Infeasible,
    RelaxResult,
    SDPProblem,
    build_relaxation,
    extract_certificate,
    hierarchy,
    solve_relaxation,
    solve_sdp,
)
from .sdpa import export_sdpa, parse_sdpa
from .problemio import ProblemData, dump_problem, load_problem, parse_problem

__version__ = "0.1.0"

"""Randomized flexible Krylov solvers for l2-lp regularized inverse problems.

Public surface: operators and problem generators, leverage-score row-sampling
sketches, smoothed-weight objectives, flexible Arnoldi/Golub-Kahan
factorizations, the IRN outer loops (plain and sketch-preconditioned), the
flexible solvers (sketch-and-solve, sketch-to-precondition, exact reference),
regularization-parameter rules, and a config-driven experiment CLI.
"""

from .baselines import fista_solve, krylov_baseline_solve
from .flex import (
    FlexSolverConfig,
    ProjectedProblem,
    check_monotonicity_condition,
    exact_flex_solve,
    s2p_flex_solve,
    sns_flex_solve,
    solve_projected_tikhonov,
)
from .irn import (
    IRNConfig,
    SolveResult,
    TraceRow,
    build_partly_exact_preconditioner,
    irn_s2p_solve,
    irn_solve,
)
from .krylov import (
    FlexibleFactorization,
    IterativeResult,
    gmres_solve,
    lsqr_solve,
)
from .operators import (
    CompositeOperator,
    Convolution2DOperator,
    DenseOperator,
    DiagonalOperator,
    DimensionMismatch,
    IdentityOperator,
    LinearOperator,
    RadonOperator,
    gaussian_kernel,
)
from .problems import (
    ProblemInstance,
    add_noise,
    gen_starfield_deblur,
    gen_subset_selection,
    gen_tomo,
    shepp_logan,
)
from .regparam import (
    LambdaPolicy,
    dp_select,
    optimal_select,
    projected_pair,
    select_lambda,
    svd_pair,
)
from .sketching import (
    SketchOperator,
    apply_sketch,
    apply_sketch_weighted,
    build_leverage_sketch,
    commute_diagonal,
    estimate_leverage_scores,
    identity_sketch,
    measure_distortion,
    span_distortion,
)
from .weights import (
    ObjectiveSpec,
    WeightSpec,
    compute_weights,
    majorant_constant,
    majorant_value,
    objective_value,
    objective_values,
    sketched_majorant_value,
    smoothed_penalty,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

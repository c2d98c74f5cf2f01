"""Matrix-free randomized iterative linear solvers.

Randomized Kaczmarz (row actions), randomized coordinate descent
(column actions), their ridge extensions, and a Kaczmarz-style kernel
ridge solver that never forms the gram matrix, together with a
closed-form oracle used to verify every convergence claim at desk
scale.
"""

from .errors import (
    DegenerateMatrix,
    DegenerateWeights,
    DimensionError,
    GenerationFailure,
    NegativeWeight,
    NotPositiveDefinite,
    NotSymmetric,
    OracleInconsistency,
    RanditerError,
    ZeroNormColumn,
    ZeroNormRow,
)
from .kernel import KernelSpec, KrrState, krr_predict, krr_run, krr_step
from .linalg import (
    col_norms_sq,
    dense_matrix,
    dense_vector,
    frobenius_sq,
    row_norms_sq,
    solve_spd,
    sym_eigh,
    sym_eigs,
)
from .oracle import (
    RegimeInstance,
    gen_consistent,
    gen_inconsistent,
    gen_underdetermined,
    krr_alpha_star,
    ls_solution,
    min_norm_solution,
    ridge_solution,
    theoretical_rate,
)
from .ridge import (
    RcdRidgeState,
    RidgeState,
    rcd_ridge_run,
    rcd_ridge_step,
    rk_ridge_run,
    rk_ridge_step,
)
from .sampling import RngState, WeightedSampler, build_sampler
from .solvers import (
    ConvergenceTrace,
    Method,
    Problem,
    Regime,
    RunConfig,
    SolverState,
    TraceRecord,
    rcd_step,
    rk_step,
    run,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

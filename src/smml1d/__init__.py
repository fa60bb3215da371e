"""Strict minimum message length estimators for 1-dimensional data.

Computes the optimal cut-points, coding probabilities and assertions of the
exact two-part code for a 1-dimensional exponential family under a conjugate
prior, by Newton's method on the cut-point stationarity equations with
log-domain quadrature that keeps working far past double-precision underflow.
"""

from .families import (
    FamilyModel,
    MarginalModel,
    ParameterError,
    SupportError,
    make_exponential_gamma,
    make_normal_normal,
    mu_inverse_numeric,
)
from .quadrature import (
    IntervalIntegrals,
    density_mass_ratio,
    differential_entropy,
    interval_integrals,
)
from .estimator import (
    LOCAL_MINIMUM,
    NOT_CRITICAL,
    SADDLE,
    CodeBook,
    CurveTable,
    CutPointVector,
    SolveReport,
    SolverOptions,
    Tridiagonal,
    classify_critical_point,
    codebook_from_cutpoints,
    continuity_gaps,
    curve_samples,
    gradient,
    jacobian,
    marginal_entropy,
    message_length,
    multi_start_solve,
    newton_solve,
    solve_sweep,
)
from .checks import DEFAULT_SEED

__version__ = "0.1.0"

__all__ = [
    "FamilyModel",
    "MarginalModel",
    "ParameterError",
    "SupportError",
    "make_exponential_gamma",
    "make_normal_normal",
    "mu_inverse_numeric",
    "IntervalIntegrals",
    "density_mass_ratio",
    "differential_entropy",
    "interval_integrals",
    "DEFAULT_SEED",
    "LOCAL_MINIMUM",
    "NOT_CRITICAL",
    "SADDLE",
    "CodeBook",
    "CurveTable",
    "CutPointVector",
    "SolveReport",
    "SolverOptions",
    "Tridiagonal",
    "classify_critical_point",
    "codebook_from_cutpoints",
    "continuity_gaps",
    "curve_samples",
    "gradient",
    "jacobian",
    "marginal_entropy",
    "message_length",
    "multi_start_solve",
    "newton_solve",
    "solve_sweep",
    "__version__",
]

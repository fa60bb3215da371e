"""Strict minimum message length estimators for 1-dimensional data.

Computes the optimal cut-points, coding probabilities and assertions of the
exact two-part code for a 1-dimensional exponential family under a conjugate
prior, by Newton's method on the cut-point stationarity equations with
log-domain quadrature that keeps working far past double-precision underflow.
The public names are those each module lists in its ``__all__``.
"""

from . import estimator, families, quadrature
from .checks import DEFAULT_SEED
from .estimator import *  # noqa: F403
from .families import *  # noqa: F403
from .quadrature import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*families.__all__, *quadrature.__all__, *estimator.__all__, "DEFAULT_SEED",
           "__version__"]

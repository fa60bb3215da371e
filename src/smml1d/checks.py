"""Oracles shared by ``smml1d verify`` and the tests.

The length has slope ``r(a_j) * G_j`` in cut ``a_j``, and G has a
tridiagonal Jacobian; callers compare both with the centred quotients here,
on cuts from :func:`separated_cuts`, at their own seeds and tolerances.
G_j itself is the jump of the log code density across ``a_j``, which
:func:`log_code_jumps` reads off the sampled curves without calling
:func:`~smml1d.estimator.gradient`.  Each oracle imports numpy at its
first call, so importing this module (as ``smml1d`` does) loads none.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .estimator import codebook_from_cutpoints, curve_samples, gradient, message_length

if TYPE_CHECKING:
    import numpy as np

# Seed of the random configurations `smml1d verify` draws; the solver is not random.
DEFAULT_SEED = 1729


def separated_cuts(marginal, rng: np.random.Generator, fewest: int, most: int | None = None):
    """Cuts at sorted uniform quantile levels in (0.08, 0.92), fewest..most
    of them (fewest when most is None), redrawn (at most 100 times) until
    neighbours are more than min(0.05, span/40) apart, where span is the
    range between those two quantiles: a narrow marginal cannot fit cuts
    0.05 apart."""
    import numpy as np
    gap = min(0.05, _span(marginal) / 40)
    for _ in range(100):
        n = int(rng.integers(fewest, (most or fewest) + 1))
        cuts = np.array([marginal.quantile(p) for p in np.sort(rng.uniform(0.08, 0.92, n))])
        if np.all(np.diff(cuts) > gap):
            return cuts
    raise ArithmeticError("could not draw separated random cut-points")


def _span(marginal) -> float:
    """Range between the marginal's 0.08 and 0.92 quantiles."""
    return marginal.quantile(0.92) - marginal.quantile(0.08)


def fd_step(marginal) -> float:
    """Step of the difference quotients: 1e-5 times the power of ten at or
    below the marginal's quantile span.  An absolute step is too coarse for a
    Lomax of scale 1e-3 and drowns in rounding at scale 1e6; rounding the span
    down to its decade keeps the step at 1e-5 for every span in [1, 10),
    which holds both default models of `smml1d verify`."""
    return 1e-5 * 10.0 ** math.floor(math.log10(_span(marginal)))


def _centred(fn, cuts: np.ndarray, h: float) -> np.ndarray:
    """Row k is (fn(cuts + h e_k) - fn(cuts - h e_k)) / 2h."""
    import numpy as np
    steps = h * np.eye(cuts.size)
    return np.array([(fn(cuts + e) - fn(cuts - e)) / (2 * h) for e in steps])


def length_fd(family, marginal, cuts: np.ndarray) -> np.ndarray:
    """Centred-difference quotient of the expected length in each cut, with
    the step :func:`fd_step`."""
    def length(a):
        return message_length(family, marginal, codebook_from_cutpoints(family, marginal, a))
    return _centred(length, cuts, fd_step(marginal))


def gradient_fd(family, marginal, cuts: np.ndarray) -> np.ndarray:
    """Centred-difference quotient of G, with the step :func:`fd_step`;
    entry [j, k] approximates dG_j/da_k."""
    def residual(a):
        return gradient(family, marginal, codebook_from_cutpoints(family, marginal, a))
    return _centred(residual, cuts, fd_step(marginal)).T


def log_code_jumps(family, marginal, book) -> np.ndarray:
    """Jump of the log two-part code density across each cut: ``-two_part /
    density`` of :func:`~smml1d.estimator.curve_samples` at the cut minus
    that at the next double below it.  It is the oracle of
    :func:`~smml1d.estimator.gradient`: the log carrier is continuous, so
    |G_j| is the size of this jump."""
    import numpy as np
    jumps = []
    for a in book.cuts:
        table = curve_samples(family, marginal, book, np.nextafter(a, -np.inf), a, 2)
        below, above = -table.two_part / table.density
        jumps.append(above - below)
    return np.array(jumps)

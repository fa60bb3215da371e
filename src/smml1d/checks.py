"""Oracles shared by ``smml1d verify`` and the tests.

The length has slope ``r(a_j) * G_j`` in cut ``a_j``, and G has a
tridiagonal Jacobian; callers compare both with the centred quotients here,
on cuts from :func:`separated_cuts`, at their own seeds and tolerances.
G_j itself is the jump of the log code density across ``a_j``, which
:func:`log_code_jumps` reads off the sampled curves without calling
:func:`~smml1d.estimator.gradient`.
"""

from __future__ import annotations

import numpy as np

from .estimator import codebook_from_cutpoints, curve_samples, gradient, message_length

# Seed of the random configurations `smml1d verify` draws; the solver is not random.
DEFAULT_SEED = 1729


def separated_cuts(marginal, rng: np.random.Generator, n_min: int, n_max: int | None = None):
    """Cuts at sorted uniform quantile levels in (0.08, 0.92), n_min..n_max
    of them, redrawn (at most 100 times) until neighbours are 0.05 apart."""
    for _ in range(100):
        n = int(rng.integers(n_min, (n_max or n_min) + 1))
        cuts = np.array([marginal.quantile(p) for p in np.sort(rng.uniform(0.08, 0.92, n))])
        if np.all(np.diff(cuts) > 0.05):
            return cuts
    raise ArithmeticError("could not draw separated random cut-points")


def _centred(fn, cuts: np.ndarray, h: float) -> np.ndarray:
    """Row k is (fn(cuts + h e_k) - fn(cuts - h e_k)) / 2h."""
    steps = h * np.eye(cuts.size)
    return np.array([(fn(cuts + e) - fn(cuts - e)) / (2 * h) for e in steps])


def length_fd(family, marginal, cuts: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Centred-difference quotient of the expected length in each cut."""
    def length(a):
        return message_length(family, marginal, codebook_from_cutpoints(family, marginal, a))
    return _centred(length, cuts, h)


def gradient_fd(family, marginal, cuts: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Centred-difference quotient of G; entry [j, k] approximates dG_j/da_k."""
    def residual(a):
        return gradient(family, marginal, codebook_from_cutpoints(family, marginal, a))
    return _centred(residual, cuts, h).T


def log_code_jumps(family, marginal, book) -> np.ndarray:
    """Jump of the log two-part code density across each cut: ``-two_part /
    density`` of :func:`~smml1d.estimator.curve_samples` at the cut minus
    that at the next double below it."""
    jumps = []
    for a in book.cuts.points:
        table = curve_samples(family, marginal, book, np.nextafter(a, -np.inf), a, 2)
        below, above = -table.two_part / table.density
        jumps.append(above - below)
    return np.array(jumps)

"""Exponential-family models and their closed-form Bayes marginals.

The data density is ``f(x | t) = exp(x*t - log_partition(t)) * carrier(x)``
on an open support interval, with natural parameter ``t`` ranging over an
open parameter interval.  A conjugate prior induces a marginal density ``r``
over the data; the pair (:class:`FamilyModel`, :class:`MarginalModel`) is
everything the cut-point machinery needs.  The family supplies the
log-partition function and the mean/variance maps, the marginal supplies
``log r``, its CDF and its quantile function.

Two built-in pairs:

    make_normal_normal(alpha)
        N(t, 1) data with a N(0, alpha^2) prior on the mean; the marginal is
        N(0, 1 + alpha^2).
    make_exponential_gamma(alpha, beta)
        Exponential data (rate -t) with a Gamma(alpha, beta) prior on the
        rate; the marginal is Lomax.

Both built-in marginals give the mass and centroid of an interval exactly to
rounding (see :attr:`MarginalModel.closed_form`): from closed forms written
so that they keep full precision in the far tails, and, on intervals too
narrow for those, where a subtraction would cancel, from a fixed
Gauss-Legendre rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import erfcx, ndtr, ndtri

__all__ = [
    "FamilyModel",
    "MarginalModel",
    "ParameterError",
    "SupportError",
    "make_normal_normal",
    "make_exponential_gamma",
    "mu_inverse_numeric",
]

_LOG_2PI = math.log(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)
_SQRT_HALF_PI = math.sqrt(0.5 * math.pi)

# A closed form is used only when none of its subtractions leaves less than
# 1/_MAX_CANCELLATION of its operand, i.e. loses more than three bits.  The
# narrow intervals where one would go instead to a 12-point Gauss-Legendre
# rule in coordinates offset from the interval's end, where every term is
# positive.  That rule is exact to rounding for both marginals while the log
# density changes by at most _NARROW_LOG_SPAN across the interval (checked
# against 40-digit quadrature at that edge); the closed forms decline only
# where it changes by about 0.6 or less.
_MAX_CANCELLATION = 8.0
_NARROW_LOG_SPAN = 1.0
# Positive nodes and their weights of the 12-point rule on [-1, 1], rounded
# from 40 digits.  Tabulated because computing them at import starts numpy's
# eigen-solver, which costs about 0.9 MB of resident memory.
_GL_X = np.array([0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
                  0.7699026741943047, 0.9041172563704749, 0.9815606342467192])
_GL_W = np.array([0.24914704581340277, 0.2334925365383548, 0.20316742672306592,
                  0.16007832854334622, 0.10693932599531843, 0.04717533638651183])
_GL_NODES = 0.5 * (1.0 + np.concatenate([-_GL_X[::-1], _GL_X]))  # on [0, 1]
_GL_WEIGHTS = 0.5 * np.concatenate([_GL_W[::-1], _GL_W])


class ParameterError(ValueError):
    """A model hyper-parameter lies outside its admissible range."""


class SupportError(ValueError):
    """A point lies outside the data support, parameter space, or map image."""


@dataclass(frozen=True)
class FamilyModel:
    """A 1-dimensional exponential family in natural parametrization.

    ``log_carrier`` must accept numpy arrays; the remaining callables are
    scalar maps.  ``mean`` is the derivative of ``log_partition`` (it sends a
    natural parameter to the corresponding expectation parameter) and
    ``variance`` is the derivative of ``mean``, strictly positive on the whole
    parameter interval.
    """

    support_lo: float
    support_hi: float
    param_lo: float
    param_hi: float
    log_partition: Callable[[float], float]
    log_carrier: Callable[[np.ndarray], np.ndarray]
    mean: Callable[[float], float]
    variance: Callable[[float], float]
    mean_inverse: Callable[[float], float] | None = None

    def invert_mean(self, m: float) -> float:
        """Map an expectation value back to its natural parameter."""
        if self.mean_inverse is not None:
            return self.mean_inverse(m)
        return mu_inverse_numeric(self, m)


@dataclass(frozen=True)
class MarginalModel:
    """Marginal distribution of the data after integrating out the prior.

    ``log_pdf`` must accept numpy arrays; ``cdf`` and ``quantile`` are scalar
    maps.  ``mode`` is the maximizer of the density over the closed support
    (it anchors the scaled quadrature).  The density is strictly positive on
    the open support and has a finite first moment; the constructors below
    enforce the parameter ranges that guarantee this.

    ``closed_form``, when given, maps an interval ``(lo, hi)`` inside the
    support (either end may be infinite) to its ``(log_mass, centroid)``
    exact to rounding, or to ``None`` where it cannot vouch for that;
    :func:`smml1d.quadrature.interval_integrals` integrates adaptively
    whenever it is absent or declines.
    """

    log_pdf: Callable[[np.ndarray], np.ndarray]
    cdf: Callable[[float], float]
    quantile: Callable[[float], float]
    mode: float
    support_lo: float
    support_hi: float
    prior_params: tuple[float, ...]
    name: str
    closed_form: Callable[[float, float], tuple[float, float] | None] | None = None

    def pdf(self, x):
        return np.exp(self.log_pdf(x))


def make_normal_normal(alpha: float) -> tuple[FamilyModel, MarginalModel]:
    """Normal data with unit variance and a centered normal prior on the mean.

    ``alpha`` is the prior standard deviation.  The marginal is normal with
    mean 0 and standard deviation sqrt(1 + alpha^2).
    """
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ParameterError(f"alpha must be a positive real, got {alpha!r}")
    beta = math.hypot(1.0, alpha)
    log_norm = math.log(beta) + 0.5 * _LOG_2PI

    family = FamilyModel(
        support_lo=-math.inf,
        support_hi=math.inf,
        param_lo=-math.inf,
        param_hi=math.inf,
        log_partition=lambda t: 0.5 * t * t,
        log_carrier=lambda x: -0.5 * np.asarray(x, dtype=float) ** 2 - 0.5 * _LOG_2PI,
        mean=lambda t: t,
        variance=lambda t: 1.0,
        mean_inverse=lambda m: m,
    )

    def log_pdf(x):
        x = np.asarray(x, dtype=float)
        return -0.5 * (x / beta) ** 2 - log_norm

    def quantile(p: float) -> float:
        if not 0.0 < p < 1.0:
            raise SupportError(f"quantile needs 0 < p < 1, got {p!r}")
        return beta * float(ndtri(p))

    marginal = MarginalModel(
        log_pdf=log_pdf,
        cdf=lambda x: float(ndtr(x / beta)),
        quantile=quantile,
        mode=0.0,
        support_lo=-math.inf,
        support_hi=math.inf,
        prior_params=(alpha,),
        name="normal-normal",
        closed_form=lambda lo, hi: _normal_interval(beta, lo, hi),
    )
    return family, marginal


def make_exponential_gamma(alpha: float, beta: float) -> tuple[FamilyModel, MarginalModel]:
    """Exponential data with a gamma prior on the rate.

    The prior has shape ``alpha`` and rate ``beta``; the marginal is Lomax
    with density ``(alpha/beta) * (1 + x/beta)^(-alpha-1)`` on (0, inf).
    ``alpha`` must exceed 1 so the marginal has a finite mean, without which
    the expected code length of the estimator diverges.
    """
    alpha = float(alpha)
    beta = float(beta)
    if not (math.isfinite(alpha) and alpha > 1.0):
        raise ParameterError(
            f"alpha must exceed 1 (the marginal needs a finite mean), got {alpha!r}"
        )
    if not (math.isfinite(beta) and beta > 0.0):
        raise ParameterError(f"beta must be a positive real, got {beta!r}")
    log_ab = math.log(alpha / beta)

    def _mean_inverse(m: float) -> float:
        if not m > 0.0:
            raise SupportError(f"mean values are positive, got {m!r}")
        return -1.0 / m

    family = FamilyModel(
        support_lo=0.0,
        support_hi=math.inf,
        param_lo=-math.inf,
        param_hi=0.0,
        log_partition=lambda t: -math.log(-t),
        log_carrier=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        mean=lambda t: -1.0 / t,
        variance=lambda t: 1.0 / (t * t),
        mean_inverse=_mean_inverse,
    )

    def log_pdf(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = log_ab - (alpha + 1.0) * np.log1p(x / beta)
        return np.where(x >= 0.0, out, -np.inf)

    def cdf(x: float) -> float:
        if x <= 0.0:
            return 0.0
        return -math.expm1(-alpha * math.log1p(x / beta))

    def quantile(p: float) -> float:
        if not 0.0 < p < 1.0:
            raise SupportError(f"quantile needs 0 < p < 1, got {p!r}")
        return beta * math.expm1(-math.log1p(-p) / alpha)

    marginal = MarginalModel(
        log_pdf=log_pdf,
        cdf=cdf,
        quantile=quantile,
        mode=0.0,
        support_lo=0.0,
        support_hi=math.inf,
        prior_params=(alpha, beta),
        name="exponential-gamma",
        closed_form=lambda lo, hi: _lomax_interval(alpha, beta, lo, hi),
    )
    return family, marginal


def _cancellation(operand: float, difference: float) -> float:
    """How many times the computed difference falls short of its operand."""
    return operand / difference if difference > 0.0 else math.inf


def _narrow(
    width: float, log_ratio: Callable[[np.ndarray], np.ndarray]
) -> tuple[float, float]:
    """Integral of exp(log_ratio(t)) over (0, width), and the mean of t.

    ``log_ratio`` is the log density relative to the interval's end; see
    ``_NARROW_LOG_SPAN`` for where the fixed rule is exact.
    """
    t = width * _GL_NODES
    f = _GL_WEIGHTS * np.exp(log_ratio(t))
    total = float(f.sum())
    return width * total, float(t @ f) / total


# R and h are pure functions of the standardised interval end.  A cut ends two
# intervals, and the insertion scan keeps one end fixed over a whole scan, so
# three in five of the ends the n <= 16 sweep of Table 1 forms are repeats;
# the bounded memos answer those without erfcx or the continued fraction.
@lru_cache(maxsize=256)
def _mills(z: float) -> float:
    """Mills ratio R(z) = Q(z) / phi(z) of the standard normal."""
    return _SQRT_HALF_PI * float(erfcx(z / _SQRT2))


@lru_cache(maxsize=256)
def _mills_complement(z: float) -> float:
    """h(z) = 1 - z R(z) for z >= 0."""
    r = _mills(z)
    if z < 2.0:
        return 1.0 - z * r
    # 1 - z R(z) ~ 1/z^2 cancels; Laplace's continued fraction
    # R(z) = 1/(z + 1/(z + 2/(z + ...))) gives h = R / (z + 2/(z + 3/(z + ...))),
    # which this depth resolves to the last bit for z >= 2.
    t = z
    for k in range(16 + int(640.0 / (z * z)), 1, -1):
        t = z + k / t
    return r / t


def _normal_tail(a: float, w: float, s: float) -> tuple[float, float] | None:
    """Standard-normal log mass of (a, a + w), a >= 0, and its mean minus a.

    ``s`` is 2a + w; callers form ``w`` and ``s`` from the interval ends
    directly, so neither carries the cancellation of b - a.
    """
    r_a = _mills(a)
    log_phi_a = -0.5 * a * a - 0.5 * _LOG_2PI
    if w == math.inf:
        return log_phi_a + math.log(r_a), _mills_complement(a) / r_a
    b = a + w
    r_b = _mills(b)
    arg = 0.5 * w * s                       # (b^2 - a^2) / 2
    rho = math.exp(-arg)                    # phi(b) / phi(a)
    # mass / phi(a), from the central masses (erf) or the upper tails (erfcx)
    erf_b = math.erf(b / _SQRT2)
    central = 0.5 * (erf_b - math.erf(a / _SQRT2))
    central_cancel = _cancellation(0.5 * erf_b, central)
    tails = r_a - rho * r_b
    tails_cancel = _cancellation(r_a, tails)
    if min(central_cancel, tails_cancel) <= _MAX_CANCELLATION:
        if central_cancel < tails_cancel:
            log_mass = math.log(central)
            scaled = math.exp(log_mass - log_phi_a)
        else:
            log_mass = log_phi_a + math.log(tails)
            scaled = tails
        # (first moment about a) / phi(a) = 1 - rho - a * mass / phi(a); in
        # the tails the same quantity is h(a) - rho (h(b) + w R(b)), which
        # does not cancel against a * R(a)
        one_minus_rho = -math.expm1(-arg)
        direct = one_minus_rho - a * scaled
        direct_cancel = _cancellation(one_minus_rho, direct)
        h_a = _mills_complement(a)
        via_h = h_a - rho * (_mills_complement(b) + w * r_b)
        via_h_cancel = _cancellation(h_a, via_h)
        if min(direct_cancel, via_h_cancel) <= _MAX_CANCELLATION:
            return log_mass, (direct if direct_cancel < via_h_cancel else via_h) / scaled
    # narrow: log phi(a + t) - log phi(a) = -t (2a + t) / 2 spans arg
    if not 0.0 < arg <= _NARROW_LOG_SPAN:
        return None
    scaled, offset = _narrow(w, lambda t: -0.5 * t * (2.0 * a + t))
    return log_phi_a + math.log(scaled), offset


def _normal_interval(sigma: float, lo: float, hi: float) -> tuple[float, float] | None:
    """Log mass and centroid of N(0, sigma^2) over (lo, hi)."""
    if lo < 0.0 < hi:
        # the erf terms have opposite signs and phi(a) - phi(b) goes through
        # expm1, so nothing cancels
        a, b = lo / sigma, hi / sigma
        mass = 0.5 * (math.erf(b / _SQRT2) - math.erf(a / _SQRT2))
        if not mass > 0.0:  # a subnormal interval: the erf sum underflows
            return None
        if hi == -lo:
            return math.log(mass), 0.0
        # phi(a) - phi(b), factored at the end nearer the mode
        gap = 0.5 * (hi + lo) * (hi - lo) / (sigma * sigma)   # (b^2 - a^2) / 2
        near = a if gap > 0.0 else b
        first = math.exp(-0.5 * near * near - 0.5 * _LOG_2PI) * -math.expm1(-abs(gap))
        return math.log(mass), math.copysign(sigma * first / mass, gap)
    # one-sided: work on the right of the mode, mirroring the left side
    near, side = (hi, -1.0) if hi <= 0.0 else (lo, 1.0)
    got = _normal_tail(side * near / sigma, (hi - lo) / sigma, side * (lo + hi) / sigma)
    return None if got is None else (got[0], near + side * sigma * got[1])


def _lomax_interval(
    alpha: float, beta: float, lo: float, hi: float
) -> tuple[float, float] | None:
    """Log mass and centroid of the Lomax(alpha, beta) marginal over (lo, hi).

    With S(x) = (1 + x/beta)^-alpha, the mass is S(lo) (1 - e^-u) for
    u = alpha log((beta + hi)/(beta + lo)), and the first moment about lo is
    the integral of S over (lo, hi) minus (hi - lo) S(hi).
    """
    scale = beta + lo
    log_tail = -alpha * math.log1p(lo / beta)
    if hi == math.inf:
        return log_tail, lo + scale / (alpha - 1.0)
    log_ratio = math.log1p((hi - lo) / scale)
    u = alpha * log_ratio
    whole = scale / (alpha - 1.0) * -math.expm1(-(alpha - 1.0) * log_ratio)
    moment = whole - (hi - lo) * math.exp(-u)
    if _cancellation(whole, moment) <= _MAX_CANCELLATION:
        e0 = -math.expm1(-u)
        return log_tail + math.log(e0), lo + moment / e0
    # narrow: r(lo + t) = r(lo) (1 + t/scale)^-(alpha+1), r(lo) = alpha/scale S(lo)
    if not 0.0 < (alpha + 1.0) * log_ratio <= _NARROW_LOG_SPAN:
        return None
    mass, offset = _narrow(hi - lo, lambda t: -(alpha + 1.0) * np.log1p(t / scale))
    return log_tail + math.log(alpha / scale * mass), lo + offset


def mu_inverse_numeric(
    family: FamilyModel,
    m: float,
    *,
    rel_tol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Invert the mean map by safeguarded Newton with a bisection fallback.

    Returns ``t`` with ``|mean(t) - m| <= rel_tol * max(1, |m|)``.  Works for
    any family whose mean map is strictly increasing (variance positive);
    raises :class:`SupportError` when ``m`` falls outside the open image of
    the mean map.
    """
    m = float(m)
    if not math.isfinite(m):
        raise SupportError(f"mean target must be finite, got {m!r}")

    lo_b, hi_b = family.param_lo, family.param_hi
    if math.isfinite(lo_b) and math.isfinite(hi_b):
        t0 = 0.5 * (lo_b + hi_b)
    elif math.isfinite(lo_b):
        t0 = lo_b + 1.0
    elif math.isfinite(hi_b):
        t0 = hi_b - 1.0
    else:
        t0 = 0.0

    def _march(start: float, upward: bool) -> float:
        # Walk toward one end of the parameter interval until mean(t) brackets m.
        t, step = start, 1.0
        bound = hi_b if upward else lo_b
        for _ in range(max_iter):
            v = family.mean(t)
            if (v >= m) if upward else (v <= m):
                return t
            if math.isfinite(bound):
                nxt = t + 0.9 * (bound - t)
                if nxt == t:
                    break
                t = nxt
            else:
                t = t + step if upward else t - step
                step *= 2.0
                if not math.isfinite(t):
                    break
        raise SupportError(f"value {m!r} is outside the image of the mean map")

    t_hi = _march(t0, upward=True)
    t_lo = _march(t0, upward=False)

    tol = rel_tol * max(1.0, abs(m))
    lo, hi = t_lo, t_hi
    t = 0.5 * (lo + hi)
    for _ in range(max_iter):
        err = family.mean(t) - m
        if abs(err) <= tol:
            return t
        if err > 0.0:
            hi = t
        else:
            lo = t
        t_new = t - err / family.variance(t)
        if not (lo < t_new < hi) or not math.isfinite(t_new):
            t_new = 0.5 * (lo + hi)
        if t_new == t:
            t_new = 0.5 * (lo + hi)
            if t_new == t:
                break
        t = t_new
    if abs(family.mean(t) - m) <= tol:
        return t
    raise ArithmeticError(f"mean inversion stalled for target {m!r}")

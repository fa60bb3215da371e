"""Exponential-family models and their closed-form Bayes marginals.

The data density is ``f(x | t) = exp(x*t - log_partition(t)) * carrier(x)``
on an open support interval, with natural parameter ``t`` ranging over an
open parameter interval.  A conjugate prior induces a marginal density ``r``
over the data; the pair (:class:`FamilyModel`, :class:`MarginalModel`) is
everything the cut-point machinery needs.  The family supplies the
log-partition function and the mean/variance maps, the marginal supplies
the data support, ``log r``, its mode and its quantile function.

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
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    import numpy as np

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
# mu_inverse_numeric: relative accuracy of the mean, and the step budget of
# its bracket march and of its root search
_MU_INVERSE_REL_TOL = 1e-12
_MU_INVERSE_MAX_ITER = 200

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
_GL_X = (0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
         0.7699026741943047, 0.9041172563704749, 0.9815606342467192)
_GL_W = (0.24914704581340277, 0.2334925365383548, 0.20316742672306592,
         0.16007832854334622, 0.10693932599531843, 0.04717533638651183)
# The rule moved to [0, 1], as (node, weight) pairs in ascending node order.
# _narrow runs it as a loop over Python floats: on 12 points that is about a
# third of the cost of the same sums in numpy.
_GL_RULE = tuple((0.5 * (1.0 - x), 0.5 * w) for x, w in zip(_GL_X[::-1], _GL_W[::-1])) \
    + tuple((0.5 * (1.0 + x), 0.5 * w) for x, w in zip(_GL_X, _GL_W))


class ParameterError(ValueError):
    """A model hyper-parameter lies outside its admissible range."""


class SupportError(ValueError):
    """A point lies outside the data support, parameter space, or map image."""


@dataclass(frozen=True)
class FamilyModel:
    """A 1-dimensional exponential family in natural parametrization.

    ``log_carrier`` maps numpy arrays elementwise (the package calls it on
    arrays only, in the carrier-constant quadrature and the curves); the
    remaining callables are scalar maps on Python floats.  ``mean`` is the
    derivative of ``log_partition`` (it sends a natural parameter to the
    corresponding expectation parameter) and ``variance`` is the derivative
    of ``mean``, strictly positive on the whole parameter interval.  The data
    support is the marginal's.  The built-in families import numpy in their
    ``log_carrier``, at its first call, not at the package's import.
    """

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

    ``support_lo`` and ``support_hi`` bound the open data support, which
    cut-points and intervals must lie in.  ``log_pdf`` must accept both
    numpy arrays, mapped elementwise (the adaptive quadrature, the curves,
    and the Jacobian unless ``log_pdf_float`` is set), and Python floats,
    returning a number that ``float`` converts (the insertion scan's slope
    and the quadrature's tail scales).
    The built-in marginals import numpy in their ``log_pdf``, at its first
    call; their closed forms run on the standard library alone.
    ``quantile`` is a scalar map.  ``mode`` is the maximizer of the density
    over the closed support (it anchors the scaled quadrature).  The density
    is strictly positive on the open support and has a finite first moment;
    the constructors below enforce the parameter ranges that guarantee this.

    ``closed_form``, when given, maps an interval ``(lo, hi)`` inside the
    support (either end may be infinite) to its ``(log_mass, centroid)``
    exact to rounding, or to ``None`` where it cannot vouch for that;
    :func:`smml1d.quadrature.interval_integrals` integrates adaptively
    whenever it is absent or declines.  Where the answer overflows it raises
    ``OverflowError``, and the code book fails to build.  ``entropy`` and
    ``carrier_constant``, when given, are closed forms of the marginal's
    differential entropy and of ``-E_r[log carrier]`` for the family built
    with it; the estimator integrates them by quadrature when they are
    absent.

    ``mirror_symmetric`` declares that the model pair is symmetric about 0:
    log r is even, the assertion of the mirrored interval is the negated one
    (theta_hat is odd) and the family's log partition is even.  The
    reflection a -> (-a_n, ..., -a_1) then maps every code book to one of the
    same length, so :func:`smml1d.estimator.solve_sweep` solves each mirror
    pair of its starts once, and ``smml1d verify`` checks that a solved book
    and its mirror image have one length.  ``make_normal_normal`` sets it;
    the Lomax pair and pairs built field by field leave it off.

    ``log_pdf_float``, when given, is ``log_pdf`` on one Python float: it
    returns a float with the bits that the array ``log_pdf`` gives the same
    point, and :func:`smml1d.estimator.jacobian` maps it over the cuts in
    place of an array call and its numpy round trip.  A pair that replaces
    ``log_pdf`` must replace or clear it too.  ``make_normal_normal`` sets
    it.  The Lomax pair leaves it unset: numpy's vectorised ``log1p``
    differs from ``math.log1p`` in the last bit at some arguments.
    """

    log_pdf: Callable[[np.ndarray], np.ndarray]
    quantile: Callable[[float], float]
    mode: float
    support_lo: float
    support_hi: float
    prior_params: tuple[float, ...]
    name: str
    closed_form: Callable[[float, float], tuple[float, float] | None] | None = None
    entropy: float | None = None
    carrier_constant: float | None = None
    mirror_symmetric: bool = False
    log_pdf_float: Callable[[float], float] | None = None


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
    # here, not at the top: a Lomax run then loads neither statistics nor fractions
    import statistics
    inv_cdf = statistics.NormalDist(0.0, beta).inv_cdf

    def log_carrier(x):
        import numpy as np
        return -0.5 * np.asarray(x, dtype=float) ** 2 - 0.5 * _LOG_2PI

    family = FamilyModel(
        param_lo=-math.inf,
        param_hi=math.inf,
        log_partition=lambda t: 0.5 * t * t,
        log_carrier=log_carrier,
        mean=lambda t: t,
        variance=lambda t: 1.0,
        mean_inverse=lambda m: m,
    )

    def log_pdf(x):
        import numpy as np
        x = np.asarray(x, dtype=float)
        return -0.5 * (x / beta) ** 2 - log_norm

    def log_pdf_float(x: float) -> float:
        # numpy squares an array by multiplication, so this matches it bit
        # for bit; a float's ** 2 goes to pow, which can differ in the last bit
        y = x / beta
        return -0.5 * (y * y) - log_norm

    def quantile(p: float) -> float:
        if not 0.0 < p < 1.0:
            raise SupportError(f"quantile needs 0 < p < 1, got {p!r}")
        return inv_cdf(p)

    marginal = MarginalModel(
        log_pdf=log_pdf,
        quantile=quantile,
        mode=0.0,
        support_lo=-math.inf,
        support_hi=math.inf,
        prior_params=(alpha,),
        name="normal-normal",
        closed_form=lambda lo, hi: _normal_interval(beta, lo, hi),
        entropy=log_norm + 0.5,
        carrier_constant=0.5 * (1.0 + alpha * alpha + _LOG_2PI),
        mirror_symmetric=True,
        log_pdf_float=log_pdf_float,
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

    def log_carrier(x):
        import numpy as np
        return np.zeros_like(np.asarray(x, dtype=float))

    family = FamilyModel(
        param_lo=-math.inf,
        param_hi=0.0,
        log_partition=lambda t: -math.log(-t),
        log_carrier=log_carrier,
        mean=lambda t: -1.0 / t,
        variance=lambda t: 1.0 / (t * t),
        mean_inverse=_mean_inverse,
    )

    def log_pdf(x):
        import numpy as np
        x = np.asarray(x, dtype=float)
        with np.errstate(invalid="ignore", divide="ignore"):
            out = log_ab - (alpha + 1.0) * np.log1p(x / beta)
        return np.where(x >= 0.0, out, -np.inf)

    def quantile(p: float) -> float:
        if not 0.0 < p < 1.0:
            raise SupportError(f"quantile needs 0 < p < 1, got {p!r}")
        return beta * math.expm1(-math.log1p(-p) / alpha)

    marginal = MarginalModel(
        log_pdf=log_pdf,
        quantile=quantile,
        mode=0.0,
        support_lo=0.0,
        support_hi=math.inf,
        prior_params=(alpha, beta),
        name="exponential-gamma",
        closed_form=lambda lo, hi: _lomax_interval(alpha, beta, lo, hi),
        entropy=1.0 + 1.0 / alpha - log_ab,
        carrier_constant=0.0,
    )
    return family, marginal


def _cancellation(operand: float, difference: float) -> float:
    """How many times the computed difference falls short of its operand."""
    return operand / difference if difference > 0.0 else math.inf


def _narrow(width: float, log_ratio: Callable[[float], float]) -> tuple[float, float]:
    """Integral of exp(log_ratio(t)) over (0, width), and the mean of t.

    ``log_ratio`` is the log density relative to the interval's end, a scalar
    map; see ``_NARROW_LOG_SPAN`` for where the fixed rule is exact.
    """
    total = moment = 0.0
    for node, weight in _GL_RULE:
        t = width * node
        f = weight * math.exp(log_ratio(t))
        total += f
        moment += t * f
    return width * total, moment / total


# Partial numerators of Laplace's continued fraction, deepest first: 176.0 is
# the depth 16 + 640/z^2 at z = 2, and floats spare the loop an int-to-float
# conversion per term (the same IEEE operations as with ints).
_MILLS_LADDER = tuple(map(float, range(176, 1, -1)))


# R and h are pure functions of the standardised interval end.  A cut ends two
# intervals, and the insertion scan keeps one end fixed over a whole scan, so
# half of the ends the n <= 16 sweep of Table 1 forms are repeats; the
# bounded memo answers those without erfc or the continued fraction.
@lru_cache(maxsize=256)
def _mills_pair(z: float) -> tuple[float, float]:
    """Mills ratio R(z) = Q(z) / phi(z) of the standard normal and its
    complement h(z) = 1 - z R(z), for z >= 0.

    Below z = 2, R is sqrt(pi/2) exp(z^2/2) erfc(z/sqrt 2).  From z = 2 on,
    1 - z R(z) ~ 1/z^2 cancels, and both come from Laplace's continued
    fraction R(z) = 1/(z + 1/(z + 2/(z + ...))): with its tail
    T = z + 2/(z + 3/(z + ...)), R = 1/(z + 1/T) and h = R/T.  The depth
    16 + 640/z^2 resolves both to within a few units of the last bit; its
    partial numerators are the ladder from that depth down to 2.
    """
    if z < 2.0:
        r = _SQRT_HALF_PI * math.exp(0.5 * z * z) * math.erfc(z / _SQRT2)
        return r, 1.0 - z * r
    t = z
    for k in _MILLS_LADDER[160 - int(640.0 / (z * z)):]:
        t = z + k / t
    r = 1.0 / (z + 1.0 / t)
    return r, r / t


def _normal_tail(a: float, w: float, s: float) -> tuple[float, float] | None:
    """Standard-normal log mass of (a, a + w), a >= 0, and its mean minus a.

    ``s`` is 2a + w; callers form ``w`` and ``s`` from the interval ends
    directly, so neither carries the cancellation of b - a.
    """
    r_a, h_a = _mills_pair(a)
    log_phi_a = -0.5 * a * a - 0.5 * _LOG_2PI
    if w == math.inf:
        return log_phi_a + math.log(r_a), h_a / r_a
    b = a + w
    r_b, h_b = _mills_pair(b)
    arg = 0.5 * w * s                       # (b^2 - a^2) / 2
    rho = math.exp(-arg)                    # phi(b) / phi(a)
    # mass / phi(a), from the central masses (erf) or the upper tails (R)
    erf_b = math.erf(b / _SQRT2)
    central = 0.5 * (erf_b - math.erf(a / _SQRT2))
    # _cancellation, inlined four times: this runs for every one-sided interval
    central_cancel = 0.5 * erf_b / central if central > 0.0 else math.inf
    tails = r_a - rho * r_b
    tails_cancel = r_a / tails if tails > 0.0 else math.inf
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
        direct_cancel = one_minus_rho / direct if direct > 0.0 else math.inf
        via_h = h_a - rho * (h_b + w * r_b)
        via_h_cancel = h_a / via_h if via_h > 0.0 else math.inf
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
        # phi(a) - phi(b), factored at the end nearer the mode; (b^2 - a^2) / 2
        # from the ends, unless sigma^2 overflows (sd past about 1.3e154)
        var = sigma * sigma
        gap = 0.5 * (hi + lo) * (hi - lo) / var if var < math.inf else 0.5 * (b + a) * (b - a)
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
        centroid = lo + scale / (alpha - 1.0)
        if centroid == math.inf:  # a scale near the largest double
            raise OverflowError(f"the centroid of ({lo!r}, inf) overflows")
        return log_tail, centroid
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
    mass, offset = _narrow(hi - lo, lambda t: -(alpha + 1.0) * math.log1p(t / scale))
    return log_tail + math.log(alpha / scale * mass), lo + offset


def mu_inverse_numeric(family: FamilyModel, m: float) -> float:
    """Invert the mean map by safeguarded Newton with a bisection fallback.

    Returns ``t`` with ``|mean(t) - m| <= 1e-12 * max(1, |m|)``.  Works for
    any family whose mean map is strictly increasing (variance positive);
    raises :class:`SupportError` when ``m`` falls outside the open image of
    the mean map, and ``ArithmeticError`` ("mean inversion stalled") when
    ``t`` lies so close to a finite end of the parameter interval that no
    double meets the tolerance.  A code book that needs such an assertion
    counts as unbuildable.
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
        for _ in range(_MU_INVERSE_MAX_ITER):
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

    tol = _MU_INVERSE_REL_TOL * max(1.0, abs(m))
    lo, hi = t_lo, t_hi
    t = 0.5 * (lo + hi)
    for _ in range(_MU_INVERSE_MAX_ITER):
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

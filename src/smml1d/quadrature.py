"""Log-domain adaptive quadrature over marginal-density intervals.

:func:`interval_integrals` first asks the marginal's ``closed_form`` hook;
the built-in normal and Lomax marginals answer it exactly to rounding (closed
forms, and a fixed Gauss-Legendre rule on intervals too narrow for them).
Every marginal without the hook, and any interval the hook declines, goes
through the adaptive quadrature below, which is also the reference the hook
is tested against.

Masses of far-tail intervals underflow double precision long before the
quantities the solver needs (log masses, centroids, density/mass ratios)
lose meaning.  Every integral here is therefore taken against the rescaled
integrand

    scaled(x) = r(x) / r(c),

where ``c`` maximizes the density over the interval in question, so the
integrand is bounded by 1 and the interval mass comes back as

    log mass = log r(c) + log( integral of scaled ).

The integration variable is the offset ``dx = x - c``.  An interval is a
table of pieces, one row (t0, t1, sign, scale, power) each: a finite piece
on either side of ``c`` has dx = t over t0 < t < t1, and an unbounded end is
a tail with dx = sign*scale*((1 - t)^-power - 1) over 0 < t < 1.  The scale
is the distance over which log r drops by one unit, so the tail is resolved
near t = 0.  The power is 1 unless log r, read far out, falls like -k log|x|
with k < 3; then it is 2/(k - 2), so that x r dx/dt vanishes like (1 - t) at
t = 1 however heavy the tail, and the tail integrand is formed as one
exponential of log r + log dx/dt, so it does not vanish where r alone
underflows.  A node past the largest double (or one that rounds to t = 1)
makes the integrand NaN, so a tail that needs x there fails instead of
losing its far part.  The centroid is ``c`` plus the mean offset, so a far
narrow interval keeps every digit of the centroid's distance from its end.
Its first moment is taken of dx / unit, one unit per integral chosen in the
kernel: the largest power of two at most the largest of the finite ends'
distances from ``c`` and the tail scales.  So its panel sums stay finite
when the offsets near the largest double, and as dividing by a power of two
is exact, an interval of ordinary reach keeps its bits.

The rule is a 15-point Gauss-Kronrod scheme with batched adaptive bisection:
every round evaluates the panels of all pieces in one ``log_pdf`` call, and
the mass and first-moment integrals share every function evaluation.  An
integral whose error estimate stays above its tolerance raises
``ArithmeticError``.  The kernel imports numpy at its first call, so a
closed-form answer never loads it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, NamedTuple

from .families import MarginalModel, SupportError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "IntervalIntegrals",
    "interval_integrals",
    "differential_entropy",
]

# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1]
# (positive abscissae; even nodes are Kronrod-only, odd nodes carry the
# underlying Gauss rule).  Floats: _gk_rule makes the kernel's arrays.
_XGK = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.000000000000000,
)
_WGK = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)

_NODES = tuple(-x for x in _XGK[:-1]) + _XGK[::-1]  # ascending, 15 nodes
_KRONROD_W = _WGK[:-1] + _WGK[::-1]
_GAUSS_W = (0.0, _WG[0], 0.0, _WG[1], 0.0, _WG[2], 0.0, _WG[3],
            0.0, _WG[2], 0.0, _WG[1], 0.0, _WG[0], 0.0)


@lru_cache(maxsize=1)
def _gk_rule():
    """_NODES, _KRONROD_W and _GAUSS_W as float arrays, made once."""
    import numpy as np
    return np.array(_NODES), np.array(_KRONROD_W), np.array(_GAUSS_W)


_REL_TOL = 1e-13        # target relative accuracy of the scaled integrals
_FAR = (2.0**100, 2.0**200)  # decay-scale multiples at which a tail's power law is read
_MAX_SEGMENTS = 20_000  # subdivision cap per interval


class IntervalIntegrals(NamedTuple):
    """Log mass and centroid of one marginal interval.

    Immutable.  A named tuple rather than a frozen dataclass because a code
    book builds n+1 of them per trial step: construction costs about a third
    as much.
    """

    log_mass: float
    centroid: float


def _decay_scale(marginal: MarginalModel, anchor: float, sign: float) -> float:
    """Distance from `anchor`, at most 2**1000, over which log r drops by about one unit."""
    base = float(marginal.log_pdf(anchor))

    def drop(step: float) -> float:
        return float(marginal.log_pdf(anchor + sign * step)) - base

    s = 1.0
    while drop(s) > -1.0 and s < 2.0**1000:
        s *= 2.0
    if s == 1.0:  # log r falls by a unit within 1 of anchor: halve instead
        floor = 1e-12 * max(1.0, abs(anchor))
        for _ in range(100):
            half = 0.5 * s
            if half < floor or drop(half) > -1.0:
                break
            s = half
    return s


def _tail_row(marginal: MarginalModel, anchor: float, sign: float) -> tuple:
    """The piece (0, 1, sign, scale, power) from `anchor` towards sign * inf."""
    scale = _decay_scale(marginal, anchor, sign)
    near, far = (float(marginal.log_pdf(anchor + sign * scale * d)) for d in _FAR)
    k = (near - far) / math.log(_FAR[1] / _FAR[0])  # NaN where log r is -inf far out
    if not k < 3.0:
        power = 1.0
    elif k > 2.0:
        power = 2.0 / (k - 2.0)
    else:  # no first moment: every node of the tail overflows
        power = math.inf
    return 0.0, 1.0, sign, scale, power


def _integrate(
    marginal: MarginalModel,
    lo: float,
    hi: float,
    ref: float,
    moments: Callable[[np.ndarray, float], tuple],
    rel_tol: float = _REL_TOL,
) -> tuple[float, list[float], float]:
    """log r(ref), the integrals over (lo, hi) of each row of
    moments(dx, unit) times r(ref + dx) / r(ref), and the unit: the largest
    power of two at most the reach from ref of the finite ends and tails."""
    left = 0.0 if lo == -math.inf else lo - ref
    right = 0.0 if hi == math.inf else hi - ref
    table = [(a, b, 0.0, 0.0, 1.0) for a, b in ((left, 0.0), (0.0, right)) if a < b]
    if lo == -math.inf:
        table.insert(0, _tail_row(marginal, ref, -1.0))
    if hi == math.inf:
        table.append(_tail_row(marginal, ref, 1.0))
    import numpy as np
    nodes, kronrod_w, gauss_w = _gk_rule()
    table = np.array(table)
    log_ref = float(marginal.log_pdf(ref))
    reach = max(abs(left), abs(right), *table[:, 3].tolist())
    unit = math.ldexp(1.0, math.frexp(reach)[1] - 1)

    def panels(ids, a, b):
        half = 0.5 * (b - a)
        t = ((0.5 * (a + b))[:, None] + half[:, None] * nodes).ravel()
        _, _, sign, scale, power = table[np.repeat(ids, 15)].T
        tail = scale > 0.0
        log_u = np.log1p(-t)
        dx = np.where(tail, sign * scale * np.expm1(-power * log_u), t)
        log_w = np.where(tail, np.log(scale * power) - (power + 1.0) * log_u, 0.0) - log_ref
        f = np.exp(np.asarray(marginal.log_pdf(ref + dx), dtype=float) + log_w)
        f[~np.isfinite(f)] = 0.0
        f[~np.isfinite(dx)] = np.nan  # a tail node past the largest double
        vals = np.array([f * g for g in moments(dx, unit)])
        vals[:, f == 0.0] = 0.0  # where a moment is infinite and r is 0
        vals = vals.reshape(len(vals), -1, 15)
        k = half * (vals @ kronrod_w)
        absk = half * (np.abs(vals) @ kronrod_w)
        norm = np.where(absk > 0.0, absk, 1.0)
        diff = np.abs(k - half * (vals @ gauss_w))
        return k, norm * np.minimum(1.0, (200.0 * diff / norm) ** 1.5), absk

    mid = 0.5 * (table[:, 0] + table[:, 1])
    ids = np.repeat(np.arange(len(table)), 2)
    a = np.column_stack([table[:, 0], mid]).ravel()
    b = np.column_stack([mid, table[:, 1]]).ravel()
    K, E, A = panels(ids, a, b)
    for _ in range(200):
        tot_err = E.sum(axis=1)
        scale = np.maximum(A.sum(axis=1), 1e-300)
        if np.all(tot_err <= rel_tol * scale) or ids.size >= _MAX_SEGMENTS:
            break
        norm_err = (E / scale[:, None]).max(axis=0)
        width_ok = (b - a) > 4e-16 * np.maximum(np.maximum(np.abs(a), np.abs(b)), 1.0)
        split = (norm_err > 0.25 * rel_tol / ids.size) & width_ok
        if not np.any(split):
            worst = np.argmax(np.where(width_ok, norm_err, -1.0))
            if not width_ok[worst]:
                break
            split[worst] = True
        mid = 0.5 * (a[split] + b[split])
        new = (np.tile(ids[split], 2), np.concatenate([a[split], mid]),
               np.concatenate([mid, b[split]]))
        keep = ~split
        ids, a, b = (np.concatenate([old[keep], n]) for old, n in zip((ids, a, b), new))
        K, E, A = (np.concatenate([old[:, keep], n], axis=1)
                   for old, n in zip((K, E, A), panels(*new)))
    # NaN compares false here and is left to the caller
    if np.any(E.sum(axis=1) > rel_tol * np.maximum(A.sum(axis=1), 1e-300)):
        raise ArithmeticError(f"quadrature did not converge over ({lo!r}, {hi!r})")
    return log_ref, K.sum(axis=1).tolist(), unit


def interval_integrals(
    marginal: MarginalModel, lo: float, hi: float, *, rel_tol: float = _REL_TOL
) -> IntervalIntegrals:
    """Log mass and centroid of the marginal over (lo, hi).

    The marginal's ``closed_form`` answers when it has one and accepts the
    interval.  Otherwise both are computed against the density rescaled by
    its maximum over the interval, so the result is accurate even when the
    mass itself is far below the smallest positive double.  ``rel_tol``
    loosens the target accuracy of the scaled integrals; the default meets
    the solver's needs, coarser values suit placement heuristics.  It does
    not apply to the hook, which is always exact to rounding.
    """
    lo, hi = float(lo), float(hi)
    if not lo < hi:  # also when either bound is NaN
        raise ValueError(f"interval bounds must satisfy lo < hi, got ({lo!r}, {hi!r})")
    if lo < marginal.support_lo or hi > marginal.support_hi:
        raise SupportError(
            f"interval ({lo!r}, {hi!r}) leaves the support "
            f"({marginal.support_lo!r}, {marginal.support_hi!r})"
        )
    if marginal.closed_form is not None:
        exact = marginal.closed_form(lo, hi)
        if exact is not None:
            log_mass, centroid = exact
            # tuple.__new__ skips the generated __new__'s argument handling,
            # about half of its cost; this is the hot path of every build
            return tuple.__new__(IntervalIntegrals, (min(log_mass, 0.0), centroid))
    ref = min(max(marginal.mode, lo), hi)
    # The first moment is taken of dx / unit, with the unit _integrate picks.
    # A NaN that reaches the integrals (at a tail node past the largest
    # double or rounding to t = 1) ends in the degenerate-mass error below.
    import numpy as np
    with np.errstate(all="ignore"):
        log_ref, (mass, shift), unit = _integrate(
            marginal, lo, hi, ref, lambda dx, unit: (1.0, dx / unit), rel_tol)
    if not (math.isfinite(mass) and mass > 0.0):
        raise ArithmeticError(f"degenerate interval mass over ({lo!r}, {hi!r})")
    log_mass = min(log_ref + math.log(mass), 0.0)
    # in this order: unit * shift may overflow, shift / mass * unit does not
    return IntervalIntegrals(log_mass, ref + shift / mass * unit)


def expectation(marginal: MarginalModel, fn: Callable[[np.ndarray], np.ndarray]) -> float:
    """Integral of fn(x) * r(x) over the whole support.

    ``fn`` must accept numpy arrays and may grow polynomially in the tails.
    Uses the same rescaled integrand and tail substitution as
    :func:`interval_integrals`.
    """
    import numpy as np
    ref = marginal.mode
    with np.errstate(all="ignore"):
        log_ref, (total,), _ = _integrate(marginal, marginal.support_lo, marginal.support_hi, ref,
                                          lambda dx, _: (np.asarray(fn(ref + dx), dtype=float),))
    return math.exp(log_ref) * total


def differential_entropy(marginal: MarginalModel) -> float:
    """Differential entropy -∫ r log r of the marginal, in nats."""
    import numpy as np
    return expectation(marginal, lambda x: -np.asarray(marginal.log_pdf(x), dtype=float))

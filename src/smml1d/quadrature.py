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

Centroids are accumulated in the shifted form ``c + E[x - c]``, which keeps
the moment integrand single-signed on each sub-piece and cancellation-free.
An unbounded interval end is mapped onto [0, 1) by ``x = anchor +- s*t/(1-t)``
with the scale ``s`` matched to the density's decay, so the transformed
integrand is well resolved near ``t = 0``.

The rule is a 15-point Gauss-Kronrod scheme with batched adaptive bisection:
all refinements of a round are evaluated in one vectorized call, and the mass
and first-moment integrals share every function evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .families import MarginalModel, SupportError

__all__ = [
    "IntervalIntegrals",
    "interval_integrals",
    "differential_entropy",
]

# 15-point Kronrod extension of the 7-point Gauss rule on [-1, 1]
# (positive abscissae; even nodes are Kronrod-only, odd nodes carry the
# underlying Gauss rule).
_XGK = np.array([
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.000000000000000,
])
_WGK = np.array([
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
])
_WG = np.array([
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
])

_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])  # ascending, 15 nodes
_KRONROD_W = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GAUSS_W = np.zeros(15)
_GAUSS_W[[1, 3, 5, 7, 9, 11, 13]] = [
    _WG[0], _WG[1], _WG[2], _WG[3], _WG[2], _WG[1], _WG[0],
]

_REL_TOL = 1e-13        # target relative accuracy of the scaled integrals
_MAX_SEGMENTS = 20_000  # subdivision cap per interval


class IntervalIntegrals(NamedTuple):
    """Log mass and centroid of one marginal interval.

    Immutable.  A named tuple rather than a frozen dataclass because a code
    book builds n+1 of them per trial step: construction costs about a third
    as much.
    """

    log_mass: float
    centroid: float


@dataclass(frozen=True)
class _Piece:
    """One monotone map from a finite parameter range into x-space."""

    x_of: Callable[[np.ndarray], np.ndarray]
    w_of: Callable[[np.ndarray], np.ndarray]  # |dx/dt|
    t0: float
    t1: float


def _finite_piece(a: float, b: float) -> _Piece:
    return _Piece(lambda t: t, lambda t: np.ones_like(t), a, b)


def _tail_piece(anchor: float, sign: float, scale: float) -> _Piece:
    def x_of(t):
        return anchor + sign * scale * (t / (1.0 - t))

    def w_of(t):
        d = 1.0 - t
        return scale / (d * d)

    return _Piece(x_of, w_of, 0.0, 1.0)


def _decay_scale(marginal: MarginalModel, anchor: float, sign: float) -> float:
    """Distance from `anchor` over which log r drops by about one unit."""
    base = float(marginal.log_pdf(anchor))

    def drop(step: float) -> float:
        return float(marginal.log_pdf(anchor + sign * step)) - base

    s = 1.0
    if drop(s) > -1.0:
        for _ in range(100):
            s *= 2.0
            if drop(s) <= -1.0 or s > 1e150:
                break
    else:
        floor = 1e-12 * max(1.0, abs(anchor))
        for _ in range(100):
            half = 0.5 * s
            if half < floor or drop(half) > -1.0:
                break
            s = half
    return s


def _pieces_for(marginal: MarginalModel, lo: float, hi: float, ref: float) -> list[_Piece]:
    pieces: list[_Piece] = []
    if lo == -math.inf:
        pieces.append(_tail_piece(ref, -1.0, _decay_scale(marginal, ref, -1.0)))
        left = ref
    else:
        left = lo
    right = ref if hi == math.inf else hi
    if left < right:
        if left < ref < right:
            pieces.append(_finite_piece(left, ref))
            pieces.append(_finite_piece(ref, right))
        else:
            pieces.append(_finite_piece(left, right))
    if hi == math.inf:
        pieces.append(_tail_piece(ref, 1.0, _decay_scale(marginal, ref, 1.0)))
    return pieces


def _adaptive(
    eval_rows: Callable[[_Piece, np.ndarray], np.ndarray],
    pieces: Sequence[_Piece],
    rel_tol: float = _REL_TOL,
) -> np.ndarray:
    """Integrate the rows of `eval_rows` over all pieces simultaneously.

    Returns the vector of integrals.  Each round bisects every segment whose
    error exceeds its share of the budget and evaluates all new panels in one
    vectorized call per piece.
    """
    piece_ids: list[int] = []
    t0s: list[float] = []
    t1s: list[float] = []
    for i, pc in enumerate(pieces):
        mid = 0.5 * (pc.t0 + pc.t1)
        piece_ids += [i, i]
        t0s += [pc.t0, mid]
        t1s += [mid, pc.t1]

    def panels(ids: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (hi + lo)
        t = mid[:, None] + half[:, None] * _NODES[None, :]
        k_parts = []
        e_parts = []
        a_parts = []
        for i in range(len(pieces)):
            mask = ids == i
            if not np.any(mask):
                k_parts.append(None)
                continue
            rows = eval_rows(pieces[i], t[mask].ravel())
            rows = rows.reshape(rows.shape[0], -1, 15)
            h = half[mask][None, :]
            k = h * (rows @ _KRONROD_W)
            g = h * (rows @ _GAUSS_W)
            absk = h * (np.abs(rows) @ _KRONROD_W)
            diff = np.abs(k - g)
            scale = np.where(absk > 0.0, absk, 1.0)
            err = scale * np.minimum(1.0, (200.0 * diff / scale) ** 1.5)
            k_parts.append((mask, k, err, absk))
        m = next(p[1].shape[0] for p in k_parts if p is not None)
        K = np.zeros((m, ids.size))
        E = np.zeros((m, ids.size))
        A = np.zeros((m, ids.size))
        for part in k_parts:
            if part is None:
                continue
            mask, k, err, absk = part
            K[:, mask] = k
            E[:, mask] = err
            A[:, mask] = absk
        return K, E, A

    ids = np.asarray(piece_ids)
    lo = np.asarray(t0s)
    hi = np.asarray(t1s)
    K, E, A = panels(ids, lo, hi)

    for _ in range(200):
        tot_err = E.sum(axis=1)
        scale = np.maximum(A.sum(axis=1), 1e-300)
        if np.all(tot_err <= rel_tol * scale) or ids.size >= _MAX_SEGMENTS:
            break
        norm_err = (E / scale[:, None]).max(axis=0)
        width_ok = (hi - lo) > 4e-16 * np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1.0)
        thresh = 0.25 * rel_tol / ids.size
        split = (norm_err > thresh) & width_ok
        if not np.any(split):
            worst = np.argmax(np.where(width_ok, norm_err, -1.0))
            if not width_ok[worst]:
                break
            split = np.zeros_like(split)
            split[worst] = True
        mid = 0.5 * (lo[split] + hi[split])
        new_ids = np.concatenate([ids[split], ids[split]])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        nK, nE, nA = panels(new_ids, new_lo, new_hi)
        keep = ~split
        ids = np.concatenate([ids[keep], new_ids])
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        K = np.concatenate([K[:, keep], nK], axis=1)
        E = np.concatenate([E[:, keep], nE], axis=1)
        A = np.concatenate([A[:, keep], nA], axis=1)

    return K.sum(axis=1)


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
            return IntervalIntegrals(min(log_mass, 0.0), centroid)
    ref = min(max(marginal.mode, lo), hi)
    log_ref = float(marginal.log_pdf(ref))
    pieces = _pieces_for(marginal, lo, hi, ref)

    def rows(piece: _Piece, t: np.ndarray) -> np.ndarray:
        x = piece.x_of(t)
        w = piece.w_of(t)
        lr = np.asarray(marginal.log_pdf(x), dtype=float)
        scaled = np.exp(lr - log_ref)
        scaled = np.where(np.isfinite(scaled), scaled, 0.0)
        out = np.empty((2, x.size))
        np.multiply(w, scaled, out=out[0])
        np.multiply(x - ref, out[0], out=out[1])
        return out

    # rows() zeroes a non-finite density; a NaN that still gets through (at a
    # tail node that rounds to t = 1) ends in the degenerate-mass error below
    with np.errstate(all="ignore"):
        mass, shift = map(float, _adaptive(rows, pieces, rel_tol=rel_tol))
    if not (math.isfinite(mass) and mass > 0.0):
        raise ArithmeticError(f"degenerate interval mass over ({lo!r}, {hi!r})")
    log_mass = min(log_ref + math.log(mass), 0.0)
    return IntervalIntegrals(log_mass, ref + shift / mass)


def expectation(marginal: MarginalModel, fn: Callable[[np.ndarray], np.ndarray]) -> float:
    """Integral of fn(x) * r(x) over the whole support.

    ``fn`` must accept numpy arrays and may grow polynomially in the tails.
    Uses the same rescaled integrand and tail substitution as
    :func:`interval_integrals`.
    """
    ref = marginal.mode
    log_ref = float(marginal.log_pdf(ref))
    pieces = _pieces_for(marginal, marginal.support_lo, marginal.support_hi, ref)

    def rows(piece: _Piece, t: np.ndarray) -> np.ndarray:
        x = piece.x_of(t)
        w = piece.w_of(t)
        lr = np.asarray(marginal.log_pdf(x), dtype=float)
        scaled = np.exp(lr - log_ref)
        scaled = np.where(np.isfinite(scaled), scaled, 0.0)
        vals = np.where(scaled > 0.0, np.asarray(fn(x), dtype=float) * scaled, 0.0)
        return (w * vals)[None, :]

    with np.errstate(all="ignore"):
        total = float(_adaptive(rows, pieces)[0])
    return math.exp(log_ref) * total


def differential_entropy(marginal: MarginalModel) -> float:
    """Differential entropy -∫ r log r of the marginal, in nats."""
    return expectation(marginal, lambda x: -np.asarray(marginal.log_pdf(x), dtype=float))

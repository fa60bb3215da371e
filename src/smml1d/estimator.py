"""Optimal cut-point estimation for two-part coding of continuous data.

A code book over cut-points ``a_1 < ... < a_n`` inside the data support
splits the support into intervals ``U_i = [a_i, a_{i+1})`` (with ``a_0`` and
``a_{n+1}`` the support boundaries).  Interval ``U_i`` receives the coding
probability ``q_i`` equal to its marginal mass (stored in the log domain) and
the assertion ``t_i``, the natural parameter whose mean equals the interval's
centroid.  The expected length in nats of the two-part code built from such a
book is

    L(a) = K - sum_i q_i * (log q_i + t_i * mean(t_i) - log_partition(t_i)),

where ``K = -∫ r log carrier`` does not depend on the cut-points.  Stationary
configurations are the zeroes of the map ``G`` whose j-th coordinate is the
jump of the log code density across ``a_j``,

    G_j = (log q_j + a_j t_j - log_partition(t_j))
        - (log q_{j-1} + a_j t_{j-1} - log_partition(t_{j-1})),

and ``dL/da_j = r(a_j) * G_j``.  ``G`` has a tridiagonal Jacobian, so a
Newton step costs O(n): :func:`newton_solve` runs a damped Newton iteration
on ``G``, and :func:`solve_sweep` starts it from continuation and quantile
starts, keeps the converged local minima and ranks them by code length.

All q-dependent arithmetic stays on ``log q`` and every density/mass ratio is
formed as ``exp(log r - log q)``, so the solver keeps working when interval
masses are far below the smallest positive double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import pairwise
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dgtsv, dstevd

from .families import FamilyModel, MarginalModel, SupportError
from .quadrature import differential_entropy, expectation, interval_integrals

__all__ = [
    "LOCAL_MINIMUM",
    "SADDLE",
    "NOT_CRITICAL",
    "CutPointVector",
    "CodeBook",
    "Tridiagonal",
    "SolverOptions",
    "SolveReport",
    "CurveTable",
    "codebook_from_cutpoints",
    "message_length",
    "marginal_entropy",
    "gradient",
    "jacobian",
    "newton_solve",
    "classify_critical_point",
    "multi_start_solve",
    "solve_sweep",
    "continuity_gaps",
    "curve_samples",
]

LOCAL_MINIMUM = "local-minimum"
SADDLE = "saddle/indefinite"
NOT_CRITICAL = "not-critical"

_DEDUP_TOL = 1e-6
# Rounding moves a length by ~1e-15; distinct minima differ by 5.4e-7 or more.
_LENGTH_TIE = 1e-12
_CRITICAL_GRAD_THRESHOLD = 1e-8
_SCAN_TOL = 1e-6  # placement scans only need a few digits
# A Newton run whose last two accepted steps each kept more than this share of
# the gradient norm has stalled; runs that reach a minimum cut it by at least
# 11% in one of any two steps in a row.
_STALL_RATIO = 0.99


@dataclass(frozen=True)
class CutPointVector:
    """Strictly increasing interval boundaries, finitely many and finite."""

    points: tuple[float, ...]

    def __post_init__(self):
        pts = tuple(float(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 1:
            raise ValueError("need at least one cut-point")
        if not all(math.isfinite(p) for p in pts):
            raise ValueError(f"cut-points must be finite, got {pts}")
        if any(b <= a for a, b in pairwise(pts)):
            raise ValueError(f"cut-points must be strictly increasing, got {pts}")

    @property
    def n(self) -> int:
        return len(self.points)

    def as_array(self) -> np.ndarray:
        return np.array(self.points)


def _as_cuts(cuts) -> CutPointVector:
    if isinstance(cuts, CutPointVector):
        return cuts
    arr = np.atleast_1d(np.asarray(cuts, dtype=float))
    return CutPointVector(tuple(arr.tolist()))


@dataclass(frozen=True)
class CodeBook:
    """Cut-points with per-interval log masses, assertions and centroids.

    ``log_q`` has n+1 finite entries summing (after exponentiation) to 1;
    ``centroids[i]`` equals ``mean(theta_hat[i])`` and lies strictly inside
    interval i.
    """

    cuts: CutPointVector
    log_q: tuple[float, ...]
    theta_hat: tuple[float, ...]
    centroids: tuple[float, ...]

    @property
    def n(self) -> int:
        return self.cuts.n


def codebook_from_cutpoints(family: FamilyModel, marginal: MarginalModel, cuts) -> CodeBook:
    """Build the optimal code book for fixed cut-points.

    Each interval's coding probability is its marginal mass and each
    assertion is the natural parameter matching the interval's centroid.
    """
    cuts = _as_cuts(cuts)
    pts = cuts.points
    if not (family.support_lo < pts[0] and pts[-1] < family.support_hi):
        raise SupportError(
            f"cut-points must lie strictly inside the support "
            f"({family.support_lo!r}, {family.support_hi!r}), got {pts}"
        )
    log_q: list[float] = []
    theta: list[float] = []
    centroids: list[float] = []
    for lo, hi in pairwise((family.support_lo, *pts, family.support_hi)):
        ii = interval_integrals(marginal, lo, hi)
        log_q.append(ii.log_mass)
        centroids.append(ii.centroid)
        theta.append(family.invert_mean(ii.centroid))
    return CodeBook(cuts, tuple(log_q), tuple(theta), tuple(centroids))


# Every make_* call builds new model objects, so these caches only serve
# repeat calls with the same objects; a small bound keeps them from growing.
@lru_cache(maxsize=16)
def _carrier_constant(family: FamilyModel, marginal: MarginalModel) -> float:
    return expectation(marginal, lambda x: -np.asarray(family.log_carrier(x), dtype=float))


@lru_cache(maxsize=16)
def marginal_entropy(marginal: MarginalModel) -> float:
    """Cached differential entropy of the marginal (the one-part length)."""
    return differential_entropy(marginal)


def message_length(family: FamilyModel, marginal: MarginalModel, codebook: CodeBook) -> float:
    """Expected two-part code length of the code book, in nats.

    Intervals whose mass underflows contribute q*log q -> 0 and drop out
    automatically; their log_q entries stay finite so the gradient machinery
    is unaffected.
    """
    total = _carrier_constant(family, marginal)
    for lq, th in zip(codebook.log_q, codebook.theta_hat):
        q = math.exp(lq)
        if q > 0.0:
            total -= q * (lq + th * family.mean(th) - family.log_partition(th))
    return total


def gradient(family: FamilyModel, marginal: MarginalModel, codebook: CodeBook) -> np.ndarray:
    """Stationarity residuals: jump of the log code density at each cut-point.

    The derivative of the expected length in ``a_j`` is ``r(a_j)`` times the
    j-th entry of this vector; the entries are computed entirely in the log
    domain.
    """
    a = codebook.cuts.as_array()
    lq = np.asarray(codebook.log_q)
    th = np.asarray(codebook.theta_hat)
    lp = np.array([family.log_partition(t) for t in codebook.theta_hat])
    above = lq[1:] + a * th[1:] - lp[1:]
    below = lq[:-1] + a * th[:-1] - lp[:-1]
    return above - below


@dataclass(frozen=True)
class Tridiagonal:
    """Tridiagonal matrix; entries beyond the three bands are identically zero."""

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    @property
    def n(self) -> int:
        return self.diag.size

    def to_dense(self) -> np.ndarray:
        out = np.diag(self.diag)
        if self.n > 1:
            out += np.diag(self.sub, k=-1) + np.diag(self.sup, k=1)
        return out


def jacobian(family: FamilyModel, marginal: MarginalModel, codebook: CodeBook) -> Tridiagonal:
    """Jacobian of :func:`gradient` in the cut-points.

    Only bands |row - col| <= 1 are nonzero.  Density/mass ratios are formed
    as exp(log r - log q), never as quotients of possibly-underflowed values.
    """
    a = codebook.cuts.as_array()
    lq = np.asarray(codebook.log_q)
    th = np.asarray(codebook.theta_hat)
    mu = np.asarray(codebook.centroids)
    var = np.array([family.variance(t) for t in codebook.theta_hat])
    log_r = np.asarray(marginal.log_pdf(a), dtype=float)

    dev_up = a - mu[1:]
    dev_lo = a - mu[:-1]
    r_over_up = np.exp(log_r - lq[1:])    # r(a_j) / q_j
    r_over_lo = np.exp(log_r - lq[:-1])   # r(a_j) / q_{j-1}
    diag = (
        th[1:] - th[:-1]
        - r_over_up * (1.0 + dev_up**2 / var[1:])
        - r_over_lo * (1.0 + dev_lo**2 / var[:-1])
    )
    # Off-diagonal rows j and j+1 share the interval between cuts j and j+1.
    mid_mu = mu[1:-1]
    shared = 1.0 + (a[:-1] - mid_mu) * (a[1:] - mid_mu) / var[1:-1]
    sub = np.exp(log_r[:-1] - lq[1:-1]) * shared
    sup = np.exp(log_r[1:] - lq[1:-1]) * shared
    return Tridiagonal(sub=sub, diag=diag, sup=sup)


def _solve_tridiagonal(J: Tridiagonal, rhs: np.ndarray) -> np.ndarray:
    """Solve ``J x = rhs``; a 1x1 system is a division.

    Larger systems go straight to LAPACK ``dgtsv`` (Gaussian elimination with
    partial pivoting), the routine ``scipy.linalg.solve_banded`` calls for one
    sub- and one super-diagonal, without that wrapper's per-call checks.
    Raises ``LinAlgError`` when elimination meets an exactly zero pivot.
    """
    if J.n == 1:
        return rhs / J.diag[0]
    _, _, _, x, info = dgtsv(J.sub, J.diag, J.sup, rhs)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x


def classify_critical_point(
    family: FamilyModel,
    marginal: MarginalModel,
    codebook: CodeBook,
    grad_norm: float,
    threshold: float = _CRITICAL_GRAD_THRESHOLD,
) -> str:
    """Classify a near-critical configuration via the length Hessian.

    At a zero of the gradient map the Hessian of the expected length equals
    diag(r(a_1),...,r(a_n)) times the Jacobian of G; away from a zero the
    identity carries an error term proportional to G, so configurations with
    ``grad_norm`` above ``threshold`` are reported as not critical rather
    than misclassified.  The eigenvalues come from LAPACK ``dstevd`` without
    eigenvectors, the driver ``scipy.linalg.eigvalsh_tridiagonal`` picks for
    the whole spectrum; ``LinAlgError`` means it did not converge.
    """
    if not grad_norm <= threshold:
        return NOT_CRITICAL
    J = jacobian(family, marginal, codebook)
    # The Hessian is diag(r(a)) @ J, but the densities underflow for far-out
    # cut-points.  diag(r)^(1/2) @ J @ diag(r)^(-1/2) is congruent to it, so
    # it has the same inertia (Sylvester), is symmetric at a critical point,
    # and its off-diagonal entries are the geometric means of J's finite
    # off-diagonal pairs; its scale stays representable.
    if J.n == 1:
        return LOCAL_MINIMUM if J.diag[0] > 0.0 else SADDLE
    off = np.sign(J.sup) * np.sqrt(np.maximum(J.sub * J.sup, 0.0))
    eigenvalues, _, info = dstevd(J.diag, off, compute_v=0)
    if info > 0:
        raise np.linalg.LinAlgError(f"dstevd did not converge (LAPACK info={info})")
    return LOCAL_MINIMUM if np.all(eigenvalues > 0.0) else SADDLE


def continuity_gaps(family: FamilyModel, marginal: MarginalModel, codebook: CodeBook) -> np.ndarray:
    """|G|: the size of the jump of the log two-part code density at each cut.

    The log carrier is continuous, so the jump of the log code density is
    the jump of the bracket that :func:`gradient` differences.
    """
    return np.abs(gradient(family, marginal, codebook))


@dataclass(frozen=True)
class SolverOptions:
    """Damped-Newton controls.

    ``tol`` bounds the max-norm of the gradient map at convergence.  Each
    rejected step is halved at most ``backtrack_max`` times; a candidate is
    accepted only if it keeps strict ordering inside the support and lowers
    the gradient norm.  A run stops unconverged after ``max_iter`` accepted
    steps, or earlier on one of three faults: a singular or non-finite
    Newton step, ``backtrack_max`` halvings that all fail, or a stall, where
    two accepted steps in a row each lower the gradient norm by less than 1%.
    """

    tol: float = 1e-12
    max_iter: int = 200
    backtrack_max: int = 30


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one Newton run.

    ``message_length`` is the expected two-part length (nats), ``entropy``
    the one-part length, ``redundancy`` their difference.  ``converged``
    holds exactly when ``final_grad_norm <= tol``; non-convergence is
    reported here, never raised.  ``continuity_gaps`` is |G| at the final
    cuts, so its maximum is ``final_grad_norm``.  ``grad_norm_trace``
    records the gradient norm at every accepted iterate.  ``diagnostic``
    says why an unconverged run ended: a singular or non-finite Newton step,
    exhausted step halvings, a stall, or ``max_iter`` used up; it is empty
    when the run converged.
    """

    codebook: CodeBook
    message_length: float
    entropy: float
    redundancy: float
    converged: bool
    iterations: int
    final_grad_norm: float
    classification: str
    continuity_gaps: tuple[float, ...]
    grad_norm_trace: tuple[float, ...]
    diagnostic: str = ""

    @property
    def cuts(self) -> tuple[float, ...]:
        return self.codebook.cuts.points


def _feasible(family: FamilyModel, a: np.ndarray) -> bool:
    """Strictly increasing inside the open support, hence finite (NaN fails)."""
    bounds = (family.support_lo, *a.tolist(), family.support_hi)
    return all(lo < hi for lo, hi in pairwise(bounds))


def _report(family, marginal, codebook, residual, converged, iterations, trace, diagnostic):
    length = message_length(family, marginal, codebook)
    entropy = marginal_entropy(marginal)
    gaps = np.abs(residual)
    grad_norm = float(np.max(gaps))
    return SolveReport(
        codebook=codebook,
        message_length=length,
        entropy=entropy,
        redundancy=length - entropy,
        converged=converged,
        iterations=iterations,
        final_grad_norm=grad_norm,
        classification=classify_critical_point(family, marginal, codebook, grad_norm),
        continuity_gaps=tuple(gaps.tolist()),
        grad_norm_trace=tuple(trace),
        diagnostic=diagnostic,
    )


def newton_solve(
    family: FamilyModel,
    marginal: MarginalModel,
    initial,
    options: SolverOptions | None = None,
) -> SolveReport:
    """Damped Newton iteration on the stationarity map.

    Each step solves the tridiagonal system J d = -G directly; the step is
    then halved until the candidate stays strictly ordered inside the support
    and strictly lowers the gradient max-norm.  Three faults end the run
    early with ``converged=False`` and a diagnostic message: a singular
    system or non-finite step, a back-tracking loop that exhausts its
    halvings, and a stall, where two accepted steps in a row each lower the
    gradient max-norm by less than 1%.  A run that creeps towards a fold of G
    would otherwise keep taking steps that need a dozen or more halvings.
    A run that uses up ``max_iter`` unconverged says so in its diagnostic.
    """
    opts = options or SolverOptions()
    a = _as_cuts(initial).as_array()
    if not _feasible(family, a):
        raise SupportError(f"initial cut-points are infeasible: {a.tolist()}")
    codebook = codebook_from_cutpoints(family, marginal, a)
    residual = gradient(family, marginal, codebook)
    grad_norm = float(np.max(np.abs(residual)))
    trace = [grad_norm]
    iterations = 0
    diagnostic = ""

    while grad_norm > opts.tol and iterations < opts.max_iter:
        try:
            step = _solve_tridiagonal(jacobian(family, marginal, codebook), -residual)
        except np.linalg.LinAlgError as exc:
            diagnostic = f"singular tridiagonal system at iteration {iterations}: {exc}"
            break
        if not np.all(np.isfinite(step)):
            diagnostic = f"non-finite Newton step at iteration {iterations}"
            break
        accepted = False
        scale = 1.0
        for _ in range(opts.backtrack_max + 1):
            candidate = a + scale * step
            if _feasible(family, candidate):
                cand_book = codebook_from_cutpoints(family, marginal, candidate)
                cand_res = gradient(family, marginal, cand_book)
                cand_norm = float(np.max(np.abs(cand_res)))
                if math.isfinite(cand_norm) and cand_norm < grad_norm:
                    a, codebook, residual, grad_norm = candidate, cand_book, cand_res, cand_norm
                    accepted = True
                    break
            scale *= 0.5
        if not accepted:
            diagnostic = (
                f"no damped step reduced the residual at iteration {iterations} "
                f"(gradient norm {grad_norm:.3e})"
            )
            break
        iterations += 1
        trace.append(grad_norm)
        if (
            grad_norm > opts.tol
            and len(trace) >= 3
            and trace[-1] > _STALL_RATIO * trace[-2]
            and trace[-2] > _STALL_RATIO * trace[-3]
        ):
            diagnostic = (
                f"stalled at iteration {iterations}: two steps each lowered the "
                f"gradient norm by less than {1 - _STALL_RATIO:.0%} "
                f"(gradient norm {grad_norm:.3e})"
            )
            break
    else:
        if grad_norm > opts.tol:
            diagnostic = f"reached max_iter={opts.max_iter} (gradient norm {grad_norm:.3e})"

    return _report(
        family, marginal, codebook, residual,
        converged=grad_norm <= opts.tol,
        iterations=iterations,
        trace=trace,
        diagnostic=diagnostic,
    )


def _insertion_residual(
    family: FamilyModel, marginal: MarginalModel, base: np.ndarray, x: float, side: int
) -> float:
    """Stationarity residual at a new cut `x` placed outside the cuts `base`.

    Only the two intervals adjacent to the new cut matter, so this costs two
    loose-tolerance interval integrals regardless of the size of `base`.
    """
    if side > 0:
        lo_edge = base[-1] if base.size else family.support_lo
        inner = interval_integrals(marginal, lo_edge, x, rel_tol=_SCAN_TOL)
        outer = interval_integrals(marginal, x, family.support_hi, rel_tol=_SCAN_TOL)
        below, above = inner, outer
    else:
        hi_edge = base[0] if base.size else family.support_hi
        inner = interval_integrals(marginal, x, hi_edge, rel_tol=_SCAN_TOL)
        outer = interval_integrals(marginal, family.support_lo, x, rel_tol=_SCAN_TOL)
        below, above = outer, inner

    def bracket(iv):
        th = family.invert_mean(iv.centroid)
        return iv.log_mass + x * th - family.log_partition(th)

    return bracket(above) - bracket(below)


def _outward_root(
    family: FamilyModel,
    marginal: MarginalModel,
    base: np.ndarray,
    side: int,
    candidates: Sequence[float],
) -> float | None:
    """Outermost sign change of the insertion residual, refined by bisection.

    `candidates` must be ordered outward (away from the existing cuts).  The
    residual is oriented by `side` (mirror antisymmetry flips its sign on the
    left): so oriented, it diverges to +inf against the nearest cut and grows
    again in the far tail, dipping negative around the useful stationary
    placements.  The outermost crossing back to positive marks the new outer
    cut.
    """

    def oriented(x: float) -> float:
        return side * _insertion_residual(family, marginal, base, x, side)

    values: list[tuple[float, float]] = []
    crossings = 0
    rising = 0
    for x in candidates:
        try:
            f = oriented(x)
        except (ValueError, SupportError, ArithmeticError):
            continue
        if values and values[-1][1] <= 0.0 < f:
            crossings += 1
        rising = rising + 1 if f > 0.0 and (not values or f >= values[-1][1]) else 0
        values.append((x, f))
        # once past the outermost dip the oriented residual only grows
        if crossings and rising >= 6:
            break
    pick = None
    for (x0, f0), (x1, f1) in pairwise(values):
        if f0 <= 0.0 < f1:
            pick = (x0, x1)
    if pick is None:
        return None
    near, far = pick
    for _ in range(30):
        mid = 0.5 * (near + far)
        if mid == near or mid == far:
            break
        try:
            fm = oriented(mid)
        except (ValueError, SupportError, ArithmeticError):
            break
        if fm <= 0.0:
            near = mid
        else:
            far = mid
    return 0.5 * (near + far)


def _first_cut_candidates(marginal: MarginalModel) -> list[float]:
    levels = (
        [1e-9, 1e-7, 1e-5, 1e-3, 0.01]
        + [round(0.05 * k, 2) for k in range(1, 20)]
        + [0.99, 0.999, 1 - 1e-5, 1 - 1e-7, 1 - 1e-9]
    )
    return [marginal.quantile(p) for p in levels]


def _insertion_candidates(
    family: FamilyModel, marginal: MarginalModel, base: np.ndarray, side: int
) -> list[float]:
    pts = base.tolist()
    if len(pts) >= 2:
        scale = pts[-1] - pts[-2] if side > 0 else pts[1] - pts[0]
    else:
        scale = max(marginal.quantile(0.75) - marginal.quantile(0.25), 1e-6)
    edge = pts[-1] if side > 0 else pts[0]
    bound = family.support_hi if side > 0 else family.support_lo
    out: list[float] = []
    step = 0.05 * scale
    for _ in range(90):
        x = edge + side * step
        if not (min(edge, bound) < x < max(edge, bound)):
            break
        out.append(x)
        step *= 1.5
    return out


def _insertion_starts(
    family: FamilyModel,
    marginal: MarginalModel,
    parents: Sequence[SolveReport],
    grandparents: Sequence[SolveReport],
    roots: dict[tuple[tuple[float, ...], int], float | None],
) -> list[np.ndarray]:
    """Continuation starts: parents extended by one cut, grandparents by two.

    Single-side extensions track how the optima for successive n share their
    inner cut-points; the simultaneous left+right extension covers the
    parity-preserving growth (even n from n-2, odd from odd) seen when a new
    outermost interval appears on both flanks at once.  ``roots`` memoises
    the outer-extension roots by (cuts, side): the grandparents were the
    previous stage's parents, so their scans are already in it.
    """

    def root(cuts: tuple[float, ...], side: int) -> float | None:
        if (cuts, side) not in roots:
            base = np.asarray(cuts)
            cands = _insertion_candidates(family, marginal, base, side)
            roots[cuts, side] = _outward_root(family, marginal, base, side, cands)
        return roots[cuts, side]

    starts: list[np.ndarray] = []
    for sol in parents[:2]:
        for side in (1, -1):
            x = root(sol.cuts, side)
            if x is not None:
                starts.append(np.array(sorted((*sol.cuts, x))))
    for sol in grandparents[:2]:
        right, left = root(sol.cuts, 1), root(sol.cuts, -1)
        if right is not None and left is not None:
            starts.append(np.array((left, *sol.cuts, right)))
    return starts


def _dedup_sorted(reports: list[SolveReport]) -> list[SolveReport]:
    """Converged local minima, best first, one per cut-point configuration.

    Lengths within ``_LENGTH_TIE`` of the first of a run are ties; ties go
    most compact first (smallest largest |cut|), so the order does not hang
    on the last bits of the lengths.
    """
    kept = [r for r in reports if r.converged and r.classification == LOCAL_MINIMUM]
    kept.sort(key=lambda r: r.message_length)
    ordered: list[SolveReport] = []
    while len(ordered) < len(kept):
        top = kept[len(ordered)].message_length + _LENGTH_TIE
        ties = [r for r in kept[len(ordered):] if r.message_length <= top]
        ordered += sorted(ties, key=lambda r: (max(map(abs, r.cuts)), r.cuts))
    deduped: list[SolveReport] = []
    for report in ordered:
        a = np.asarray(report.cuts)
        if all(
            np.max(np.abs(a - np.asarray(other.cuts))) > _DEDUP_TOL
            for other in deduped
        ):
            deduped.append(report)
    return deduped


def solve_sweep(
    family: FamilyModel,
    marginal: MarginalModel,
    n_min: int,
    n_max: int,
    options: SolverOptions | None = None,
) -> dict[int, list[SolveReport]]:
    """Solve for every cut-point count from 1 up to ``n_max`` by continuation.

    Stage 1 locates the outermost stationary placement of a single cut by a
    direct scan of the scalar residual.  Each later stage seeds Newton with
    the previous stage's best solutions extended by one new outer cut on
    either side (placed at the outermost scalar stationarity root), plus the
    one quantile start at levels i/(n+1).  This follows the empirical
    structure of the optima, whose cut-point sets nest as n grows; quantile
    starts alone land in interior saddle basins and, for far-out cuts, the
    required quantile levels are not even representable in double precision.

    Returns the deduplicated, best-first solution lists for each n in
    [n_min, n_max].  Deterministic for a fixed option set.  No solver state
    is kept between calls; only the bounded memo of the normal Mills-ratio
    terms persists, and as a memo of pure functions it cannot change a result.
    """
    if not 1 <= n_min <= n_max:
        raise ValueError(f"need 1 <= n_min <= n_max, got ({n_min!r}, {n_max!r})")
    opts = options or SolverOptions()
    stages: dict[int, list[SolveReport]] = {}
    parents: list[SolveReport] = []
    grandparents: list[SolveReport] = []
    roots: dict[tuple[tuple[float, ...], int], float | None] = {}
    for stage in range(1, n_max + 1):
        starts: list[np.ndarray] = []
        if stage == 1:
            root = _outward_root(
                family, marginal, np.empty(0), 1, _first_cut_candidates(marginal)
            )
            if root is not None:
                starts.append(np.array([root]))
        else:
            starts.extend(_insertion_starts(family, marginal, parents, grandparents, roots))
        levels = np.arange(1, stage + 1) / (stage + 1)
        starts.append(np.array([marginal.quantile(p) for p in levels]))
        reports = []
        for start in starts:
            if not _feasible(family, start):
                continue
            reports.append(newton_solve(family, marginal, start, opts))
        stages[stage] = _dedup_sorted(reports)
        grandparents = parents
        parents = stages[stage]
    return {m: stages[m] for m in range(n_min, n_max + 1)}


def multi_start_solve(
    family: FamilyModel,
    marginal: MarginalModel,
    n: int,
    options: SolverOptions | None = None,
) -> list[SolveReport]:
    """Deterministic multi-start Newton for a fixed number of cut-points.

    Runs the continuation pipeline of :func:`solve_sweep` up to ``n`` (the
    quantile start at levels i/(n+1) is included at every stage) and returns
    the stage-``n`` solutions: converged local minima only (Newton happily
    converges to saddles of the expected length; those are not estimators),
    deduplicated at 1e-6 in cut-point space, sorted by message length;
    lengths within 1e-12 are ties, ordered most compact first.  May be empty
    if no start converges.
    """
    if n < 1:
        raise ValueError(f"need at least one cut-point, got n={n!r}")
    return solve_sweep(family, marginal, n, n, options)[n]


@dataclass(frozen=True)
class CurveTable:
    """Pointwise code-length densities along the data axis.

    ``one_part`` is -r log r (integrates to the entropy), ``two_part`` is
    -r log(q f) with the step code book (integrates to the message length).
    """

    x: np.ndarray
    one_part: np.ndarray
    two_part: np.ndarray
    density: np.ndarray

    def rows(self):
        return zip(self.x, self.one_part, self.two_part, self.density)


def curve_samples(
    family: FamilyModel,
    marginal: MarginalModel,
    codebook: CodeBook,
    x_lo: float,
    x_hi: float,
    count: int,
) -> CurveTable:
    """Sample the one-part and two-part code-length densities on a grid.

    Each abscissa picks up the coding probability and assertion of the
    interval it falls in (cut-points belong to the interval on their right).
    Points outside the support contribute zero rows.
    """
    x_lo, x_hi = float(x_lo), float(x_hi)
    if not x_lo < x_hi:
        raise ValueError(f"need x_lo < x_hi, got ({x_lo!r}, {x_hi!r})")
    count = int(count)
    if count < 2:
        raise ValueError(f"need at least two samples, got count={count!r}")
    x = np.linspace(x_lo, x_hi, count)
    log_r = np.asarray(marginal.log_pdf(x), dtype=float)
    lq = np.asarray(codebook.log_q)
    th = np.asarray(codebook.theta_hat)
    lp = np.array([family.log_partition(t) for t in codebook.theta_hat])
    idx = np.searchsorted(codebook.cuts.as_array(), x, side="right")
    with np.errstate(invalid="ignore", over="ignore"):
        r = np.exp(log_r)
        log_code = lq[idx] + x * th[idx] - lp[idx] + np.asarray(family.log_carrier(x), dtype=float)
        one_part = np.where(r > 0.0, -r * log_r, 0.0)
        two_part = np.where(r > 0.0, -r * log_code, 0.0)
    return CurveTable(x=x, one_part=one_part, two_part=two_part, density=r)

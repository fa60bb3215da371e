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
on ``G``, and :func:`solve_sweep` starts it from continuation starts (the
previous stages' books with new outer cuts), keeps the local minima
(converged, or at the rounding floor of ``G``) and ranks them by code length.

All q-dependent arithmetic stays on ``log q`` and every density/mass ratio is
formed as ``exp(log r - log q)``, so the solver keeps working when interval
masses are far below the smallest positive double.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from operator import lt, mul, sub
from typing import TYPE_CHECKING

from .families import FamilyModel, MarginalModel, SupportError
from .quadrature import differential_entropy, expectation, interval_integrals

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "LOCAL_MINIMUM",
    "SADDLE",
    "NOT_CRITICAL",
    "CodeBook",
    "Tridiagonal",
    "SolveReport",
    "CurveTable",
    "codebook_from_cutpoints",
    "message_length",
    "marginal_entropy",
    "gradient",
    "jacobian",
    "newton_solve",
    "classify_critical_point",
    "solve_sweep",
    "curve_samples",
]

LOCAL_MINIMUM = "local-minimum"
SADDLE = "saddle/indefinite"
NOT_CRITICAL = "not-critical"

_DEDUP_TOL = 1e-6
# A start whose mirror image is this close, cut by cut, to a start already run
# takes the reflection of that run (mirror-symmetric pairs only).
_MIRROR_REL = 1e-9
# Rounding moves a length by ~1e-15; distinct minima differ by 5.4e-7 or more.
_LENGTH_TIE = 1e-12
_CRITICAL_GRAD_THRESHOLD = 1e-8  # |G| above it is not classified (not critical)
# Newton's stopping rule.  On the normal and Lomax sweeps no run takes more
# than 20 steps, and every tolerance from 1e-8 to 1e-300 gives the same best
# lengths to 10 digits; runs stopped at 1e-6 are not classified (above).
_TOL = 1e-12  # max-norm of G at convergence
_MAX_ITER = 200  # accepted steps per run
_BACKTRACK_MAX = 30  # step halvings tried before a Newton run gives up
_SCAN_TOL = 1e-6  # placement scans only need a few digits
# A Newton run whose last two accepted steps each kept more than this share of
# the gradient norm has stalled; runs that reach a minimum cut it by at least
# 11% in one of any two steps in a row.
_STALL_RATIO = 0.99
# G_j is a difference of terms (log q, a*theta, A(theta)) that reach 1e4 and
# more at far-out cuts, so it cannot be resolved below a few ulps of the
# largest of them.  On the normal sweeps the floor stops reach 4.5 ulps at
# alpha=2, n <= 40 (a bound of 4 loses an n=40 minimum), and 8.0 at
# alpha=30, n <= 50.
_FLOOR_ULPS = 8.0
# The insertion root is refined until its Newton step or its bracket is this
# share of the scan bracket: the width 30 bisection halvings reach.
_ROOT_REL_WIDTH = 2.0**-30


@dataclass(frozen=True)
class CodeBook:
    """Cut-points and per-interval log masses, assertions, centroids, log partitions.

    ``cuts`` is a tuple of n floats, strictly increasing inside the open
    support; n may be 0, the book of one interval that asserts one value
    for every datum.  ``log_q`` has n+1 finite entries summing (after
    exponentiation) to 1; ``centroids[i]`` equals ``mean(theta_hat[i])`` and
    lies strictly inside interval i.  ``log_partition[i]`` is the family's
    ``log_partition(theta_hat[i])``, so the log code density on interval i is
    ``log_q[i] + x * theta_hat[i] - log_partition[i]`` plus the log carrier.
    """

    cuts: tuple[float, ...]
    log_q: tuple[float, ...]
    theta_hat: tuple[float, ...]
    centroids: tuple[float, ...]
    log_partition: tuple[float, ...]

    @property
    def n(self) -> int:
        return len(self.cuts)


def codebook_from_cutpoints(
    family: FamilyModel, marginal: MarginalModel, cuts, *, records=None
) -> CodeBook:
    """Build the optimal code book for fixed cut-points.

    ``cuts`` is any sequence of numbers, stored as a tuple of floats; an
    empty one gives the one-interval book.  Each interval's coding
    probability is its marginal mass and each assertion is the natural
    parameter matching the interval's centroid.  Raises ``SupportError``
    unless the cuts are strictly increasing inside the open support (so
    finite and not NaN), and ``ArithmeticError`` when a log mass, assertion
    or centroid is not finite: a mass that underflows to 0, or an assertion
    or centroid that overflows.

    ``records`` is a cache, a dict from an interval's ends ``(lo, hi)`` to
    its ``(log q, theta_hat, centroid, log_partition)``, shared by builds
    with the same family and marginal.  An interval found there is taken
    from it, not integrated again, and each finite interval the build
    integrates is written into it; each record is a pure function of its
    two ends, so the cache never changes a result.
    """
    cuts = tuple(map(float, cuts))
    lo, hi = marginal.support_lo, marginal.support_hi
    if not _feasible(marginal, cuts):
        raise SupportError(
            f"cut-points must be strictly increasing inside the support ({lo!r}, {hi!r}), "
            f"got {cuts}"
        )
    if records is None:
        records = {}
    bounds = (lo, *cuts, hi)
    rows = []
    finite = True
    for end in zip(bounds, bounds[1:]):
        row = records.get(end)
        if row is None:
            log_q, centroid = interval_integrals(marginal, *end)
            theta = family.invert_mean(centroid)
            # raise only once every interval is integrated, so an interval
            # whose integral raises does so first, wherever it lies
            if math.isfinite(log_q) and math.isfinite(theta) and math.isfinite(centroid):
                row = records[end] = (log_q, theta, centroid, family.log_partition(theta))
            else:
                finite = False
                row = (log_q, theta, centroid, math.nan)
        rows.append(row)
    if not finite:
        raise ArithmeticError(f"a log q, assertion or centroid is not finite at cut-points {cuts}")
    return CodeBook(cuts, *zip(*rows))


def _carrier_constant(family: FamilyModel, marginal: MarginalModel) -> float:
    """K = -E_r[log carrier]: the marginal's closed form, else quadrature."""
    if marginal.carrier_constant is not None:
        return marginal.carrier_constant
    return _quadrature_carrier_constant(family, marginal)


def marginal_entropy(marginal: MarginalModel) -> float:
    """Differential entropy of the marginal (the one-part length).

    The built-in marginals carry it in closed form; any other marginal is
    integrated by quadrature, cached per model object.
    """
    if marginal.entropy is not None:
        return marginal.entropy
    return _quadrature_entropy(marginal)


# Every make_* call builds new model objects, so these caches only serve
# repeat calls with the same objects; a small bound keeps them from growing.
@lru_cache(maxsize=16)
def _quadrature_carrier_constant(family: FamilyModel, marginal: MarginalModel) -> float:
    import numpy as np
    return expectation(marginal, lambda x: -np.asarray(family.log_carrier(x), dtype=float))


@lru_cache(maxsize=16)
def _quadrature_entropy(marginal: MarginalModel) -> float:
    return differential_entropy(marginal)


def message_length(family: FamilyModel, marginal: MarginalModel, codebook: CodeBook) -> float:
    """Expected two-part code length of the code book, in nats.

    Intervals whose mass underflows contribute q*log q -> 0 and drop out
    automatically; their log_q entries stay finite so the gradient machinery
    is unaffected.
    """
    total = _carrier_constant(family, marginal)
    for lq, th, lp in zip(codebook.log_q, codebook.theta_hat, codebook.log_partition):
        q = math.exp(lq)
        if q > 0.0:
            total -= q * (lq + th * family.mean(th) - lp)
    return total


def gradient(family: FamilyModel, marginal: MarginalModel, codebook: CodeBook) -> np.ndarray:
    """Stationarity residuals: jump of the log code density at each cut-point.

    The derivative of the expected length in ``a_j`` is ``r(a_j)`` times the
    j-th entry of this vector; the entries are computed entirely in the log
    domain, on Python floats, and returned as an array.
    """
    import numpy as np
    lq, th, lp = codebook.log_q, codebook.theta_hat, codebook.log_partition
    return np.array([
        (q1 + x * t1 - p1) - (q0 + x * t0 - p0)
        for x, q0, q1, t0, t1, p0, p1 in zip(codebook.cuts, lq, lq[1:], th, th[1:], lp, lp[1:])
    ])


@dataclass(frozen=True)
class Tridiagonal:
    """Tridiagonal matrix; entries beyond the three bands are identically zero.

    :func:`jacobian` returns one, its bands as arrays; Newton's solve reads
    the bands as lists and builds none.
    """

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    @property
    def n(self) -> int:
        return len(self.diag)

    def to_dense(self) -> np.ndarray:
        import numpy as np
        out = np.diag(self.diag)
        if self.n > 1:
            out += np.diag(self.sub, k=-1) + np.diag(self.sup, k=1)
        return out


def jacobian(family: FamilyModel, marginal: MarginalModel, codebook: CodeBook) -> Tridiagonal:
    """Jacobian of :func:`gradient` in the cut-points.

    Only bands |row - col| <= 1 are nonzero.  Density/mass ratios are formed
    as exp(log r - log q), never as quotients of possibly-underflowed values.
    The bands are formed on Python floats; the cut densities come from one
    array call of the marginal's ``log_pdf``, so a replaced ``log_pdf`` is
    read here as everywhere else, and the ratios from one ``np.exp`` call,
    whose last bits ``math.exp`` does not always match.
    Raises ``ZeroDivisionError`` where an assertion's variance rounds to 0,
    as a Lomax interval's 1/theta^2 does once theta^2 overflows.
    """
    import numpy as np
    lower, diag, upper = _jacobian_bands(family, marginal, codebook)
    return Tridiagonal(sub=np.array(lower), diag=np.array(diag), sup=np.array(upper))


def _jacobian_bands(
    family: FamilyModel, marginal: MarginalModel, codebook: CodeBook
) -> tuple[list[float], list[float], list[float]]:
    """The bands (sub, diag, sup) of :func:`jacobian` as lists of Python floats.

    The densities at the cuts come from one array call of the marginal's
    ``log_pdf``, and the ratios from one ``np.exp`` call.  Mapping the density
    over the floats would give the same bits for the built-in marginals, but
    costs the Lomax one a numpy round trip per cut.
    """
    import numpy as np
    a, lq, th, mu = codebook.cuts, codebook.log_q, codebook.theta_hat, codebook.centroids
    var = list(map(family.variance, th))
    log_r = np.asarray(marginal.log_pdf(np.array(a)), dtype=float).tolist()
    n = len(a)
    # r(a_j) / q_j, then r(a_j) / q_{j-1}
    ratios = np.exp([*map(sub, log_r, lq[1:]), *map(sub, log_r, lq)]).tolist()
    r_over_up, r_over_lo = ratios[:n], ratios[n:]
    diag = [
        t1 - t0 - up * (1.0 + (x - m1) * (x - m1) / v1) - lo * (1.0 + (x - m0) * (x - m0) / v0)
        for x, t0, t1, m0, m1, v0, v1, up, lo
        in zip(a, th, th[1:], mu, mu[1:], var, var[1:], r_over_up, r_over_lo)
    ]
    # Off-diagonal rows j and j+1 share the interval between cuts j and j+1.
    shared = [1.0 + (x0 - m) * (x1 - m) / v for x0, x1, m, v in zip(a, a[1:], mu[1:], var[1:])]
    return (
        list(map(mul, r_over_up, shared)),      # r(a_j) / q_j
        diag,
        list(map(mul, r_over_lo[1:], shared)),  # r(a_{j+1}) / q_j
    )


def _solve_tridiagonal(lower, diag, upper, rhs) -> list[float]:
    """Solve the tridiagonal system with bands (sub, diag, sup) for ``rhs``
    by Gaussian elimination with partial pivoting.

    A transcription of reference LAPACK ``dgtsv`` for one right-hand side,
    in its operation order, so the solution is the one
    ``scipy.linalg.solve_banded`` gives, bit for bit.  Rows i and i+1 swap
    where |diag_i| < |sub_i|; the back substitution is the three-term
    recurrence.  It works on lists of floats copied from the bands and
    ``rhs`` (any sequences of numbers), so they are left unchanged, and
    returns a list.  A zero pivot, where ``dgtsv`` reports a singular
    matrix, raises ``ZeroDivisionError`` at its division, as does a NaN
    diagonal entry over a zero sub-diagonal entry.
    """
    n = len(diag)
    dl, d, du, b = (list(map(float, v)) for v in (lower, diag, upper, rhs))
    for i in range(n - 1):
        if abs(d[i]) >= abs(dl[i]):
            fact = dl[i] / d[i]
            d[i + 1] -= fact * du[i]
            b[i + 1] -= fact * b[i]
            dl[i] = 0.0
        else:
            fact = d[i] / dl[i]
            d[i] = dl[i]
            temp = d[i + 1]
            d[i + 1] = du[i] - fact * temp
            if i < n - 2:
                dl[i] = du[i + 1]
                du[i + 1] = -fact * dl[i]
            du[i] = temp
            b[i], b[i + 1] = b[i + 1], b[i] - fact * b[i + 1]
    b[n - 1] /= d[n - 1]
    if n > 1:
        b[n - 2] = (b[n - 2] - du[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - dl[i] * b[i + 2]) / d[i]
    return b


def classify_critical_point(
    family: FamilyModel,
    marginal: MarginalModel,
    codebook: CodeBook,
    grad_norm: float,
) -> str:
    """Classify a near-critical configuration via the length Hessian.

    At a zero of the gradient map the Hessian of the expected length equals
    diag(r(a_1),...,r(a_n)) times the Jacobian of G; away from a zero the
    identity carries an error term proportional to G, so configurations with
    ``grad_norm`` above ``_CRITICAL_GRAD_THRESHOLD`` (1e-8) are reported as
    not critical rather than misclassified.  The test is the sign of the
    LDL^T pivots of a symmetric matrix congruent to the Hessian: by
    Sylvester's law of inertia it has as many negative pivots as negative
    eigenvalues, so the book is a minimum exactly when every pivot is > 0.
    The zero-cut book has no pivot and no direction to descend in, so it is
    a minimum.
    """
    if not grad_norm <= _CRITICAL_GRAD_THRESHOLD:
        return NOT_CRITICAL
    try:
        lower, diag, upper = _jacobian_bands(family, marginal, codebook)
    except ArithmeticError:  # a variance that rounds to 0 gives no pivots
        return SADDLE
    # The Hessian is diag(r(a)) @ J, but the densities underflow for far-out
    # cut-points.  diag(r)^(1/2) @ J @ diag(r)^(-1/2) is congruent to it, so
    # it has the same inertia (Sylvester), is symmetric at a critical point,
    # and the squares of its off-diagonal entries are max(sub*sup, 0) from
    # J's finite off-diagonal pairs; its scale stays representable.  Row 0
    # has no pair, and the infinite pivot above it leaves its entry as it is.
    pivot = math.inf
    for d, below, above in zip(diag, [0.0, *lower], [0.0, *upper]):
        if not pivot > 0.0:
            return SADDLE
        pivot = d - max(below * above, 0.0) / pivot
    return LOCAL_MINIMUM if pivot > 0.0 else SADDLE


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one Newton run.

    ``message_length`` is the expected two-part length (nats) and
    ``entropy`` the one-part length.  ``continuity_gaps`` is |G| at the final
    cuts, and ``grad_norm_trace`` the gradient max-norm at the start and at
    every accepted iterate; the final norm, the iteration count, convergence,
    the redundancy and whether the run is kept are derived from these fields.
    Non-convergence is reported here, never raised.
    ``at_floor`` marks the other way a run can find a stationary book: it
    ended unconverged with every |G_j| within ``_FLOOR_ULPS`` ulps of the
    largest term forming G_j, so G is rounding noise there and ``_TOL`` is
    out of reach.  ``diagnostic`` says why an unconverged run ended: the
    rounding floor, a start whose G is NaN, a singular or non-finite Newton
    step, exhausted step halvings, a stall, ``_MAX_ITER`` (200) steps used
    up, or a start whose code book cannot be built (then the lengths, G and
    its norm are NaN); it is empty when the run converged.
    """

    codebook: CodeBook
    message_length: float
    entropy: float
    classification: str
    continuity_gaps: tuple[float, ...]
    grad_norm_trace: tuple[float, ...]
    diagnostic: str = ""
    at_floor: bool = False

    @property
    def cuts(self) -> tuple[float, ...]:
        return self.codebook.cuts

    @property
    def iterations(self) -> int:
        """Accepted Newton steps: one per entry of the trace after the start."""
        return len(self.grad_norm_trace) - 1

    @property
    def final_grad_norm(self) -> float:
        """Max-norm of G at the final cuts: the largest continuity gap."""
        return self.grad_norm_trace[-1]

    @property
    def converged(self) -> bool:
        """``final_grad_norm <= _TOL`` (1e-12)."""
        return self.final_grad_norm <= _TOL

    @property
    def redundancy(self) -> float:
        """Two-part minus one-part length, in nats."""
        return self.message_length - self.entropy

    @property
    def kept(self) -> bool:
        """A local minimum that converged or ended at the rounding floor of
        G: the runs :func:`solve_sweep` keeps."""
        return (self.converged or self.at_floor) and self.classification == LOCAL_MINIMUM


def _feasible(marginal: MarginalModel, cuts: tuple[float, ...]) -> bool:
    """Strictly increasing inside the open support, hence finite (NaN fails):
    the one test of a valid cut vector."""
    bounds = (marginal.support_lo, *cuts, marginal.support_hi)
    return all(map(lt, bounds, bounds[1:]))


def _max_abs(values) -> float:
    """Max-norm as ``np.max(np.abs(values), initial=0.0)`` gives it: NaN
    when any entry is NaN, which ``max`` alone may pass over."""
    gaps = list(map(abs, values))
    return math.nan if math.isnan(sum(gaps)) else max(gaps, default=0.0)


def _at_floor(codebook: CodeBook, residual) -> bool:
    """Every |G_j| lies within ``_FLOOR_ULPS`` ulps of the largest term of G_j.

    Only near-critical books are checked: a local minimum has to pass the
    ``_CRITICAL_GRAD_THRESHOLD`` gate of :func:`classify_critical_point`.
    Past that gate G is finite, so is every term, and ``math.ulp`` of the
    largest is numpy's spacing of it.
    """
    if not _max_abs(residual) <= _CRITICAL_GRAD_THRESHOLD:
        return False
    lq, th, lp = codebook.log_q, codebook.theta_hat, codebook.log_partition
    return all(
        abs(g) <= _FLOOR_ULPS * math.ulp(
            max(abs(q1), abs(x * t1), abs(p1), abs(q0), abs(x * t0), abs(p0)))
        for g, x, q0, q1, t0, t1, p0, p1
        in zip(residual, codebook.cuts, lq, lq[1:], th, th[1:], lp, lp[1:])
    )


def newton_solve(
    family: FamilyModel, marginal: MarginalModel, initial, *, records=None
) -> SolveReport:
    """Damped Newton iteration on the stationarity map.

    The run stops converged once the max-norm of G is at most ``_TOL``
    (1e-12), and unconverged after ``_MAX_ITER`` (200) accepted steps.
    Each step solves the tridiagonal system J d = -G directly; the step is
    then halved until the candidate's code book builds and strictly lowers
    the gradient max-norm.  One rule rejects a candidate whose book cannot
    be built, whether its cuts leave the strict order inside the support or
    an interval integral raises ``ArithmeticError``: it counts as a trial
    that does not lower the norm.  Three faults end the run
    early with ``converged=False`` and a diagnostic message: a singular
    system or non-finite step (a Jacobian entry that raises
    ``ArithmeticError`` counts as singular), a back-tracking loop that
    exhausts its halvings, and a stall, where two accepted steps in a row
    each lower the gradient max-norm by less than 1%.  A run that creeps
    towards a fold of G would otherwise keep taking steps that need a dozen
    or more halvings.
    A run that uses up ``_MAX_ITER`` unconverged says so in its diagnostic.

    The run's one record is its trace of gradient max-norms: its last entry
    is the current norm, and its length less one the iteration count.

    Once every |G_j| is within ``_FLOOR_ULPS`` ulps of the largest term
    forming it, the residual is rounding noise: a step there is tried once at
    full length, since halving a step aimed at noise cannot help, and a run
    that then ends unconverged ends with ``at_floor`` set and a diagnostic
    naming the floor.  A start whose code book cannot be built gives a
    not-converged report with NaN lengths and residuals, and a start whose G
    is NaN ends at once.  The empty start is the zero-cut book: its G is
    empty, so the run converges at once, after 0 iterations, to a local
    minimum.  An invalid start raises ``SupportError``.

    ``records`` is the interval cache every build of the run reads and
    fills, the start's and each trial's (see :func:`codebook_from_cutpoints`);
    it never changes a result.
    """
    import numpy as np
    cuts = tuple(map(float, initial))
    # a non-finite G or J is a rejected trial or a failed run, not a fault to report
    with np.errstate(all="ignore"):
        try:
            codebook = codebook_from_cutpoints(family, marginal, cuts, records=records)
        except ArithmeticError as exc:
            return _unbuildable_report(marginal, cuts, exc)
        # G, its norms and the trial cuts stay Python floats between the calls
        residual = gradient(family, marginal, codebook).tolist()
        trace = [_max_abs(residual)]
        # a step is accepted only where the norm is finite, so only a start's G is NaN
        diagnostic = "the start's G is NaN" if math.isnan(trace[0]) else ""

        while not diagnostic and trace[-1] > _TOL:
            if len(trace) > _MAX_ITER:
                diagnostic = f"reached max_iter={_MAX_ITER} (gradient norm {trace[-1]:.3e})"
                break
            try:
                step = _solve_tridiagonal(
                    *_jacobian_bands(family, marginal, codebook), [-g for g in residual])
            except ArithmeticError as exc:
                diagnostic = f"singular tridiagonal system at iteration {len(trace) - 1}: {exc}"
                break
            if not all(map(math.isfinite, step)):
                diagnostic = f"non-finite Newton step at iteration {len(trace) - 1}"
                break
            trials = 1 if _at_floor(codebook, residual) else _BACKTRACK_MAX + 1
            for halvings in range(trials):
                h = 0.5**halvings
                candidate = tuple([x + h * d for x, d in zip(codebook.cuts, step)])
                # only valid cuts are built: each build is a start, a step or a normed trial
                if not _feasible(marginal, candidate):
                    continue
                try:
                    cand_book = codebook_from_cutpoints(
                        family, marginal, candidate, records=records)
                except ArithmeticError:  # an unbuildable candidate is a rejected trial
                    continue
                cand_res = gradient(family, marginal, cand_book).tolist()
                cand_norm = _max_abs(cand_res)
                if math.isfinite(cand_norm) and cand_norm < trace[-1]:
                    break
            else:
                diagnostic = (
                    f"no damped step reduced the residual at iteration {len(trace) - 1} "
                    f"(gradient norm {trace[-1]:.3e})"
                )
                break
            codebook, residual = cand_book, cand_res
            trace.append(cand_norm)
            if (
                trace[-1] > _TOL
                and len(trace) >= 3
                and trace[-1] > _STALL_RATIO * trace[-2]
                and trace[-2] > _STALL_RATIO * trace[-3]
            ):
                diagnostic = (
                    f"stalled at iteration {len(trace) - 1}: two steps each lowered the "
                    f"gradient norm by less than {1 - _STALL_RATIO:.0%} "
                    f"(gradient norm {trace[-1]:.3e})"
                )
                break

        at_floor = trace[-1] > _TOL and _at_floor(codebook, residual)
        if at_floor:
            diagnostic = (
                f"reached the rounding floor of G at iteration {len(trace) - 1}: every |G_j| is "
                f"within {_FLOOR_ULPS:g} ulps of its largest term (gradient norm {trace[-1]:.3e})"
            )
        return SolveReport(
            codebook=codebook,
            message_length=message_length(family, marginal, codebook),
            entropy=marginal_entropy(marginal),
            classification=classify_critical_point(family, marginal, codebook, trace[-1]),
            continuity_gaps=tuple(map(abs, residual)),
            grad_norm_trace=tuple(trace),
            diagnostic=diagnostic,
            at_floor=at_floor,
        )


def _unbuildable_report(
    marginal: MarginalModel, cuts: tuple[float, ...], exc: ArithmeticError
) -> SolveReport:
    nan = (math.nan,) * (len(cuts) + 1)
    return SolveReport(
        codebook=CodeBook(cuts, nan, nan, nan, nan),
        message_length=math.nan,
        entropy=marginal_entropy(marginal),
        classification=NOT_CRITICAL,
        continuity_gaps=nan[1:],
        grad_norm_trace=(math.nan,),
        diagnostic=f"the start's code book cannot be built: {exc}",
    )


def _insertion_residual(
    family: FamilyModel,
    marginal: MarginalModel,
    base: tuple[float, ...],
    x: float,
    side: int,
    slope: bool = False,
) -> float | tuple[float, float]:
    """Stationarity residual at a new cut `x` placed outside the cuts `base`.

    Only the two intervals adjacent to the new cut matter, so this costs two
    loose-tolerance interval integrals regardless of the size of `base`.
    With ``slope`` it returns the pair (G, dG/dx); the slope is the diagonal
    of :func:`jacobian` for this one cut,
    theta_above - theta_below - sum of r(x)/q (1 + (x - mu)^2 / v(theta))
    over the two intervals, formed as exp(log r - log q).
    """
    lo = base[-1] if side > 0 and base else marginal.support_lo
    hi = base[0] if side < 0 and base else marginal.support_hi
    below = interval_integrals(marginal, lo, x, rel_tol=_SCAN_TOL)
    above = interval_integrals(marginal, x, hi, rel_tol=_SCAN_TOL)
    lq_below, mu_below = below
    lq_above, mu_above = above
    th_below = family.invert_mean(mu_below)
    th_above = family.invert_mean(mu_above)
    residual = ((lq_above + x * th_above - family.log_partition(th_above))
                - (lq_below + x * th_below - family.log_partition(th_below)))
    if not slope:
        return residual
    log_r = float(marginal.log_pdf(x))
    return residual, th_above - th_below - (
        math.exp(log_r - lq_above) * (1.0 + (x - mu_above) ** 2 / family.variance(th_above))
        + math.exp(log_r - lq_below) * (1.0 + (x - mu_below) ** 2 / family.variance(th_below))
    )


def _scan_grid(marginal: MarginalModel, outer: tuple[float, ...], side: int) -> list[float]:
    """Candidates for a new outer cut beyond the cuts `outer` on `side`,
    ordered outward.

    With no cut it is a ladder of the marginal's quantiles from level 1e-9
    up to 1 - 1e-9, so the empty book is scanned rightwards.  Beyond a book
    it is a geometric ladder out from the outer cut, steps growing by 1.5
    from 5% of the gap to its neighbour (of the marginal's IQR when there is
    none), up to 90 of them inside the support.  It reads only the outer two
    cuts.
    """
    if not outer:
        levels = (
            [1e-9, 1e-7, 1e-5, 1e-3, 0.01]
            + [round(0.05 * k, 2) for k in range(1, 20)]
            + [0.99, 0.999, 1 - 1e-5, 1 - 1e-7, 1 - 1e-9]
        )
        return [marginal.quantile(p) for p in levels]
    if len(outer) >= 2:
        scale = outer[-1] - outer[-2] if side > 0 else outer[1] - outer[0]
    else:
        scale = marginal.quantile(0.75) - marginal.quantile(0.25)
    edge = outer[-1] if side > 0 else outer[0]
    bound = marginal.support_hi if side > 0 else marginal.support_lo
    low, high = min(edge, bound), max(edge, bound)
    out: list[float] = []
    step = 0.05 * scale
    for _ in range(90):
        x = edge + side * step
        if not low < x < high:
            break
        out.append(x)
        step *= 1.5
    return out


def _outward_root(
    family: FamilyModel,
    marginal: MarginalModel,
    outer: tuple[float, ...],
    side: int,
) -> float | None:
    """Outermost sign change of the insertion residual, refined by Newton.

    The residual at a new cut beyond the cuts `outer` on `side` is scanned
    over :func:`_scan_grid`.  Both read only the outer two cuts, so a whole
    book gives the same root as its outer two.  The residual is oriented by
    `side` (mirror antisymmetry flips its sign on the left): so oriented, it
    diverges to +inf against the nearest cut and grows again in the far
    tail, dipping negative around the useful stationary placements.  The
    outermost crossing back to positive marks the new outer cut.  If it
    starts at an exact 0, as the empty book's residual is at the median of
    a symmetric marginal by mirror symmetry, that candidate is the root.
    Otherwise its bracket on the grid is refined by 1-D Newton from the
    midpoint, safeguarded by the bracket: a step that leaves it, or a
    non-finite slope, falls back to the midpoint.  Refinement stops when
    the Newton step or the bracket is ``_ROOT_REL_WIDTH`` of the grid bracket.
    """
    pick = None
    last = None  # the last candidate evaluated, with its oriented residual
    rising = 0
    for x in _scan_grid(marginal, outer, side):
        try:
            f = side * _insertion_residual(family, marginal, outer, x, side)
        except (ValueError, ArithmeticError):
            continue
        if last is not None and last[1] <= 0.0 < f:
            pick = (last, x)
        rising = rising + 1 if f > 0.0 and (last is None or f >= last[1]) else 0
        last = (x, f)
        # once past the outermost dip the oriented residual only grows
        if pick and rising >= 6:
            break
    if pick is None:
        return None
    (near, at_near), far = pick
    if at_near == 0.0:
        return near
    width = _ROOT_REL_WIDTH * abs(far - near)
    x = 0.5 * (near + far)
    # each midpoint fallback halves the bracket, so 30 of them reach `width`;
    # Newton steps converge quadratically and need far fewer
    for _ in range(60):
        try:
            g, slope = _insertion_residual(family, marginal, outer, x, side, slope=True)
        except (ValueError, ArithmeticError):
            return 0.5 * (near + far)
        if side * g <= 0.0:
            near = x
        else:
            far = x
        # the orientation cancels from the Newton step
        nxt = x - g / slope if math.isfinite(slope) and slope != 0.0 else math.nan
        if not min(near, far) < nxt < max(near, far):
            nxt = 0.5 * (near + far)
        if abs(nxt - x) <= width or abs(far - near) <= width:
            return nxt
        x = nxt
    return x


def _reflect(values: tuple[float, ...]) -> tuple[float, ...]:
    """The mirror image about 0: entries negated, in reverse order."""
    return tuple([-v for v in reversed(values)])


def _reflect_report(report: SolveReport) -> SolveReport:
    """The report of the mirror-image run, formed exactly: cuts, assertions
    and centroids are reflected, log q, log partitions and continuity gaps
    reversed, and everything else kept."""
    book = report.codebook
    return replace(
        report,
        codebook=CodeBook(
            _reflect(book.cuts), book.log_q[::-1], _reflect(book.theta_hat),
            _reflect(book.centroids), book.log_partition[::-1]),
        continuity_gaps=report.continuity_gaps[::-1],
    )


def _mirrors(start: tuple[float, ...], other: tuple[float, ...]) -> bool:
    """The mirror image of `start` lies within ``_MIRROR_REL`` of `other`, a
    start of the same stage, relative and cut by cut."""
    return all(math.isclose(a, b, rel_tol=_MIRROR_REL) for a, b in zip(_reflect(start), other))


def _dedup_sorted(reports: list[SolveReport]) -> list[SolveReport]:
    """Local minima, converged or at the floor, best first, one per cut-point
    configuration.

    Lengths within ``_LENGTH_TIE`` of the first of a run are ties; ties go
    most compact first (smallest largest |cut|), so the order does not hang
    on the last bits of the lengths.
    """
    kept = [r for r in reports if r.kept]
    kept.sort(key=lambda r: r.message_length)
    ordered: list[SolveReport] = []
    while len(ordered) < len(kept):
        top = kept[len(ordered)].message_length + _LENGTH_TIE
        ties = [r for r in kept[len(ordered):] if r.message_length <= top]
        ordered += sorted(ties, key=lambda r: (max(map(abs, r.cuts), default=0.0), r.cuts))
    deduped: list[SolveReport] = []
    for report in ordered:
        if all(_max_abs(map(sub, report.cuts, other.cuts)) > _DEDUP_TOL for other in deduped):
            deduped.append(report)
    return deduped


def solve_sweep(
    family: FamilyModel,
    marginal: MarginalModel,
    n_max: int,
) -> dict[int, list[SolveReport]]:
    """Solve for every cut-point count from 1 up to ``n_max`` by continuation.

    Every start is built here, by one rule.  Stage n starts Newton from the
    best two books of stage n-1 with one new outer cut added on either side,
    which follows the optima's cut-point sets as they nest, and from the
    best two of stage n-2 with one added on both sides, for the
    parity-preserving growth where a new outermost interval appears on both
    flanks at once; the empty book is stage 1's one parent.  Each new cut
    goes where Wallace's boundary rule G = 0 holds for it alone: at the
    outermost root of the scalar insertion residual (:func:`_outward_root`).

    A root reads only the side and the book's outer two cuts, so one memo
    keyed on them serves every stage: stage n-2's books were stage n-1's
    parents, and a book that is its parent plus one cut shares the scan of
    its other side with it; the empty book's scan ignores the side and runs
    once.  Each stage runs Newton once per distinct valid start: it is
    deterministic, so an equal start would only repeat a report.  Every
    build of the sweep reads and fills one interval cache (see
    :func:`codebook_from_cutpoints`), so an interval that an earlier start,
    trial or stage integrated is not integrated again; a record is a pure
    function of its two ends.  A reflected report (below) writes its finite
    intervals into the cache too, as a build of its cuts would.

    A mirror-symmetric pair (``MarginalModel.mirror_symmetric``) has each
    mirror pair of starts solved once.  A start whose mirror image lies
    within 1e-9, relative and cut by cut, of a start already run from a
    different seed book runs no Newton: it gets the exact reflection of that
    run's report (cuts, assertions and centroids negated and reversed; log q,
    log partitions and continuity gaps reversed; the rest copied).  Of the
    two extensions of one seed book, the second takes the reflection of the
    first only where the first ended not critical (|G| above 1e-8, so not
    kept); where it found a critical point, both are run, even where they
    are near mirror images, as reflecting those lost a minimum.  A root
    whose exact mirror key, the reflected outer two cuts and the other
    side, is in the memo is that root negated.  A reflected report ties
    exactly with the run it reflects, so of such a pair the image with the
    lower first cut comes first.

    Returns, for each n from 1 to ``n_max``, the runs whose
    ``SolveReport.kept`` holds: local minima only, converged or at the
    rounding floor of G (saddles of the length are not estimators),
    deduplicated at 1e-6 in cut-point space and sorted by length, with
    lengths within 1e-12 tied and ordered most compact first.  Stage n
    depends only on the stages before it, never on ``n_max``, so
    ``solve_sweep(family, marginal, n)[n]`` solves one n and a caller that
    shows fewer stages picks them from the dict.  A code book that cannot
    be built ends its run or rejects its step, so no ``ArithmeticError``
    escapes; a stage where nothing succeeds has an empty list.
    Deterministic.  No solver state is kept between calls: the interval
    cache lives for one sweep.  What persists are bounded memos of pure
    functions (the normal Mills-ratio pair, and the entropy and carrier
    constant of marginals without closed forms), which cannot change a
    result.
    """
    if not n_max >= 1:
        raise ValueError(f"need n_max >= 1, got {n_max!r}")
    mirror = marginal.mirror_symmetric
    roots: dict[tuple[tuple[float, ...], int], float | None] = {}
    records: dict[tuple[float, float], tuple[float, float, float, float]] = {}

    def root(cuts: tuple[float, ...], side: int) -> float | None:
        key = (cuts[-2:] if side > 0 else cuts[:2], side if cuts else 1)
        if key not in roots:
            image = (_reflect(key[0]), -key[1])
            if mirror and image in roots:
                x = roots[image]
                roots[key] = None if x is None else -x
            else:
                roots[key] = _outward_root(family, marginal, *key)
        return roots[key]

    # each stage's best two books seed the next two; the empty book seeds stage 1
    seeds: dict[int, list[tuple[float, ...]]] = {0: [()]}
    stages: dict[int, list[SolveReport]] = {}
    for stage in range(1, n_max + 1):
        # each distinct start once, in first-seen order, with the seed book it extends
        starts: dict[tuple[float, ...], tuple[float, ...]] = {}
        for cuts in seeds[stage - 1]:
            for side in (1, -1):
                x = root(cuts, side)
                if x is not None:
                    starts.setdefault(tuple(sorted((*cuts, x))), cuts)
        for cuts in seeds.get(stage - 2, []):
            right, left = root(cuts, 1), root(cuts, -1)
            if right is not None and left is not None:
                starts.setdefault((left, *cuts, right), cuts)
        runs: list[tuple[tuple[float, ...], tuple[float, ...], SolveReport]] = []
        reports = []
        for start, seed in starts.items():
            if not _feasible(marginal, start):
                continue
            twin = mirror and next((
                run for run in runs
                if (run[1] != seed or run[2].classification == NOT_CRITICAL)
                and _mirrors(start, run[0])), None)
            if twin:
                reports.append(_reflect_report(twin[2]))
                book = reports[-1].codebook  # its finite rows, as a build of it writes them
                ends = zip((marginal.support_lo, *book.cuts), (*book.cuts, marginal.support_hi))
                rows = zip(book.log_q, book.theta_hat, book.centroids, book.log_partition)
                for end, row in zip(ends, rows):
                    if all(map(math.isfinite, row)):
                        records.setdefault(end, row)
            else:
                reports.append(newton_solve(family, marginal, start, records=records))
                runs.append((start, seed, reports[-1]))
        stages[stage] = _dedup_sorted(reports)
        seeds[stage] = [sol.cuts for sol in stages[stage][:2]]
    return stages


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
    Points outside the support contribute zero rows.  The grid's width
    ``x_hi - x_lo`` must be finite: where it overflows, so do the grid steps.
    """
    x_lo, x_hi = float(x_lo), float(x_hi)
    if not (x_lo < x_hi and math.isfinite(x_hi - x_lo)):
        raise ValueError(f"need x_lo < x_hi a finite distance apart, got ({x_lo!r}, {x_hi!r})")
    count = int(count)
    if count < 2:
        raise ValueError(f"need at least two samples, got count={count!r}")
    import numpy as np
    x = np.linspace(x_lo, x_hi, count)
    lq, th, lp = np.array([codebook.log_q, codebook.theta_hat, codebook.log_partition])
    idx = np.searchsorted(np.array(codebook.cuts), x, side="right")
    with np.errstate(invalid="ignore", over="ignore"):
        log_r = np.asarray(marginal.log_pdf(x), dtype=float)
        r = np.exp(log_r)
        log_code = lq[idx] + x * th[idx] - lp[idx] + np.asarray(family.log_carrier(x), dtype=float)
        one_part = np.where(r > 0.0, -r * log_r, 0.0)
        two_part = np.where(r > 0.0, -r * log_code, 0.0)
    return CurveTable(x=x, one_part=one_part, two_part=two_part, density=r)

"""The benchmark's three workloads and the checks on their outputs.

normal-sweep16  ``smml1d sweep --model normal-normal --alpha 2 --n-min 1
                --n-max 16 --full-cuts`` through ``cli.main`` (Table 1).
lomax-sweep5    the same for exponential-gamma, alpha 2, beta 1, n 1..5
                (Table 2).
codebook-eval   a seeded stream of cut vectors for both models, each
                evaluated by codebook_from_cutpoints, gradient, jacobian and
                message_length: the quadrature and code-book kernel alone.

A unit is the workload's fixed work: one sweep, or one pass over the stream.
Every function the package provides is looked up on its module at call
time, so the tracer's wrappers apply while a traced unit runs.
"""

from __future__ import annotations

import ast
import contextlib
import csv
import io
import math
import time
from dataclasses import dataclass, field

import numpy as np

from tracer import FAR_TAIL_LOG_MASS

NORMAL = ("normal-normal", (2.0,))
LOMAX = ("exponential-gamma", (2.0, 1.0))

SWEEP_ARGV = {
    "normal-sweep16": ["sweep", "--model", "normal-normal", "--alpha", "2",
                       "--n-min", "1", "--n-max", "16", "--full-cuts"],
    "lomax-sweep5": ["sweep", "--model", "exponential-gamma", "--alpha", "2", "--beta", "1",
                     "--n-min", "1", "--n-max", "5", "--full-cuts"],
}
WORKLOAD_MODELS = {
    "normal-sweep16": (NORMAL,),
    "lomax-sweep5": (LOMAX,),
    "codebook-eval": (NORMAL, LOMAX),
}
WORKLOADS = tuple(WORKLOAD_MODELS)

# Exact single-cut normal redundancy (README "Acceptance status"); the table's
# 0.2968787967 is 3.3e-9 off and is not used for n=1.
EXACT_NORMAL_N1 = (2.5 + 0.5 * math.log(2 * math.pi) + math.log(2.0) - 5 / math.pi
                   - 0.5 * math.log(10 * math.pi * math.e))
REDUNDANCY_TOL = 1e-9
NORMAL_CUT_TOL = 5e-5   # cuts tabulated to 4 decimals
LOMAX_CUT_TOL = 0.005   # cuts tabulated to 2 decimals
SUM_Q_TOL = 1e-9
STATIONARY_TOL = 1e-10  # solver stops at a gradient max-norm of 1e-12
# after each sweep its printed rows are re-evaluated in rounds for this share
# of the sweep's wall time: eval_ms samples spread over the run
RECHECK_SHARE = 0.1

# codebook-eval stream: per pass, STREAM_PER_N vectors for every model and n
STREAM_N_MAX = 16
STREAM_PER_N = 6
TAIL_SHARE = 0.15       # share of cuts drawn in the tails
NORMAL_BULK_SD = 3.5
NORMAL_MAX_SD = 56.0
LOMAX_BULK_P = (0.02, 0.98)
LOMAX_MAX_CUT = 1e6


class CheckFailed(Exception):
    """A correctness check failed; ``args[0]`` names it."""

    def __init__(self, name: str, detail: str):
        super().__init__(name, detail)
        self.name = name
        self.detail = detail


@dataclass
class UnitResult:
    """What one unit produced: a comparable output and its operation counts."""

    output: object
    attempted: int
    failed: int
    eval_ms: list[float] = field(default_factory=list)


def build_models(smml1d, model):
    name, params = model
    make = smml1d.make_normal_normal if name == "normal-normal" else smml1d.make_exponential_gamma
    return make(*params)


def golden_tables(path) -> dict:
    """The literal golden constants of the acceptance test module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    values = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            with contextlib.suppress(ValueError):
                values[node.targets[0].id] = ast.literal_eval(node.value)
    return values


def _call(tracer, name, fn, *args):
    """``fn(*args)``, inside a span when a traced unit runs."""
    return tracer.call(name, fn, *args) if tracer else fn(*args)


# -- sweeps ----------------------------------------------------------------


def run_sweep(cli, argv, tracer=None) -> UnitResult:
    """One sweep through ``cli.main``; an operation is one stage n."""
    n_min = int(argv[argv.index("--n-min") + 1])
    n_max = int(argv[argv.index("--n-max") + 1])
    out, err = io.StringIO(), io.StringIO()
    rc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = _call(tracer, "cli.main", cli.main, argv)
        except Exception as exc:  # a raising stage counts as failed, not as a crash
            err.write(f"{type(exc).__name__}: {exc}\n")
    rows = parse_sweep_csv(out.getvalue()) if rc == 0 else {}
    ok = sum(1 for n in range(n_min, n_max + 1)
             if n in rows and math.isfinite(rows[n][0]))
    attempted = n_max - n_min + 1
    output = (rc, out.getvalue(), err.getvalue())
    return UnitResult(output=output, attempted=attempted, failed=attempted - ok)


def parse_sweep_csv(text: str) -> dict[int, tuple[float, list[float]]]:
    rows = list(csv.reader(io.StringIO(text)))
    return {
        int(row[0]): (float(row[1]), [float(c) for c in row[2:] if c])
        for row in rows[1:]
    }


def _close(got, want, tol) -> bool:
    return len(got) == len(want) and all(abs(g - w) <= tol for g, w in zip(got, want))


def _nonneg(cuts):
    return [c for c in cuts if c >= -1e-9]


def _mirror(cuts):
    return [-c for c in reversed(cuts)]


def check_normal_sweep(rows, golden) -> None:
    table_red = golden["TABLE1_REDUNDANCY"]
    for n in range(1, 17):
        if n not in rows:
            raise CheckFailed(f"golden.normal.n{n}.row", "no CSV row")
        red, cuts = rows[n]
        want = EXACT_NORMAL_N1 if n == 1 else (
            table_red[n - 1] if n <= 6 else golden["STABLE_REDUNDANCY"])
        if not abs(red - want) <= REDUNDANCY_TOL:
            raise CheckFailed(f"golden.normal.n{n}.redundancy", f"{red!r} vs {want!r}")
        if len(cuts) != n:
            raise CheckFailed(f"golden.normal.n{n}.cuts", f"{len(cuts)} cuts printed")
        if n <= 6:
            # the model is mirror-symmetric: either orientation is the optimum
            want_pos = golden["TABLE1_POS_CUTS"][n]
            ok = any(_close(_nonneg(c), want_pos, NORMAL_CUT_TOL) for c in (cuts, _mirror(cuts)))
            if n == 5:
                five = golden["FIVE_CUT_SOLUTION"]
                ok = ok and any(_close(c, five, NORMAL_CUT_TOL) for c in (cuts, _mirror(cuts)))
        else:
            # past n=6 the cuts on either side, as far out as the table goes,
            # are the tabulated tail cuts
            tail = golden["TAIL_POS_CUTS"]
            sides = (_nonneg(cuts), _nonneg(_mirror(cuts)))
            ok = sum(map(len, sides)) == n and all(
                _close(side[:len(tail)], tail[:len(side)], NORMAL_CUT_TOL) for side in sides)
        if not ok:
            raise CheckFailed(f"golden.normal.n{n}.cuts", f"{cuts}")


def check_lomax_sweep(rows, golden) -> None:
    for n in range(1, 6):
        if n not in rows:
            raise CheckFailed(f"golden.lomax.n{n}.row", "no CSV row")
        red, cuts = rows[n]
        want = golden["TABLE2_REDUNDANCY"][n - 1]
        if not abs(red - want) <= REDUNDANCY_TOL:
            raise CheckFailed(f"golden.lomax.n{n}.redundancy", f"{red!r} vs {want!r}")
        if not _close(cuts, golden["TABLE2_CUTS"][n], LOMAX_CUT_TOL):
            raise CheckFailed(f"golden.lomax.n{n}.cuts", f"{cuts}")


def recheck_rows(smml1d, family, marginal, rows, seconds) -> list[float]:
    """Re-evaluate the printed rows in rounds for ``seconds``, at least once.

    Returns the latencies in ms.  Each row's cuts must be stationary, reproduce the printed redundancy and
    give coding probabilities that sum to one.
    """
    estimator = smml1d.estimator
    entropy = estimator.marginal_entropy(marginal)
    latencies = []
    deadline = time.perf_counter() + seconds
    while not latencies or time.perf_counter() < deadline:
        for n, (red, cuts) in sorted(rows.items()):
            start = time.perf_counter()
            book, grad, _, length = evaluate(estimator, family, marginal, cuts)
            latencies.append(1e3 * (time.perf_counter() - start))
            check_sum_q(book.log_q, f"sweep.n{n}")
            if not np.max(np.abs(grad)) <= STATIONARY_TOL:
                raise CheckFailed(f"sweep.n{n}.stationary",
                                  f"gradient max-norm {np.max(np.abs(grad))!r}")
            if not abs((length - entropy) - red) <= 1e-12:
                raise CheckFailed(f"sweep.n{n}.redundancy",
                                  f"{length - entropy!r} vs printed {red!r}")
    return latencies


# -- code-book evaluation --------------------------------------------------


def evaluate(estimator, family, marginal, cuts):
    book = estimator.codebook_from_cutpoints(family, marginal, cuts)
    grad = estimator.gradient(family, marginal, book)
    jac = estimator.jacobian(family, marginal, book)
    length = estimator.message_length(family, marginal, book)
    return book, grad, jac, length


def check_sum_q(log_q, where: str) -> None:
    total = math.fsum(math.exp(lq) for lq in log_q)
    if not abs(total - 1.0) <= SUM_Q_TOL:
        raise CheckFailed(f"{where}.sum_q", f"sum q = {total!r}")


def _draw_cuts(rng, marginal, n):
    name = marginal.name
    while True:
        tail = rng.random(n) < TAIL_SHARE
        u = rng.random(n)
        if name == "normal-normal":
            sd = math.sqrt(1.0 + marginal.prior_params[0] ** 2)
            sign = np.where(rng.random(n) < 0.5, -1.0, 1.0)
            z = np.where(tail, sign * NORMAL_BULK_SD * (NORMAL_MAX_SD / NORMAL_BULK_SD) ** u,
                         NORMAL_BULK_SD * (2.0 * u - 1.0))
            x = np.sort(z * sd)
            if n == 1 or np.min(np.diff(x)) > 0.02 * sd:
                return x
        else:
            lo_p, hi_p = LOMAX_BULK_P
            bulk_hi = marginal.quantile(hi_p)
            x = np.sort(np.where(
                tail, bulk_hi * (LOMAX_MAX_CUT / bulk_hi) ** u,
                [marginal.quantile(lo_p + (hi_p - lo_p) * v) for v in u]))
            if np.all(x[1:] > 1.01 * x[:-1]):
                return x


def draw_stream(seed: int, pairs) -> list[tuple[int, np.ndarray]]:
    """One pass: STREAM_PER_N vectors for every model pair and n, from ``seed``."""
    rng = np.random.default_rng(seed)
    stream = [
        (k, _draw_cuts(rng, marginal, n))
        for n in range(1, STREAM_N_MAX + 1)
        for k, (_, marginal) in enumerate(pairs)
        for _ in range(STREAM_PER_N)
    ]
    order = rng.permutation(len(stream))
    return [stream[i] for i in order]


def run_eval_pass(smml1d, pairs, stream, tracer=None) -> UnitResult:
    """One pass over the stream; an operation is one evaluation."""
    estimator = smml1d.estimator
    output, latencies = [], []
    failed = 0
    for k, cuts in stream:
        family, marginal = pairs[k]
        start = time.perf_counter()
        try:
            book, grad, jac, length = _call(
                tracer, "bench.eval", evaluate, estimator, family, marginal, cuts)
        except Exception:  # a raising evaluation is a failed operation
            failed += 1
            output.append(None)
            continue
        latencies.append(1e3 * (time.perf_counter() - start))
        finite = (np.all(np.isfinite(grad)) and math.isfinite(length)
                  and all(np.all(np.isfinite(b)) for b in (jac.sub, jac.diag, jac.sup)))
        if not finite:
            failed += 1
        output.append((book.log_q, grad.tobytes(), jac.sub.tobytes(), jac.diag.tobytes(),
                       jac.sup.tobytes(), length))
    return UnitResult(output=output, attempted=len(stream), failed=failed, eval_ms=latencies)


def check_eval_pass(pairs, stream, result) -> float:
    """Sum-q check on every evaluated book; returns the share of far-tail intervals."""
    far = total = 0
    for (k, cuts), out in zip(stream, result.output):
        if out is None:
            continue
        log_q = out[0]
        check_sum_q(log_q, f"eval.{pairs[k][1].name}.n{cuts.size}")
        far += sum(lq < FAR_TAIL_LOG_MASS for lq in log_q)
        total += len(log_q)
    return far / total if total else 0.0

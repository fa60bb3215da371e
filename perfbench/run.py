#!/usr/bin/env python3
"""smml1d benchmark: one workload, measured from outside the package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload normal-sweep16 --seed 1 --seconds 30 --trace 0

Workloads: normal-sweep16, lomax-sweep5, codebook-eval (see README.md).
``--trace 0`` reports the end-to-end metrics, among them ``wall_rel``: a
unit's wall time over the time of a fixed reference loop, which divides out
the shared host's drifting speed.  ``--trace 1`` alternates untraced and
traced units and reports the per-layer metrics, the tracing overhead, and
runs the tracer's self-test.  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A failed check is
named on standard error and the exit code is 1.  Without ``src/smml1d`` and
``tests/test_acceptance.py`` beside it the benchmark prints no result and
exits with 2.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import workloads as wl
from tracer import LAYER_METRICS, SelfTestError, Tracer
from workloads import CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"
OUT = HERE / "out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60

END_TO_END = (
    ("setup_s", "s"),
    ("wall_rel", "ratio"),
    ("peak_rss_mb", "MB"),
)
# printed as readable metric lines but left out of the result line. On a
# shared host whose speed drifts by a third within minutes, raw times spread
# across runs of the same code by more than a bound can allow; wall_rel
# divides that drift out with ref_ms, the reference loop's median time
INFO = (("wall_s", "s"), ("eval_ms.p50", "ms"), ("eval_ms.p90", "ms"), ("ref_ms", "ms"))
REF_ITERATIONS = 1500
REF_EVERY_S = 0.5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "seed": seed,
    }


def measure_setup(models) -> float:
    """Median set-up time over SETUP_REPEATS fresh interpreters."""
    specs = [f"{name}={','.join(repr(p) for p in params)}" for name, params in models]
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *specs],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise CheckFailed("setup.probe", proc.stderr.strip()[-400:])
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def timed_loop(seconds: float, step) -> list[float]:
    """Repeat ``step`` while another one fits in ``seconds``; at least once."""
    start = time.perf_counter()
    durations: list[float] = []
    while True:
        t0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return durations


class Bench:
    """The chosen workload: its units, checks and counters for one run."""

    def __init__(self, smml1d, name: str, seed: int):
        self.smml1d = smml1d
        self.name = name
        self.pairs = [wl.build_models(smml1d, m) for m in wl.WORKLOAD_MODELS[name]]
        self.attempted = 0
        self.failed = 0
        self.eval_ms: list[float] = []
        self.rows: dict = {}  # the last sweep's printed rows
        self.notes: dict = {}
        self.refs: list[float] | None = None  # reference loop times, once sampling starts
        self.ref_spent = 0.0  # seconds spent in the reference loop
        self._last_ref = 0.0
        if name in wl.SWEEP_ARGV:
            self.golden = wl.golden_tables(ACCEPTANCE)
            self.stream = None
        else:
            self.stream = wl.draw_stream(seed, self.pairs)
            self._warm(self.pairs)

    def _warm(self, pairs):
        # entropy and carrier constant are cached per model pair: fill the
        # cache before timing, as setup_s already times it
        est = self.smml1d.estimator
        for family, marginal in pairs:
            est.marginal_entropy(marginal)
            est.message_length(family, marginal,
                               est.codebook_from_cutpoints(family, marginal, [marginal.quantile(0.5)]))

    def counting_pairs(self, tracer):
        pairs = [(family, tracer.counting(marginal)) for family, marginal in self.pairs]
        self._warm(pairs)
        return pairs

    def unit(self, tracer=None, pairs=None):
        """Run one unit; returns (result, wall seconds of the workload's own work)."""
        gc.collect()  # start every unit from the same heap state
        spent = self.ref_spent
        start = time.perf_counter()
        if self.stream is None:
            with self._sampling_inside():
                result = wl.run_sweep(self.smml1d.cli, wl.SWEEP_ARGV[self.name], tracer)
        else:
            result = wl.run_eval_pass(self.smml1d, pairs or self.pairs, self.stream, tracer)
        wall = time.perf_counter() - start - (self.ref_spent - spent)
        self.attempted += result.attempted
        self.failed += result.failed
        return result, wall

    def check(self, result, wall: float) -> None:
        """Check one unit's outputs; sweeps also re-evaluate every printed row."""
        if self.stream is None:
            rc, text, err = result.output
            if rc != 0:
                raise CheckFailed("sweep.exit", f"cli.main gave {rc!r}: {err.strip()[-400:]}")
            self.rows = wl.parse_sweep_csv(text)
            check = wl.check_normal_sweep if self.name == "normal-sweep16" else wl.check_lomax_sweep
            check(self.rows, self.golden)
            self.recheck(wl.RECHECK_SHARE * wall)
        else:
            self.notes["fartail_interval_share"] = wl.check_eval_pass(self.pairs, self.stream, result)
            self.eval_ms += result.eval_ms

    def recheck(self, seconds: float) -> None:
        """Re-evaluate the last sweep's printed rows for ``seconds``, at least once."""
        self.eval_ms += wl.recheck_rows(self.smml1d, *self.pairs[0], self.rows, seconds)

    def sample_reference(self, force: bool = False) -> None:
        """Time the reference loop, at most every REF_EVERY_S unless ``force``."""
        if self.refs is not None and (force or time.perf_counter() - self._last_ref >= REF_EVERY_S):
            start = time.perf_counter()
            self.refs.append(reference_s())
            self._last_ref = time.perf_counter()
            self.ref_spent += self._last_ref - start

    @contextlib.contextmanager
    def _sampling_inside(self):
        """Sample the reference loop inside a sweep, between interval integrals.

        A sweep runs for seconds, long enough for the host to change state
        within it.  A ``codebook-eval`` pass is short and times its
        evaluations one by one, so it is sampled only at its edges.
        """
        if self.refs is None:
            yield
            return
        est = self.smml1d.estimator
        original = est.interval_integrals

        def sampled(*args, **kwargs):
            self.sample_reference()
            return original(*args, **kwargs)

        est.interval_integrals = sampled
        try:
            yield
        finally:
            est.interval_integrals = original


def reference_s() -> float:
    """Time a fixed computation that uses nothing of smml1d, in seconds.

    Small numpy array operations and a Python loop, like the package's
    quadrature.  Its time follows the shared host's speed and nothing else,
    so a unit's wall time divided by it is steady from run to run.
    """
    x = np.linspace(-8.0, 8.0, 257)
    acc = 0.0
    start = time.perf_counter()
    for k in range(REF_ITERATIONS):
        acc += float(np.sum(np.log1p(np.exp(-0.5 * (x * (1.0 + 1e-3 * k)) ** 2))))
        for j in range(40):
            acc += math.sqrt(j + k)
    elapsed = time.perf_counter() - start
    if not math.isfinite(acc):
        raise CheckFailed("reference.finite", f"reference loop gave {acc!r}")
    return elapsed


def run_untraced(bench, seconds) -> dict:
    setup = measure_setup(wl.WORKLOAD_MODELS[bench.name])
    walls = []
    reference_s()  # warm-up
    bench.refs = []
    bench.sample_reference(force=True)

    def step():
        result, wall = bench.unit()
        walls.append(wall)
        bench.sample_reference(force=True)
        bench.check(result, wall)

    start = time.perf_counter()
    timed_loop(seconds, step)
    left = seconds - (time.perf_counter() - start)
    if bench.stream is None and left > 0:
        # a sweep seldom fills the window: spend the rest re-evaluating its
        # rows, so eval_ms also samples a longer stretch of the run
        bench.recheck(left)
    samples = bench.eval_ms
    refs = bench.refs
    bench.notes.update(unit_walls_s=walls, reference_s=refs, eval_samples=len(samples))
    if len(samples) < 2:
        raise CheckFailed("eval.samples", f"{len(samples)} evaluations succeeded")
    return {
        "setup_s": setup,
        "wall_rel": statistics.median(walls) / statistics.median(refs),
        "wall_s": statistics.median(walls),
        "eval_ms.p50": statistics.median(samples),
        "eval_ms.p90": statistics.quantiles(samples, n=10, method="inclusive")[-1],
        "ref_ms": 1e3 * statistics.median(refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_traced(bench, seconds) -> dict:
    tracer = Tracer(bench.smml1d)
    pairs = bench.counting_pairs(tracer) if bench.stream is not None else None
    plain, traced, layers = [], [], []

    def step():
        result, wall = bench.unit()
        plain.append(wall)
        bench.check(result, wall)
        with tracer.unit():
            traced_result, wall = bench.unit(tracer, pairs)
        traced.append(wall)
        if traced_result.output != result.output:
            raise CheckFailed("selftest.bit_identical", "traced and untraced outputs differ")
        try:
            layers.append(tracer.unit_metrics(tracer.unit_count - 1))
        except SelfTestError as exc:
            raise CheckFailed("selftest.newton_counts", str(exc)) from exc

    timed_loop(seconds, step)
    counts = [name for name, unit in LAYER_METRICS if unit == "count"]
    for name in counts:
        if len({m[name] for m in layers}) != 1:
            raise CheckFailed("selftest.counts_repeat", f"{name} differs between units: "
                               f"{[m[name] for m in layers]}")
    OUT.mkdir(exist_ok=True)
    tracer.write_jsonl(OUT / f"{bench.name}.spans.jsonl")
    bench.notes.update(units=len(traced), traced_wall_s=statistics.median(traced),
                       untraced_wall_s=statistics.median(plain))
    # counts repeat exactly (checked above); times are medians over units
    metrics = {name: layers[0][name] if unit == "count" else statistics.median(m[name] for m in layers)
               for name, unit in LAYER_METRICS}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    missing = [str(p.relative_to(ROOT)) for p in (SRC / "smml1d" / "__init__.py", ACCEPTANCE)
               if not p.is_file()]
    if missing:
        print(f"perfbench: not a full smml1d checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import smml1d
    import smml1d.cli

    if Path(smml1d.__file__).resolve().parent != SRC / "smml1d":
        print(f"perfbench: imported smml1d from {smml1d.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(env))
    bench = Bench(smml1d, args.workload, args.seed)
    units = dict(LAYER_METRICS, **{"trace.overhead_s": "s"}) if args.trace else dict(END_TO_END)
    failure = None
    values: dict = {}
    try:
        values = (run_traced if args.trace else run_untraced)(bench, args.seconds)
    except CheckFailed as exc:
        failure = exc

    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']!r} {metric['unit']}")
    for name, unit in INFO:
        if name in values:
            print(f"metric {name} {values[name]!r} {unit} (not in the result line)")
    failed_frac = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"metric failed_frac {failed_frac!r} ratio ({bench.failed} of {bench.attempted})")
    print("notes " + json.dumps(bench.notes))
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(json.dumps({
        "env": env, "workload": args.workload, "trace": args.trace, "metrics": metrics,
        "failed_frac": failed_frac, "notes": bench.notes,
        "check_failed": None if failure is None else [failure.name, failure.detail],
    }, indent=1) + "\n", encoding="utf-8")
    if failure is not None:
        print(f"perfbench: check failed: {failure.name}: {failure.detail}", file=sys.stderr)
    print(json.dumps({
        "correct": failure is None,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0 if failure is None else 1


if __name__ == "__main__":
    sys.exit(main())

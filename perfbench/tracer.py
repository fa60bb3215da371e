"""Outside-in tracer for the smml1d benchmark.

The tracer changes nothing in the package.  While a traced unit runs it
replaces public functions at the module attributes the package looks up at
call time, records one span (trace, id, parent, name, start, end) per call,
and counts ``log_pdf`` abscissae through a counting marginal built with
``dataclasses.replace``.  On leaving the unit every attribute is restored, so
untraced work runs the package's own functions with no wrapper in the way.

Span names, and the layer metric each feeds:

    cli.main                      cli.self_s (main minus solve_sweep)
    cli.models                    make_* constructors, part of cli.self_s
    estimator.pipeline            solve_sweep minus newton_solve
    estimator.newton              newton_solve, plus the Newton counters
    estimator.codebook            codebook_from_cutpoints
    estimator.gradient/.jacobian  estimator.grad_jac
    quadrature.interval.<kind>    solver-tolerance interval_integrals
    quadrature.scan               looser-than-default interval_integrals
    quadrature.expectation        expectation (carrier constant, entropy)
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import json
import math
import time
from collections import Counter, defaultdict

import numpy as np

# log of the smallest normal double: a mass below it underflows
FAR_TAIL_LOG_MASS = -708.4

# self time = span time minus the time of these children; every child counts
# for the layers not listed
_SELF_MINUS = {
    "estimator.pipeline": ("estimator.newton",),
    "cli.main": ("estimator.pipeline",),
}

LAYER_METRICS = (
    # (metric, unit)
    *((f"quadrature.interval.{k}.{m}", u)
      for k in ("finite", "halfinf", "fartail") for m, u in (("calls", "count"), ("self_s", "s"))),
    ("quadrature.scan.calls", "count"),
    ("quadrature.scan.self_s", "s"),
    ("quadrature.pdf_points", "count"),
    ("quadrature.expectation.calls", "count"),
    ("quadrature.expectation.self_s", "s"),
    ("estimator.codebook.calls", "count"),
    ("estimator.codebook.self_s", "s"),
    ("estimator.grad_jac.calls", "count"),
    ("estimator.grad_jac.self_s", "s"),
    ("estimator.newton.runs", "count"),
    ("estimator.newton.iterations", "count"),
    ("estimator.newton.rejected_trials", "count"),
    ("estimator.newton.minima", "count"),
    ("estimator.newton.saddles", "count"),
    ("estimator.newton.not_converged", "count"),
    ("estimator.newton.useful_ratio", "ratio"),
    ("estimator.newton.self_s", "s"),
    ("estimator.pipeline.self_s", "s"),
    ("cli.self_s", "s"),
)


class SelfTestError(AssertionError):
    """The trace disagrees with what the package itself reports."""


class _Frame:
    __slots__ = ("id", "parent", "name", "start", "norms", "pending")

    def __init__(self, span_id, parent, name, start):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.norms = None     # gradient norms of the code books a Newton run built
        self.pending = False  # a code book was built and its gradient not yet seen


class Tracer:
    """Spans and counters for the traced units of one benchmark run."""

    def __init__(self, smml1d):
        self._estimator = smml1d.estimator
        self._quadrature = smml1d.quadrature
        self._cli = smml1d.cli
        self._local_minimum = self._estimator.LOCAL_MINIMUM
        self._default_rel_tol = (
            inspect.signature(self._quadrature.interval_integrals).parameters["rel_tol"].default
        )
        self.spans: list[tuple] = []  # (trace, id, parent, name, start, end)
        self._stack: list[_Frame] = []
        self._trace = None
        self._next_id = 0
        self._units: list[dict] = []
        self.pdf_points = 0

    # -- counting marginal -------------------------------------------------

    def counting(self, marginal):
        """The same marginal, with every ``log_pdf`` abscissa counted."""
        log_pdf = marginal.log_pdf
        tracer = self

        def counted(x):
            out = log_pdf(x)
            tracer.pdf_points += np.size(out)
            return out

        return dataclasses.replace(marginal, log_pdf=counted)

    # -- spans -------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        frame = _Frame(self._next_id, parent, name, time.perf_counter())
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame, name=None):
        end = time.perf_counter()
        self._stack.pop()
        parent_id = frame.parent.id if frame.parent is not None else None
        self.spans.append((self._trace, frame.id, parent_id, name or frame.name, frame.start, end))

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span of its own."""
        frame = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(frame)

    def _wrap(self, fn, name, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                final = after(frame, args, kwargs, result) if after else None
                tracer._close(frame, final)

        return wrapper

    # -- per-function hooks ------------------------------------------------

    def _interval_kind(self, frame, args, kwargs, result):
        if kwargs.get("rel_tol", self._default_rel_tol) > self._default_rel_tol:
            return "quadrature.scan"
        if result is not None and result.log_mass < FAR_TAIL_LOG_MASS:
            return "quadrature.interval.fartail"
        lo, hi = (args + (kwargs.get("lo"), kwargs.get("hi")))[1:3]
        if math.isinf(lo) or math.isinf(hi):
            return "quadrature.interval.halfinf"
        return "quadrature.interval.finite"

    def _after_codebook(self, frame, args, kwargs, result):
        if frame.parent is not None and frame.parent.norms is not None:
            frame.parent.pending = True

    def _after_gradient(self, frame, args, kwargs, result):
        newton = frame.parent
        if newton is not None and newton.pending and result is not None:
            newton.norms.append(float(np.max(np.abs(result))))
            newton.pending = False

    def _newton(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open("estimator.newton")
            frame.norms = []
            try:
                report = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            tracer._unit["reports"].append((report, frame.norms))
            return report

        return wrapper

    def _sweep(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stages = tracer.call("estimator.pipeline", fn, *args, **kwargs)
            tracer._unit["kept"] += sum(len(reps) for reps in stages.values())
            return stages

        return wrapper

    def _models(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            family, marginal = tracer.call("cli.models", fn, *args, **kwargs)
            return family, tracer.counting(marginal)

        return wrapper

    def _replacements(self):
        est, quad, cli = self._estimator, self._quadrature, self._cli
        return [
            (est, "interval_integrals",
             self._wrap(est.interval_integrals, "quadrature.interval", self._interval_kind)),
            (est, "codebook_from_cutpoints",
             self._wrap(est.codebook_from_cutpoints, "estimator.codebook", self._after_codebook)),
            (est, "gradient", self._wrap(est.gradient, "estimator.gradient", self._after_gradient)),
            (est, "jacobian", self._wrap(est.jacobian, "estimator.jacobian")),
            (est, "newton_solve", self._newton(est.newton_solve)),
            (est, "expectation", self._wrap(est.expectation, "quadrature.expectation")),
            (quad, "expectation", self._wrap(quad.expectation, "quadrature.expectation")),
            (cli, "solve_sweep", self._sweep(cli.solve_sweep)),
            *((cli, name, self._models(getattr(cli, name)))
              for name in dir(cli) if name.startswith("make_")),
        ]

    # -- units -------------------------------------------------------------

    @contextlib.contextmanager
    def unit(self):
        """Wrap the package for one traced unit of work."""
        self._begin()
        try:
            yield self
        finally:
            self._end()

    def _begin(self):
        self._trace = len(self._units)
        self._unit = {"reports": [], "kept": 0, "pdf0": self.pdf_points, "span0": len(self.spans)}
        self._saved = []
        for module, name, wrapper in self._replacements():
            self._saved.append((module, name, getattr(module, name)))
            setattr(module, name, wrapper)

    def _end(self):
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved = []
        self._unit["pdf_points"] = self.pdf_points - self._unit.pop("pdf0")
        self._unit["spans"] = self.spans[self._unit.pop("span0"):]
        self._units.append(self._unit)
        self._trace = None

    # -- metrics and self-test --------------------------------------------

    def unit_metrics(self, index: int) -> dict[str, float]:
        """Layer metrics of one traced unit; raises SelfTestError on mismatch."""
        unit = self._units[index]
        spans = unit["spans"]
        names = {s[1]: s[3] for s in spans}
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        child: defaultdict = defaultdict(float)
        builds_in_newton = 0
        for _, _, parent, name, start, end in spans:
            calls[name] += 1
            total[name] += end - start
            if parent is not None:
                child[(names[parent], name)] += end - start
                if name == "estimator.codebook" and names[parent] == "estimator.newton":
                    builds_in_newton += 1

        def self_time(*layers):
            out = 0.0
            for layer in layers:
                minus = _SELF_MINUS.get(layer)
                out += total[layer] - sum(
                    t for (p, c), t in child.items() if p == layer and (minus is None or c in minus)
                )
            return out

        reports = unit["reports"]
        runs = len(reports)
        iterations = sum(r.iterations for r, _ in reports)
        rejected = 0
        for report, norms in reports:
            accepted, trials_rejected, current = _replay(norms)
            rejected += trials_rejected
            same_end = current == report.final_grad_norm or (
                math.isnan(current) and math.isnan(report.final_grad_norm))
            if accepted != report.iterations or not same_end:
                raise SelfTestError(
                    f"newton run: trace saw {accepted} accepted steps ending at norm {current!r}, "
                    f"report says {report.iterations} iterations ending at {report.final_grad_norm!r}"
                )
        if calls["estimator.newton"] != runs:
            raise SelfTestError(f"{calls['estimator.newton']} newton spans but {runs} reports")
        if builds_in_newton != runs + iterations + rejected:
            raise SelfTestError(
                f"{builds_in_newton} code-book builds inside newton, expected "
                f"runs {runs} + iterations {iterations} + rejected trials {rejected}"
            )
        minima = sum(r.converged and r.classification == self._local_minimum for r, _ in reports)
        converged = sum(r.converged for r, _ in reports)

        metrics = {}
        for kind in ("finite", "halfinf", "fartail"):
            name = f"quadrature.interval.{kind}"
            metrics[f"{name}.calls"] = calls[name]
            metrics[f"{name}.self_s"] = self_time(name)
        metrics.update({
            "quadrature.scan.calls": calls["quadrature.scan"],
            "quadrature.scan.self_s": self_time("quadrature.scan"),
            "quadrature.pdf_points": unit["pdf_points"],
            "quadrature.expectation.calls": calls["quadrature.expectation"],
            "quadrature.expectation.self_s": self_time("quadrature.expectation"),
            "estimator.codebook.calls": calls["estimator.codebook"],
            "estimator.codebook.self_s": self_time("estimator.codebook"),
            "estimator.grad_jac.calls": calls["estimator.gradient"] + calls["estimator.jacobian"],
            "estimator.grad_jac.self_s": self_time("estimator.gradient", "estimator.jacobian"),
            "estimator.newton.runs": runs,
            "estimator.newton.iterations": iterations,
            "estimator.newton.rejected_trials": rejected,
            "estimator.newton.minima": minima,
            "estimator.newton.saddles": converged - minima,
            "estimator.newton.not_converged": runs - converged,
            "estimator.newton.useful_ratio": unit["kept"] / runs if runs else 0.0,
            "estimator.newton.self_s": self_time("estimator.newton"),
            "estimator.pipeline.self_s": self_time("estimator.pipeline"),
            "cli.self_s": self_time("cli.main"),
        })
        return metrics

    @property
    def unit_count(self) -> int:
        return len(self._units)

    def write_jsonl(self, path) -> None:
        """Write every recorded span, one JSON object a line, times in seconds."""
        base = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            for trace, span_id, parent, name, start, end in self.spans:
                out.write(json.dumps({
                    "trace": trace, "id": span_id, "parent": parent, "name": name,
                    "start": start - base, "end": end - base,
                }) + "\n")


def _replay(norms):
    """Replay newton_solve's documented acceptance rule over traced norms.

    The first code book of a run is its start; each later one is a trial
    step, accepted when its gradient max-norm is finite and strictly below
    the current one.  Returns (accepted, rejected, final norm).
    """
    current = norms[0] if norms else math.nan
    accepted = rejected = 0
    for norm in norms[1:]:
        if math.isfinite(norm) and norm < current:
            accepted += 1
            current = norm
        else:
            rejected += 1
    return accepted, rejected, current

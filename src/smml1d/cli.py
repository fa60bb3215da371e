"""Command-line front end: solve, sweep, curves, verify.

Exit codes: 0 success, 1 invalid input, 2 solver failure.  All lengths are
reported in nats unless --bits is given.  CSV output is byte-identical for
identical configuration and seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .families import (
    FamilyModel,
    MarginalModel,
    ParameterError,
    SupportError,
    make_exponential_gamma,
    make_normal_normal,
)
from .estimator import (
    DEFAULT_SEED,
    SolverOptions,
    SolveReport,
    codebook_from_cutpoints,
    curve_samples,
    gradient,
    jacobian,
    message_length,
    multi_start_solve,
    newton_solve,
    solve_sweep,
)

MODELS = ("normal-normal", "exponential-gamma")


class UsageError(ValueError):
    """Malformed command line or config file."""


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters; mirrors the model constructors' domains."""

    model: str = "normal-normal"
    alpha: float = 2.0
    beta: float = 1.0
    n: int | None = None
    n_min: int | None = None
    n_max: int | None = None
    tol: float = 1e-12
    max_iter: int = 200
    extra_starts: int = 8
    seed: int = DEFAULT_SEED
    out: str | None = None
    fmt: str = "csv"
    bits: bool = False
    full_cuts: bool = False
    digits: int | None = None

    def solver_options(self) -> SolverOptions:
        return SolverOptions(
            tol=self.tol,
            max_iter=self.max_iter,
            extra_starts=self.extra_starts,
            seed=self.seed,
        )

    def models(self) -> tuple[FamilyModel, MarginalModel]:
        if self.model == "normal-normal":
            return make_normal_normal(self.alpha)
        if self.model == "exponential-gamma":
            return make_exponential_gamma(self.alpha, self.beta)
        raise ParameterError(f"model must be one of {MODELS}, got {self.model!r}")

    @property
    def unit(self) -> str:
        return "bits" if self.bits else "nats"

    @property
    def scale(self) -> float:
        return 1.0 / math.log(2.0) if self.bits else 1.0


_CONFIG_KEYS = {
    "model": str,
    "alpha": float,
    "beta": float,
    "n": int,
    "n_min": int,
    "n_max": int,
    "tol": float,
    "max_iter": int,
    "extra_starts": int,
    "seed": int,
    "out": str,
    "format": str,
    "bits": bool,
    "full_cuts": bool,
    "digits": int,
    "x_min": float,
    "x_max": float,
    "points": int,
}


def _read_config_file(path: str) -> dict:
    """Parse `key = value` lines; '#' starts a comment, blank lines ignored."""
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"config: cannot read {path!r}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config: line {lineno} is not 'key = value': {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        val = val.strip()
        if key not in _CONFIG_KEYS:
            raise UsageError(f"config: unknown key {key!r} on line {lineno}")
        kind = _CONFIG_KEYS[key]
        try:
            if kind is bool:
                if val.lower() not in ("true", "false", "1", "0", "yes", "no"):
                    raise ValueError(val)
                values[key] = val.lower() in ("true", "1", "yes")
            else:
                values[key] = kind(val)
        except ValueError as exc:
            raise UsageError(f"config: bad value for {key} on line {lineno}: {val!r}") from exc
    return values


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 for bad usage, not argparse's 2
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="smml1d", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--config", help="key=value config file; flags override it")
    common.add_argument("--model", choices=MODELS)
    common.add_argument("--alpha", type=float)
    common.add_argument("--beta", type=float)
    common.add_argument("--tol", type=float, help="gradient max-norm tolerance")
    common.add_argument("--max-iter", type=int, dest="max_iter")
    common.add_argument("--extra-starts", type=int, dest="extra_starts")
    common.add_argument("--seed", type=int)
    common.add_argument("--out", help="output path (default: stdout)")
    common.add_argument("--format", choices=("csv", "text"), dest="fmt")
    common.add_argument("--bits", action=argparse.BooleanOptionalAction,
                        help="report lengths in bits instead of nats")
    common.add_argument("--full-cuts", action=argparse.BooleanOptionalAction,
                        dest="full_cuts",
                        help="print every cut-point, not only the non-negative ones")
    common.add_argument("--digits", type=int,
                        help="significant digits for CSV numbers (default: full precision)")

    p = sub.add_parser("solve", parents=[common], help="solve for one cut-point count")
    p.add_argument("--n", type=int)

    p = sub.add_parser("sweep", parents=[common], help="solve a range of cut-point counts")
    p.add_argument("--n", type=int, help="shorthand for --n-min N --n-max N")
    p.add_argument("--n-min", type=int, dest="n_min")
    p.add_argument("--n-max", type=int, dest="n_max")

    p = sub.add_parser("curves", parents=[common],
                       help="pointwise code-length densities for a solved model")
    p.add_argument("--n", type=int)
    p.add_argument("--x-min", type=float, dest="x_min")
    p.add_argument("--x-max", type=float, dest="x_max")
    p.add_argument("--points", type=int)

    sub.add_parser("verify", parents=[common],
                   help="run the invariant suite on both built-in models")
    return parser


def _merged_config(args: argparse.Namespace) -> tuple[RunConfig, dict]:
    file_vals = _read_config_file(args.config) if getattr(args, "config", None) else {}
    merged = dict(file_vals)
    for key in vars(args):
        if key in ("command", "config"):
            continue
        val = getattr(args, key)
        if val is not None:
            merged[key] = val
    extras = {k: merged.pop(k) for k in ("x_min", "x_max", "points") if k in merged}
    if "format" in merged:
        merged["fmt"] = merged.pop("format")
    cfg = RunConfig(**merged)
    _validate(cfg)
    return cfg, extras


def _validate(cfg: RunConfig) -> None:
    if cfg.model not in MODELS:
        raise UsageError(f"model must be one of {MODELS}, got {cfg.model!r}")
    if not (math.isfinite(cfg.alpha)):
        raise UsageError(f"alpha must be finite, got {cfg.alpha!r}")
    if cfg.model == "normal-normal" and cfg.alpha <= 0:
        raise ParameterError(f"alpha must be a positive real, got {cfg.alpha!r}")
    if cfg.model == "exponential-gamma":
        if cfg.alpha <= 1:
            raise ParameterError(
                f"alpha must exceed 1 (the marginal needs a finite mean), got {cfg.alpha!r}"
            )
        if not (math.isfinite(cfg.beta) and cfg.beta > 0):
            raise ParameterError(f"beta must be a positive real, got {cfg.beta!r}")
    if cfg.tol <= 0:
        raise UsageError(f"tol must be positive, got {cfg.tol!r}")
    if cfg.max_iter < 1:
        raise UsageError(f"max_iter must be at least 1, got {cfg.max_iter!r}")
    if cfg.extra_starts < 0:
        raise UsageError(f"extra_starts must be non-negative, got {cfg.extra_starts!r}")
    if cfg.digits is not None and cfg.digits < 1:
        raise UsageError(f"digits must be at least 1, got {cfg.digits!r}")


def _fmt_num(value: float, digits: int | None) -> str:
    if digits is None:
        return repr(float(value))
    return format(float(value), f".{digits}g")


def _shown_cuts(cfg: RunConfig, cuts) -> list[float]:
    if cfg.full_cuts:
        return list(cuts)
    return [c for c in cuts if c >= -1e-9]


def _csv_text(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _solution_rows(cfg: RunConfig, reports: list[SolveReport]) -> list[list[str]]:
    # solve always reports the full cut vector; the table-style non-negative
    # filter belongs to sweep
    width = max(len(r.cuts) for r in reports)
    head = ["rank", f"redundancy_{cfg.unit}", "classification", "max_continuity_gap",
            "converged", "iterations"] + [f"cut_{i+1}" for i in range(width)]
    rows = [head]
    for rank, rep in enumerate(reports, start=1):
        row = [
            str(rank),
            _fmt_num(rep.redundancy * cfg.scale, cfg.digits),
            rep.classification,
            _fmt_num(max(rep.continuity_gaps), cfg.digits),
            str(rep.converged).lower(),
            str(rep.iterations),
        ]
        row += [_fmt_num(c, cfg.digits) for c in rep.cuts]
        row += [""] * (width - len(rep.cuts))
        rows.append(row)
    return rows


def _round6(value: float) -> float:
    return round(value, 6) + 0.0  # normalize -0.0


def _solution_text(cfg: RunConfig, reports: list[SolveReport]) -> str:
    lines = []
    for rank, rep in enumerate(reports, start=1):
        lines.append(
            f"solution {rank}: redundancy={rep.redundancy * cfg.scale:.10f} {cfg.unit}"
            f"  classification={rep.classification}"
            f"  max-gap={max(rep.continuity_gaps):.3e}"
            f"  iterations={rep.iterations}"
        )
        cuts = ", ".join(f"{_round6(c):.6f}" for c in rep.cuts)
        lines.append(f"  cut-points: {cuts}")
    return "\n".join(lines) + "\n"


def cmd_solve(cfg: RunConfig) -> int:
    if cfg.n is None or cfg.n < 1:
        raise UsageError(f"n must be a positive integer, got {cfg.n!r}")
    family, marginal = cfg.models()
    reports = multi_start_solve(family, marginal, cfg.n, cfg.solver_options())
    if not reports:
        print("no start converged to a local minimum", file=sys.stderr)
        return 2
    if cfg.fmt == "text":
        _emit(_solution_text(cfg, reports), cfg.out)
    else:
        _emit(_csv_text(_solution_rows(cfg, reports)), cfg.out)
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    n_min = cfg.n_min if cfg.n_min is not None else cfg.n
    n_max = cfg.n_max if cfg.n_max is not None else cfg.n
    if n_min is None or n_max is None:
        raise UsageError("sweep needs --n or both --n-min and --n-max")
    if n_min < 1 or n_min > n_max:
        raise UsageError(f"empty or invalid range: n_min={n_min!r}, n_max={n_max!r}")
    family, marginal = cfg.models()
    stages = solve_sweep(family, marginal, n_min, n_max, cfg.solver_options())
    if any(not reps for reps in stages.values()):
        missing = [n for n, reps in stages.items() if not reps]
        print(f"no converged local minimum for n in {missing}", file=sys.stderr)
        return 2
    best = {n: reps[0] for n, reps in stages.items()}
    width = max(len(_shown_cuts(cfg, rep.cuts)) for rep in best.values())
    rows = [["n", f"redundancy_{cfg.unit}"] + [f"cut_{i+1}" for i in range(width)]]
    for n in range(n_min, n_max + 1):
        rep = best[n]
        cuts = _shown_cuts(cfg, rep.cuts)
        row = [str(n), _fmt_num(rep.redundancy * cfg.scale, cfg.digits)]
        row += [_fmt_num(c, cfg.digits) for c in cuts]
        row += [""] * (width - len(cuts))
        rows.append(row)
    if cfg.fmt == "text":
        text_lines = ["  ".join(f"{cell:>14s}" for cell in row) for row in rows]
        _emit("\n".join(text_lines) + "\n", cfg.out)
    else:
        _emit(_csv_text(rows), cfg.out)
    return 0


def cmd_curves(cfg: RunConfig, x_min: float | None, x_max: float | None, points: int | None) -> int:
    if cfg.n is None or cfg.n < 1:
        raise UsageError(f"n must be a positive integer, got {cfg.n!r}")
    points = 500 if points is None else points
    if points < 2:
        raise UsageError(f"points must be at least 2, got {points!r}")
    family, marginal = cfg.models()
    if x_min is None:
        x_min = marginal.quantile(5e-4)
    if x_max is None:
        x_max = marginal.quantile(1 - 5e-4)
    if not x_min < x_max:
        raise UsageError(f"need x_min < x_max, got ({x_min!r}, {x_max!r})")
    reports = multi_start_solve(family, marginal, cfg.n, cfg.solver_options())
    if not reports:
        print("no start converged to a local minimum", file=sys.stderr)
        return 2
    best = reports[0]
    table = curve_samples(family, marginal, best.codebook, x_min, x_max, points)
    rows = [["x", f"one_part_density_{cfg.unit}", f"two_part_density_{cfg.unit}", "marginal_pdf"]]
    for x, one, two, dens in table.rows():
        rows.append([
            _fmt_num(x, cfg.digits),
            _fmt_num(one * cfg.scale, cfg.digits),
            _fmt_num(two * cfg.scale, cfg.digits),
            _fmt_num(dens, cfg.digits),
        ])
    cut_rows = [["index", "cut_point"]]
    for i, c in enumerate(best.cuts, start=1):
        cut_rows.append([str(i), _fmt_num(c, cfg.digits)])
    if cfg.out:
        _emit(_csv_text(rows), cfg.out)
        out = Path(cfg.out)
        _emit(_csv_text(cut_rows), str(out.with_name(out.stem + "_cutpoints" + out.suffix)))
    else:
        _emit(_csv_text(rows) + "\n" + _csv_text(cut_rows), None)
    return 0


def _verify_model(cfg: RunConfig, name: str) -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []
    sub = RunConfig(model=name, alpha=cfg.alpha, beta=cfg.beta, tol=cfg.tol,
                    max_iter=cfg.max_iter, extra_starts=cfg.extra_starts, seed=cfg.seed)
    family, marginal = sub.models()
    opts = sub.solver_options()
    rng = np.random.default_rng(cfg.seed)

    def random_cuts(n):
        for _ in range(100):
            p = np.sort(rng.uniform(0.08, 0.92, size=n))
            cuts = np.array([marginal.quantile(v) for v in p])
            if np.all(np.diff(cuts) > 0.05):
                return cuts
        raise ArithmeticError("could not draw separated random cut-points")

    # gradient vs finite differences of the length
    worst = 0.0
    for _ in range(3):
        cuts = random_cuts(3)
        book = codebook_from_cutpoints(family, marginal, cuts)
        grad = gradient(family, marginal, book)
        dens = np.exp(np.asarray(marginal.log_pdf(cuts), dtype=float))
        h = 1e-5
        for j in range(cuts.size):
            up, dn = cuts.copy(), cuts.copy()
            up[j] += h
            dn[j] -= h
            fd = (
                message_length(family, marginal, codebook_from_cutpoints(family, marginal, up))
                - message_length(family, marginal, codebook_from_cutpoints(family, marginal, dn))
            ) / (2 * h)
            worst = max(worst, abs(fd - dens[j] * grad[j]) / abs(fd))
    checks.append(("gradient-fd", worst < 1e-4, f"max rel err {worst:.2e}"))

    # tridiagonal jacobian vs finite differences of the gradient
    worst = 0.0
    cuts = random_cuts(3)
    book = codebook_from_cutpoints(family, marginal, cuts)
    J = jacobian(family, marginal, book).to_dense()
    h = 1e-5
    for k in range(cuts.size):
        up, dn = cuts.copy(), cuts.copy()
        up[k] += h
        dn[k] -= h
        fd = (
            gradient(family, marginal, codebook_from_cutpoints(family, marginal, up))
            - gradient(family, marginal, codebook_from_cutpoints(family, marginal, dn))
        ) / (2 * h)
        for j in range(cuts.size):
            if abs(J[j, k]) > 1e-8:
                worst = max(worst, abs(fd[j] - J[j, k]) / abs(J[j, k]))
    checks.append(("jacobian-fd", worst < 1e-4, f"max rel err {worst:.2e}"))

    # coding probabilities sum to one
    worst = 0.0
    for n in (1, 4):
        book = codebook_from_cutpoints(family, marginal, random_cuts(n))
        worst = max(worst, abs(math.fsum(math.exp(lq) for lq in book.log_q) - 1.0))
    checks.append(("normalization", worst < 1e-9, f"max |sum q - 1| {worst:.2e}"))

    # convergence, monotonicity of the best length, continuity gaps
    stages = solve_sweep(family, marginal, 1, 4, opts)
    solved = all(bool(reps) for reps in stages.values())
    checks.append(("newton-convergence", solved,
                   "all n in 1..4 solved" if solved else "some n in 1..4 failed"))
    if solved:
        lengths = [stages[n][0].message_length for n in range(1, 5)]
        mono = all(b <= a + 1e-10 for a, b in zip(lengths, lengths[1:]))
        checks.append(("monotonicity", mono, "best length non-increasing in n"))
        worst = max(max(r.continuity_gaps) for reps in stages.values() for r in reps)
        checks.append(("continuity-gaps", worst <= 10 * opts.tol, f"max gap {worst:.2e}"))
        if marginal.support_lo == -math.inf and marginal.support_hi == math.inf:
            rep = stages[3][0]
            mirrored = sorted(-c for c in rep.cuts)
            mrep = newton_solve(family, marginal, mirrored, opts)
            ok = mrep.converged and abs(mrep.message_length - rep.message_length) <= 1e-10
            checks.append(("mirror-symmetry", ok,
                           f"length diff {abs(mrep.message_length - rep.message_length):.2e}"))
    return checks


def cmd_verify(cfg: RunConfig) -> int:
    all_ok = True
    lines = []
    for name in MODELS:
        lines.append(f"[{name}]")
        for check, ok, detail in _verify_model(cfg, name):
            all_ok &= ok
            lines.append(f"  {check:<20s} {'pass' if ok else 'FAIL':<4s}  {detail}")
    text = "\n".join(lines) + "\n" + ("all checks passed\n" if all_ok else "FAILURES present\n")
    _emit(text, cfg.out)
    return 0 if all_ok else 1


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg, extras = _merged_config(args)
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "curves":
            return cmd_curves(cfg, extras.get("x_min"), extras.get("x_max"), extras.get("points"))
        if args.command == "verify":
            return cmd_verify(cfg)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, ParameterError, SupportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

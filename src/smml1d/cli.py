"""Command-line front end: solve, sweep, curves, verify.

Exit codes: 0 success, 1 invalid input, 2 solver failure.  All lengths are
reported in nats unless --bits is given.  CSV output is byte-identical for
identical configuration; --seed only draws the random configurations of
verify.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import math
import sys
from pathlib import Path

import numpy as np

from .families import (
    FamilyModel,
    MarginalModel,
    ParameterError,
    make_exponential_gamma,
    make_normal_normal,
)
from .estimator import (
    SolverOptions,
    SolveReport,
    codebook_from_cutpoints,
    curve_samples,
    gradient,
    jacobian,
    multi_start_solve,
    newton_solve,
    solve_sweep,
)
from .checks import DEFAULT_SEED, gradient_fd, length_fd, separated_cuts

MODELS = ("normal-normal", "exponential-gamma")


class UsageError(ValueError):
    """Malformed command line or config file."""


@dataclasses.dataclass(frozen=True)
class Option:
    """A ``RunConfig`` field and config key ``name``, and the flag ``--name``
    (dashes for underscores; bools also ``--no-name``) on ``commands``, or
    on every subcommand when that is None."""

    name: str
    kind: type
    default: object = None
    help: str | None = None
    choices: tuple[str, ...] | None = None
    commands: tuple[str, ...] | None = None


OPTIONS = (
    Option("model", str, "normal-normal", choices=MODELS),
    Option("alpha", float, 2.0, "prior standard deviation (normal) or shape (gamma)"),
    Option("beta", float, 1.0, "gamma prior rate"),
    Option("tol", float, SolverOptions.tol, "gradient max-norm tolerance"),
    Option("max_iter", int, SolverOptions.max_iter, "Newton steps per start"),
    Option("seed", int, DEFAULT_SEED, "seed of verify's random configurations"),
    Option("out", str, None, "output path (default: stdout)"),
    Option("format", str, "csv", choices=("csv", "text")),
    Option("bits", bool, False, "report lengths in bits instead of nats"),
    Option("full_cuts", bool, False, "print every cut-point, not only the non-negative ones"),
    Option("digits", int, None, "significant digits for CSV numbers (default: full precision)"),
    Option("n", int, None, "cut-point count; for sweep, shorthand for --n-min N --n-max N",
           commands=("solve", "sweep", "curves")),
    Option("n_min", int, commands=("sweep",)),
    Option("n_max", int, commands=("sweep",)),
    Option("x_min", float, None, "left end of the grid (default: the 5e-4 quantile)",
           commands=("curves",)),
    Option("x_max", float, None, "right end of the grid (default: the 1 - 5e-4 quantile)",
           commands=("curves",)),
    Option("points", int, 500, "grid size", commands=("curves",)),
)
_CONFIG_KEYS = {opt.name: opt for opt in OPTIONS}
_BOOLEANS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


class _RunConfigMethods:
    def solver_options(self) -> SolverOptions:
        return SolverOptions(tol=self.tol, max_iter=self.max_iter)

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


# Run parameters: one frozen field per option, with the option's default.
RunConfig = dataclasses.make_dataclass(
    "RunConfig",
    [(opt.name, opt.kind if opt.default is not None else opt.kind | None, opt.default)
     for opt in OPTIONS],
    bases=(_RunConfigMethods,),
    frozen=True,
)


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
        opt = _CONFIG_KEYS[key]
        try:
            value = _BOOLEANS[val.lower()] if opt.kind is bool else opt.kind(val)
            if opt.choices and value not in opt.choices:
                raise ValueError(val)
        except (KeyError, ValueError) as exc:
            raise UsageError(f"config: bad value for {key} on line {lineno}: {val!r}") from exc
        values[key] = value
    return values


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # a flag is spelled out, never abbreviated
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # exit code 1 for bad usage, not argparse's 2
        raise UsageError(message)


def _add_flags(parser: _Parser, options) -> None:
    for opt in options:
        kind = ({"action": argparse.BooleanOptionalAction} if opt.kind is bool
                else {"type": opt.kind, "choices": opt.choices})
        text = opt.help
        if opt.default is not None:
            text = f"{text or ''} (default: {opt.default})".lstrip()
        parser.add_argument("--" + opt.name.replace("_", "-"), dest=opt.name, help=text, **kind)


def _build_parser() -> _Parser:
    parser = _Parser(prog="smml1d", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    common = _Parser(add_help=False)  # built once, copied into each subcommand
    common.add_argument("--config", help="key=value config file; flags override it")
    _add_flags(common, [opt for opt in OPTIONS if opt.commands is None])
    for command, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=help_text)
        _add_flags(p, [opt for opt in OPTIONS if command in (opt.commands or ())])
    return parser


def _merged_config(args: argparse.Namespace) -> RunConfig:
    """Config-file values, overridden by the flags given."""
    merged = _read_config_file(args.config) if args.config else {}
    for opt in OPTIONS:
        if getattr(args, opt.name, None) is not None:
            merged[opt.name] = getattr(args, opt.name)
    cfg = RunConfig(**merged)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    """Checks of the solver and output options; the model constructors
    check alpha and beta, and ``RunConfig.models`` the model name."""
    if not (math.isfinite(cfg.tol) and cfg.tol > 0):
        raise UsageError(f"tol must be a positive finite number, got {cfg.tol!r}")
    if cfg.max_iter < 1:
        raise UsageError(f"max_iter must be at least 1, got {cfg.max_iter!r}")
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
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {out!r}: {exc}") from exc


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
    if cfg.format == "text":
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
    if cfg.format == "text":
        text_lines = ["  ".join(f"{cell:>14s}" for cell in row) for row in rows]
        _emit("\n".join(text_lines) + "\n", cfg.out)
    else:
        _emit(_csv_text(rows), cfg.out)
    return 0


def cmd_curves(cfg: RunConfig) -> int:
    if cfg.n is None or cfg.n < 1:
        raise UsageError(f"n must be a positive integer, got {cfg.n!r}")
    if cfg.points < 2:
        raise UsageError(f"points must be at least 2, got {cfg.points!r}")
    family, marginal = cfg.models()
    x_min = marginal.quantile(5e-4) if cfg.x_min is None else cfg.x_min
    x_max = marginal.quantile(1 - 5e-4) if cfg.x_max is None else cfg.x_max
    if not (math.isfinite(x_min) and math.isfinite(x_max) and x_min < x_max):
        raise UsageError(f"need finite x_min < x_max, got ({x_min!r}, {x_max!r})")
    reports = multi_start_solve(family, marginal, cfg.n, cfg.solver_options())
    if not reports:
        print("no start converged to a local minimum", file=sys.stderr)
        return 2
    best = reports[0]
    table = curve_samples(family, marginal, best.codebook, x_min, x_max, cfg.points)
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
    family, marginal = dataclasses.replace(cfg, model=name).models()
    opts = cfg.solver_options()
    rng = np.random.default_rng(cfg.seed)

    # r(a) * gradient vs finite differences of the length
    worst = 0.0
    for _ in range(3):
        cuts = separated_cuts(marginal, rng, 3)
        book = codebook_from_cutpoints(family, marginal, cuts)
        slope = np.exp(np.asarray(marginal.log_pdf(cuts), dtype=float)) * gradient(
            family, marginal, book)
        fd = length_fd(family, marginal, cuts)
        worst = max(worst, float(np.max(np.abs(fd - slope) / np.abs(fd))))
    checks.append(("gradient-fd", worst < 1e-4, f"max rel err {worst:.2e}"))

    # tridiagonal jacobian vs finite differences of the gradient
    cuts = separated_cuts(marginal, rng, 3)
    J = jacobian(family, marginal, codebook_from_cutpoints(family, marginal, cuts)).to_dense()
    band = np.abs(J) > 1e-8
    fd = gradient_fd(family, marginal, cuts)
    worst = float(np.max(np.abs(fd[band] - J[band]) / np.abs(J[band]), initial=0.0))
    checks.append(("jacobian-fd", worst < 1e-4, f"max rel err {worst:.2e}"))

    # coding probabilities sum to one
    worst = 0.0
    for n in (1, 4):
        book = codebook_from_cutpoints(family, marginal, separated_cuts(marginal, rng, n))
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


COMMANDS = {
    "solve": (cmd_solve, "solve for one cut-point count"),
    "sweep": (cmd_sweep, "solve a range of cut-point counts"),
    "curves": (cmd_curves, "pointwise code-length densities for a solved model"),
    "verify": (cmd_verify, "run the invariant suite on both built-in models"),
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        command, _ = COMMANDS[args.command]
        return command(_merged_config(args))
    except ValueError as exc:  # UsageError, ParameterError and SupportError too
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

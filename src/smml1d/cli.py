"""Command-line front end: solve, sweep, curves, verify.

Exit codes: 0 success, 1 invalid input, 2 solver failure.  All lengths are
reported in nats unless --bits is given.  CSV output is byte-identical for
identical configuration.  Each subcommand takes only the flags it reads, so
--seed, which draws the random configurations of verify, is verify's alone.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import math
import re
import sys
from pathlib import Path

from .families import FamilyModel, MarginalModel, make_exponential_gamma, make_normal_normal
from .estimator import (
    _TOL,
    SolveReport,
    codebook_from_cutpoints,
    curve_samples,
    gradient,
    jacobian,
    newton_solve,
    solve_sweep,
)
from .checks import DEFAULT_SEED, gradient_fd, length_fd, separated_cuts

# Model name -> (family, marginal) of a run's config.  Each entry looks its
# constructor up when called, so a wrapper put on ``cli.make_*`` applies.
MODELS = {
    "normal-normal": lambda cfg: make_normal_normal(cfg.alpha),
    "exponential-gamma": lambda cfg: make_exponential_gamma(cfg.alpha, cfg.beta),
}


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


_SOLVERS = ("solve", "sweep", "curves")
OPTIONS = (
    Option("model", str, "normal-normal", choices=tuple(MODELS), commands=_SOLVERS),
    Option("alpha", float, 2.0, "prior standard deviation (normal) or shape (gamma)"),
    Option("beta", float, 1.0, "gamma prior rate"),
    Option("seed", int, DEFAULT_SEED, "seed of verify's random configurations",
           commands=("verify",)),
    Option("out", str, None, "output path (default: stdout)"),
    Option("format", str, "csv", choices=("csv", "text"), commands=("solve", "sweep")),
    Option("bits", bool, False, "report lengths in bits instead of nats", commands=_SOLVERS),
    Option("full_cuts", bool, False, "print every cut-point, not only the non-negative ones",
           commands=("sweep",)),
    Option("digits", int, None, "significant digits for CSV numbers (default: full precision)",
           commands=_SOLVERS),
    Option("n", int, None, "cut-point count; for sweep, shorthand for --n-min N --n-max N",
           commands=_SOLVERS),
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
    def models(self) -> tuple[FamilyModel, MarginalModel]:
        return MODELS[self.model](self)

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
    """Parse UTF-8 `key = value` lines, a leading byte-order mark skipped;
    '#' starts a comment, blank lines ignored."""
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
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
        # argparse takes "-1e3" for a flag; a negative number in exponent form
        # is a value like "-1000"
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):  # exit code 1 for bad usage, not argparse's 2
        raise UsageError(message)


def _build_parser(commands=None) -> _Parser:
    """The parser with a subparser for each of ``commands``, by default all
    of ``COMMANDS``."""
    parser = _Parser(prog="smml1d", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS if commands is None else commands:
        p = sub.add_parser(command, help=COMMANDS[command][1])
        p.add_argument("--config", help="key=value config file; flags override it")
        for opt in OPTIONS:
            if opt.commands is not None and command not in opt.commands:
                continue
            kind = ({"action": argparse.BooleanOptionalAction} if opt.kind is bool
                    else {"type": opt.kind, "choices": opt.choices})
            text = opt.help
            if opt.default is not None:
                text = f"{text or ''} (default: {opt.default})".lstrip()
            p.add_argument("--" + opt.name.replace("_", "-"), dest=opt.name, help=text, **kind)
    return parser


def _merged_config(args: argparse.Namespace) -> RunConfig:
    """Config-file values, overridden by the flags given.  Only --digits is
    checked here: the model constructors check alpha and beta, and each
    subcommand the counts it reads."""
    merged = _read_config_file(args.config) if args.config else {}
    for opt in OPTIONS:
        if getattr(args, opt.name, None) is not None:
            merged[opt.name] = getattr(args, opt.name)
    cfg = RunConfig(**merged)
    if cfg.digits is not None and cfg.digits < 1:
        raise UsageError(f"digits must be at least 1, got {cfg.digits!r}")
    return cfg


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
            _fmt_num(rep.final_grad_norm, cfg.digits),
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
            f"  max-gap={rep.final_grad_norm:.3e}"
            f"  iterations={rep.iterations}"
        )
        cuts = ", ".join(f"{_round6(c):.6f}" for c in rep.cuts)
        lines.append(f"  cut-points: {cuts}")
    return "\n".join(lines) + "\n"


def cmd_solve(cfg: RunConfig) -> int:
    if cfg.n is None or cfg.n < 1:
        raise UsageError(f"n must be a positive integer, got {cfg.n!r}")
    family, marginal = cfg.models()
    reports = solve_sweep(family, marginal, cfg.n)[cfg.n]
    if not reports:
        print(f"no local minimum for n={cfg.n}", file=sys.stderr)
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
    stages = solve_sweep(family, marginal, n_max)
    shown = range(n_min, n_max + 1)
    missing = [n for n in shown if not stages[n]]
    if missing:
        print(f"no local minimum for n in {missing}", file=sys.stderr)
        return 2
    best = [stages[n][0] for n in shown]
    width = max(len(_shown_cuts(cfg, rep.cuts)) for rep in best)
    rows = [["n", f"redundancy_{cfg.unit}"] + [f"cut_{i+1}" for i in range(width)]]
    for n, rep in zip(shown, best):
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
    reports = solve_sweep(family, marginal, cfg.n)[cfg.n]
    if not reports:
        print(f"no local minimum for n={cfg.n}", file=sys.stderr)
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
    import numpy as np
    checks: list[tuple[str, bool, str]] = []
    family, marginal = dataclasses.replace(cfg, model=name).models()
    rng = np.random.default_rng(cfg.seed)

    # r(a) * gradient vs finite differences of the length; np.max, unlike
    # max, keeps a NaN error, so the check fails on it.  A code book that
    # cannot be built is a NaN error of this check and of the two below.
    errors = []
    try:
        for _ in range(3):
            cuts = separated_cuts(marginal, rng, 3)
            book = codebook_from_cutpoints(family, marginal, cuts)
            slope = np.exp(np.asarray(marginal.log_pdf(cuts), dtype=float)) * gradient(
                family, marginal, book)
            fd = length_fd(family, marginal, cuts)
            errors.append(np.abs(fd - slope) / np.abs(fd))
    except ArithmeticError:
        errors.append(np.full(3, math.nan))
    worst = float(np.max(errors))
    checks.append(("gradient-fd", worst < 1e-4, f"max rel err {worst:.2e}"))

    # tridiagonal jacobian vs finite differences of the gradient
    try:
        cuts = separated_cuts(marginal, rng, 3)
        J = jacobian(family, marginal, codebook_from_cutpoints(family, marginal, cuts)).to_dense()
        band = np.abs(J) > 1e-8
        fd = gradient_fd(family, marginal, cuts)
        worst = float(np.max(np.abs(fd[band] - J[band]) / np.abs(J[band]), initial=0.0))
    except ArithmeticError:
        worst = math.nan
    checks.append(("jacobian-fd", worst < 1e-4, f"max rel err {worst:.2e}"))

    # coding probabilities sum to one
    try:
        books = [codebook_from_cutpoints(family, marginal, separated_cuts(marginal, rng, n))
                 for n in (1, 4)]
        worst = float(np.max([abs(math.fsum(map(math.exp, b.log_q)) - 1.0) for b in books]))
    except ArithmeticError:
        worst = math.nan
    checks.append(("normalization", worst < 1e-9, f"max |sum q - 1| {worst:.2e}"))

    # convergence, monotonicity of the best length, continuity gaps
    stages = solve_sweep(family, marginal, 4)
    solved = all(bool(reps) for reps in stages.values())
    checks.append(("newton-convergence", solved,
                   "all n in 1..4 solved" if solved else "some n in 1..4 failed"))
    if solved:
        lengths = [stages[n][0].message_length for n in range(1, 5)]
        mono = all(b <= a + 1e-10 for a, b in zip(lengths, lengths[1:]))
        checks.append(("monotonicity", mono, "best length non-increasing in n"))
        worst = max(r.final_grad_norm for reps in stages.values() for r in reps)
        checks.append(("continuity-gaps", worst <= 10 * _TOL, f"max gap {worst:.2e}"))
        if marginal.mirror_symmetric:
            rep = stages[3][0]
            mirrored = sorted(-c for c in rep.cuts)
            mrep = newton_solve(family, marginal, mirrored)
            ok = mrep.kept and abs(mrep.message_length - rep.message_length) <= 1e-10
            checks.append(("mirror-symmetry", ok,
                           f"length diff {abs(mrep.message_length - rep.message_length):.2e}"))
    return checks


def cmd_verify(cfg: RunConfig) -> int:
    import numpy as np
    all_ok = True
    lines = []
    for name in MODELS:
        lines.append(f"[{name}]")
        # a non-finite value fails its check; numpy need not warn of it as well
        with np.errstate(all="ignore"):
            checks = _verify_model(cfg, name)
        for check, ok, detail in checks:
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
    argv = sys.argv[1:] if argv is None else list(argv)
    # The parser with all four subparsers takes about 0.9 ms to build, with
    # one 0.35 ms, so a command line that names its command gets that one
    # alone; any other needs them all, for the top parser's help and its
    # messages, which list the choices.
    named = argv[:1] if argv and argv[0] in COMMANDS else None
    try:
        args = _build_parser(named).parse_args(argv)
        command, _ = COMMANDS[args.command]
        return command(_merged_config(args))
    except (ValueError, MemoryError) as exc:  # Usage, Parameter, SupportError; too many --points
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

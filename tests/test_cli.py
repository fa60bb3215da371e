import dataclasses
import itertools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import trapezoid

import smml1d
from smml1d.checks import fd_step, separated_cuts
from smml1d.cli import (
    COMMANDS, MODELS, OPTIONS, RunConfig, _build_parser, _merged_config, _verify_model, main,
)

EXP_TABLE = [0.058912861229508, 0.057904507855295, 0.057900816329763]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_single_cut_text_output(self, capsys):
        code, out, _ = run_cli(
            ["solve", "--model", "normal-normal", "--alpha", "2", "--n", "1",
             "--format", "text"], capsys)
        assert code == 0
        assert "0.000000" in out and "-0.000000" not in out
        assert "0.2968787934" in out
        assert "local-minimum" in out

    def test_csv_has_header_and_rank(self, capsys):
        code, out, _ = run_cli(
            ["solve", "--model", "exponential-gamma", "--alpha", "2", "--beta", "1",
             "--n", "1"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("rank,redundancy_nats,classification,max_continuity_gap")
        assert lines[1].startswith("1,")

    def test_six_cut_best_row(self, capsys):
        """Best row carries the stable redundancy and the mirrored cut vector."""
        code, out, _ = run_cli(
            ["solve", "--model", "normal-normal", "--alpha", "2", "--n", "6",
             "--format", "text"], capsys)
        assert code == 0
        first = out.splitlines()[0]
        assert "0.1753120750" in first
        cuts = [float(v) for v in out.splitlines()[1].split(":")[1].split(",")]
        np.testing.assert_allclose(
            cuts, [-10.8840, -5.9797, -1.9203, 1.9203, 5.9797, 10.8840], atol=5e-5)

    def test_invalid_alpha_exits_1_with_field(self, capsys):
        code, _, err = run_cli(
            ["solve", "--model", "exponential-gamma", "--alpha", "1", "--beta", "1",
             "--n", "1"], capsys)
        assert code == 1
        assert "alpha" in err and "exceed 1" in err

    @pytest.mark.parametrize("setting", ["--tol=1e-10", "--max-iter=5", "tol = 1e-10",
                                         "max_iter = 5"])
    def test_solver_settings_are_unknown(self, setting, tmp_path, capsys):
        """Newton's stopping rule is fixed, so neither a flag nor a config key
        sets its tolerance or its step budget."""
        if setting.startswith("--"):
            argv, unknown = [setting], f"unrecognized arguments: {setting}"
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(setting + "\n", encoding="utf-8")
            argv, unknown = ["--config", str(cfg)], f"config: unknown key {setting.split()[0]!r}"
        code, out, err = run_cli(["solve", "--n", "2", *argv], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {unknown}")

    def test_unwritable_out_exits_1(self, tmp_path, capsys):
        out_path = str(tmp_path / "missing" / "x.csv")
        code, out, err = run_cli(["solve", "--n", "1", "--out", out_path], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: cannot write") and err.count("\n") == 1

    def test_missing_n_exits_1(self, capsys):
        code, _, err = run_cli(["solve", "--model", "normal-normal", "--alpha", "2"], capsys)
        assert code == 1
        assert "n" in err


class TestSolverFailure:
    def test_heavy_tailed_lomax_solves(self, capsys):
        """alpha = 1.05: the Lomax tail is too heavy for the quadrature's tail
        map; the closed-form tail integrals solve it."""
        code, out, err = run_cli(
            ["solve", "--model", "exponential-gamma", "--alpha", "1.05", "--beta", "1",
             "--n", "2"], capsys)
        assert code == 0, err
        row = out.splitlines()[1].split(",")
        assert row[2] == "local-minimum" and row[4] == "true"
        np.testing.assert_allclose([float(c) for c in row[6:8]], [7.498, 238.44], rtol=1e-4)

    @pytest.mark.parametrize("argv,message", [
        (["solve", "--n", "1"], "no local minimum for n=1\n"),
        (["sweep", "--n-min", "1", "--n-max", "3"], "no local minimum for n in [1, 2, 3]\n"),
        (["curves", "--n", "1"], "no local minimum for n=1\n"),
    ], ids=["solve", "sweep", "curves"])
    def test_no_minimum_exits_2(self, argv, message, capsys):
        """Prior sd 0.05: no stage has a local minimum, so each subcommand
        exits 2 and names the n it could not solve."""
        code, out, err = run_cli([*argv, "--model", "normal-normal", "--alpha", "0.05"], capsys)
        assert code == 2
        assert out == ""
        assert err == message

    @pytest.mark.parametrize("argv,message", [
        (["solve", "--n", "1", "--alpha", "1e200"], "no local minimum for n=1\n"),
        (["sweep", "--n", "3", "--model", "exponential-gamma", "--beta", "1e-300"],
         "no local minimum for n in [3]\n"),
        (["sweep", "--n-min", "1", "--n-max", "2", "--model", "exponential-gamma",
          "--beta", "1e308"], "no local minimum for n in [1, 2]\n"),
        (["sweep", "--n-min", "1", "--n-max", "2", "--model", "exponential-gamma",
          "--beta", "5e-324"], "no local minimum for n in [1, 2]\n"),
    ], ids=["nan-gradient", "nan-jacobian", "overflowing-centroid", "nonfinite-quadrature"])
    def test_nonfinite_residuals_fail_without_warnings(self, argv, message, capsys):
        """A non-finite G or J, a half-line centroid that overflows (beta=1e308)
        or non-finite quadrature values (beta=5e-324) reject a trial or end a
        run; numpy's floating-point warnings about them do not reach the user."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (2, "", message)

    def test_underflowing_lomax_variance_exits_2(self):
        """At beta=1e200 the natural parameters are about -1e-200, so the
        variance 1/theta^2 divides by zero in every Jacobian; each run ends
        as a singular system and the sweep names the stages it lost."""
        proc = run_module(["sweep", "--model", "exponential-gamma", "--beta", "1e200",
                           "--n-min", "1", "--n-max", "3"])
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "no local minimum for n in [1, 2, 3]\n"

    @pytest.mark.parametrize("command", ["sweep", "solve", "curves"])
    def test_arithmetic_error_exits_2(self, command, capsys, monkeypatch):
        """Every solving subcommand goes through ``solve_sweep``, and a solver
        fault there exits 2 with its reason."""
        def fail(*args, **kwargs):
            raise ArithmeticError("degenerate interval mass over (0.9, inf)")

        monkeypatch.setattr("smml1d.cli.solve_sweep", fail)
        code, out, err = run_cli(
            [command, "--model", "normal-normal", "--alpha", "2", "--n", "2"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: solver failure: degenerate interval mass over (0.9, inf)\n"


class TestSweep:
    def test_exponential_gamma_values(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--model", "exponential-gamma", "--alpha", "2", "--beta", "1",
             "--n-min", "1", "--n-max", "3"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split(",")[:2] == ["n", "redundancy_nats"]
        for row, expected in zip(lines[1:], EXP_TABLE):
            assert float(row.split(",")[1]) == pytest.approx(expected, abs=1e-9)

    def test_empty_range_exits_1(self, capsys):
        code, _, err = run_cli(
            ["sweep", "--model", "normal-normal", "--alpha", "2",
             "--n-min", "3", "--n-max", "1"], capsys)
        assert code == 1
        assert "range" in err

    def test_nonnegative_cut_filter_and_full_cuts(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--model", "normal-normal", "--alpha", "2", "--n", "2",
             "--digits", "8"], capsys)
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert [c for c in row[2:] if c] == ["1.9739623"]
        code, out, _ = run_cli(
            ["sweep", "--model", "normal-normal", "--alpha", "2", "--n", "2",
             "--digits", "8", "--full-cuts"], capsys)
        assert code == 0
        row = out.splitlines()[1].split(",")
        assert [c for c in row[2:] if c] == ["-1.9739623", "1.9739623"]

    def test_bits_flag_scales_lengths(self, capsys):
        code, nats_out, _ = run_cli(
            ["sweep", "--model", "exponential-gamma", "--alpha", "2", "--beta", "1",
             "--n", "1"], capsys)
        assert code == 0
        code, bits_out, _ = run_cli(
            ["sweep", "--model", "exponential-gamma", "--alpha", "2", "--beta", "1",
             "--n", "1", "--bits"], capsys)
        assert code == 0
        assert "redundancy_bits" in bits_out.splitlines()[0]
        nats = float(nats_out.splitlines()[1].split(",")[1])
        bits = float(bits_out.splitlines()[1].split(",")[1])
        assert bits == pytest.approx(nats / math.log(2.0), rel=1e-12)

    def test_text_layout(self, capsys):
        """--format text right-aligns every cell of the CSV rows in 14 columns,
        two spaces apart."""
        code, out, err = run_cli(["sweep", "--n-min", "1", "--n-max", "2", "--format", "text",
                                  "--digits", "6"], capsys)
        assert (code, err) == (0, "")
        assert out == ("             n  redundancy_nats           cut_1\n"
                       "             1        0.296879               0\n"
                       "             2        0.184852         1.97396\n")

    def test_deterministic_csv_bytes(self, tmp_path):
        """Same config twice: the files must match byte for byte."""
        argv = ["sweep", "--model", "exponential-gamma", "--alpha", "2", "--beta", "1",
                "--n-min", "1", "--n-max", "3"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestConfigFile:
    def test_file_supplies_values_and_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# sweep configuration\n"
            "model = exponential-gamma\n"
            "alpha = 2\n"
            "beta = 1\n"
            "n = 1\n"
            "digits = 6\n",
            encoding="utf-8",
        )
        code, out, _ = run_cli(["sweep", "--config", str(cfg)], capsys)
        assert code == 0
        assert out.splitlines()[1].split(",")[2] == "4.49209"
        # a flag beats the file
        code, out, _ = run_cli(["sweep", "--config", str(cfg), "--digits", "3"], capsys)
        assert code == 0
        assert out.splitlines()[1].split(",")[2] == "4.49"

    def test_unknown_key_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        for key in ("modle = normal-normal", "extra_starts = 8", "fmt = csv", "config = x"):
            cfg.write_text(key + "\n", encoding="utf-8")
            code, _, err = run_cli(["sweep", "--config", str(cfg), "--n", "1"], capsys)
            assert code == 1
            assert key.split()[0] in err

    def test_byte_order_mark_is_skipped(self, tmp_path, capsys):
        """A file saved with a UTF-8 byte-order mark reads like one without."""
        runs = []
        for encoding in ("utf-8", "utf-8-sig"):
            cfg = tmp_path / f"{encoding}.cfg"
            cfg.write_text("digits = 6\nn = 1\n", encoding=encoding)
            runs.append(run_cli(["sweep", "--config", str(cfg), "--model", "exponential-gamma"],
                                capsys))
        assert cfg.read_bytes().startswith(b"\xef\xbb\xbfdigits")
        assert runs[0] == runs[1]
        assert runs[0][0] == 0 and runs[0][1].splitlines()[1].split(",")[2] == "4.49209"

    def test_unreadable_file_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        code, out, err = run_cli(["solve", "--config", str(missing), "--n", "1"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: config: cannot read {str(missing)!r}")

    @pytest.mark.parametrize("line", ["format = xml", "model = foo", "digits 6"])
    def test_values_checked_like_flags(self, line, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        code, out, err = run_cli(["solve", "--config", str(cfg), "--n", "1"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and line.split()[0] in err


def _config_of(argv):
    return _merged_config(_build_parser().parse_args(argv))


class TestOptionTable:
    """OPTIONS is the one declaration of every flag, config key and field."""

    def test_flag_and_config_key_give_the_same_value(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        for opt in OPTIONS:  # a value other than the default, as a flag argument
            value = opt.choices[-1] if opt.choices else {
                bool: "true", int: "7", float: "0.5", str: "x.csv"}[opt.kind]
            cfg_file.write_text(f"{opt.name} = {value}\n", encoding="utf-8")
            flag = ["--" + opt.name.replace("_", "-")] + ([] if opt.kind is bool else [value])
            for command in COMMANDS:
                from_file = getattr(_config_of([command, "--config", str(cfg_file)]), opt.name)
                assert from_file == opt.kind(value) != getattr(RunConfig(), opt.name)
                if opt.commands is None or command in opt.commands:
                    assert getattr(_config_of([command, *flag]), opt.name) == from_file
                else:
                    with pytest.raises(ValueError, match="unrecognized"):
                        _config_of([command, *flag])

    @pytest.mark.parametrize("argv, unrecognized", [
        (["solve", "--n", "1", "--dig", "3", "--form", "text"], "--dig 3 --form text"),
        (["verify", "--n", "1"], "--n 1"),
    ])
    def test_abbreviated_flags_are_rejected(self, argv, unrecognized, capsys):
        """A prefix of a flag is not that flag, even when only one flag has it."""
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (1, "")
        assert f"unrecognized arguments: {unrecognized}" in err

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_help_lists_the_table(self, command, capsys):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        listed = capsys.readouterr().out.split("options:")[1].splitlines()
        assert [line.split()[0].rstrip(",") for line in listed if line.startswith("  -")] == [
            "-h", "--config", *("--" + opt.name.replace("_", "-") for opt in OPTIONS
                                if opt.commands is None or command in opt.commands)]

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_help_is_that_of_the_full_parser(self, command, capsys):
        """main builds the named command's subparser alone; its help is the
        one the parser with all four subparsers prints."""
        with pytest.raises(SystemExit):
            main([command, "--help"])
        alone = capsys.readouterr().out
        with pytest.raises(SystemExit):
            _build_parser().parse_args([command, "--help"])
        assert alone == capsys.readouterr().out
        assert alone.startswith(f"usage: smml1d {command} ")


class TestUsageErrors:
    @pytest.mark.parametrize("argv, message", [
        (["solve", "--n", "1", "--digits", "0"], "digits must be at least 1, got 0"),
        (["sweep", "--n-min", "1"], "sweep needs --n or both --n-min and --n-max"),
        (["curves", "--n", "0"], "n must be a positive integer, got 0"),
        ([], "the following arguments are required: command"),
        (["sweep", "--seed", "2"], "unrecognized arguments: --seed 2"),
    ], ids=["digits-0", "sweep-without-range", "curves-n-0", "no-command",
            "flag-of-another-command"])
    def test_exits_1_with_reason(self, argv, message, capsys):
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [["bogus"], ["--alpha", "2"], ["solve", "--n"],
                                      ["verify", "solve"]])
    def test_messages_are_those_of_the_full_parser(self, argv, capsys):
        """A command line that names no command is parsed with every
        subparser built, so an unknown command is told the choices (their
        quoting is argparse's, which differs between Python versions)."""
        with pytest.raises(ValueError) as full:
            _build_parser().parse_args(argv)
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (1, "", f"error: {full.value}\n")
        if argv == ["bogus"]:
            assert "argument command: invalid choice: 'bogus' (choose from " in err


class TestCurves:
    def test_csv_pair_written(self, tmp_path):
        out = tmp_path / "curves.csv"
        code = main(["curves", "--model", "normal-normal", "--alpha", "2", "--n", "2",
                     "--x-min", "-8", "--x-max", "8", "--points", "400",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "x,one_part_density_nats,two_part_density_nats,marginal_pdf"
        assert len(lines) == 401
        cut_file = tmp_path / "curves_cutpoints.csv"
        rows = cut_file.read_text(encoding="utf-8").splitlines()
        assert rows[0] == "index,cut_point"
        assert len(rows) == 3

    def test_count_too_small_exits_1(self, capsys):
        code, _, err = run_cli(
            ["curves", "--model", "normal-normal", "--alpha", "2", "--n", "1",
             "--points", "1"], capsys)
        assert code == 1
        assert "points" in err

    @pytest.mark.parametrize("bounds", [
        ["--x-min=-inf", "--x-max", "3"], ["--x-max=inf"], ["--x-min=nan"]])
    def test_nonfinite_range_exits_1(self, bounds, capsys):
        code, out, err = run_cli(["curves", "--n", "1", "--points", "5", *bounds], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "x_min < x_max" in err

    def test_overflowing_width_exits_1(self, capsys):
        """Both ends are finite but x_max - x_min is not: the grid steps
        would overflow."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["curves", "--n", "1", "--points", "3",
                                      "--x-min", "-1e308", "--x-max", "1e308"], capsys)
        assert (code, out) == (1, "")
        assert err == "error: need x_lo < x_hi a finite distance apart, got (-1e+308, 1e+308)\n"

    def test_far_grid_prints_no_warning(self, capsys):
        """The marginal density underflows on a grid at 1e200; the rows are
        zeros and numpy does not warn of the overflowing square."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["curves", "--n", "2", "--points", "3",
                                      "--x-min", "1e200", "--x-max", "1e201"], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines()[1:4] == [
            "1e+200,0.0,0.0,0.0", "5.5e+200,0.0,0.0,0.0", "1e+201,0.0,0.0,0.0"]

    def test_negative_bound_in_exponent_form(self, capsys):
        code, out, err = run_cli(["curves", "--n", "1", "--points", "3",
                                  "--x-min", "-1e3", "--x-max", "1e3"], capsys)
        assert code == 0, err
        assert [row.split(",")[0] for row in out.splitlines()[1:4]] == ["-1000.0", "0.0", "1000.0"]

    def test_grid_beyond_memory_exits_1(self, monkeypatch, capsys):
        """A --points grid larger than memory is invalid input: exit 1 with
        one error line naming the failed allocation, and no traceback.  The
        allocation is faked: a host that overcommits memory would try to
        provide a real 7 TiB array."""
        message = ("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) "
                   "and data type float64")

        def too_large(*args):
            raise MemoryError(message)

        monkeypatch.setattr("smml1d.cli.curve_samples", too_large)
        code, out, err = run_cli(["curves", "--n", "1", "--points", "1000000000000"], capsys)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_density_column_integrates_to_cdf_mass(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["curves", "--model", "normal-normal", "--alpha", "2", "--n", "1",
                     "--x-min", "-6", "--x-max", "6", "--points", "2001",
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        x = np.array([float(r[0]) for r in rows])
        pdf = np.array([float(r[3]) for r in rows])
        expected = math.erf(6.0 / math.sqrt(2.0 * 5.0))  # mass of (-6, 6) under N(0, 5)
        assert trapezoid(pdf, x) == pytest.approx(expected, abs=1e-6)

    def test_no_visible_jump_across_cuts(self, tmp_path):
        """Adjacent samples straddling a cut behave like the neighbouring
        smooth increments: the code density carries no step there."""
        out = tmp_path / "c.csv"
        assert main(["curves", "--model", "normal-normal", "--alpha", "2", "--n", "6",
                     "--x-min", "-20", "--x-max", "25", "--points", "2000",
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        x = np.array([float(r[0]) for r in rows])
        two = np.array([float(r[2]) for r in rows])
        cuts = [float(line.split(",")[1]) for line in
                (out.parent / "c_cutpoints.csv").read_text().splitlines()[1:]]
        diffs = np.abs(np.diff(two))
        for c in cuts:
            i = int(np.searchsorted(x, c)) - 1
            neighbourhood = diffs[max(i - 4, 0):i + 5]
            assert diffs[i] <= 3.0 * neighbourhood.max() + 1e-5


class TestVerify:
    def test_default_config_passes(self, capsys):
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0
        assert "[normal-normal]" in out and "[exponential-gamma]" in out
        assert "all checks passed" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("flags", [["--alpha", "10"], ["--beta", "0.1"]],
                             ids=["alpha10", "beta0.1"])
    def test_narrow_lomax_passes(self, flags, capsys):
        """The random cuts fit a Lomax marginal whose 0.08 to 0.92 quantiles
        span much less than 40 times the default 0.05 gap."""
        code, out, _ = run_cli(["verify", *flags], capsys)
        assert code == 0
        assert "all checks passed" in out

    @pytest.mark.parametrize("beta", ["1e-3", "1e6"])
    def test_difference_step_follows_scale(self, beta, capsys):
        """The finite-difference step scales with the Lomax marginal: an
        absolute 1e-5 step fails gradient-fd at both scales."""
        code, out, _ = run_cli(["verify", "--beta", beta], capsys)
        assert code == 0
        assert "all checks passed" in out

    def test_default_models_keep_difference_step(self):
        """Both default models keep the 1e-5 step, so the seeded default
        verify prints the same errors."""
        cfg = _merged_config(_build_parser().parse_args(["verify"]))
        for name in MODELS:
            _, marginal = dataclasses.replace(cfg, model=name).models()
            assert fd_step(marginal) == 1e-5

    def test_separated_cuts_gives_up(self):
        """200 cuts cannot sit 0.05 apart between the 0.08 and 0.92
        quantiles of the default normal marginal, so every redraw fails."""
        cfg = _merged_config(_build_parser().parse_args(["verify"]))
        _, marginal = dataclasses.replace(cfg, model="normal-normal").models()
        with pytest.raises(ArithmeticError, match="could not draw separated random cut-points"):
            separated_cuts(marginal, np.random.default_rng(0), 200)

    def test_floor_minima_pass_mirror_symmetry(self):
        """At prior sd 100 the best three-cut book and its mirror end at the
        rounding floor of G; both are kept minima."""
        cfg = _merged_config(_build_parser().parse_args(["verify", "--alpha", "100"]))
        checks = _verify_model(cfg, "normal-normal")
        assert "mirror-symmetry" in [name for name, _, _ in checks]
        assert all(ok for _, ok, _ in checks), checks

    def test_nan_errors_fail_without_warnings(self, capsys):
        """At prior sd 1e300 every relative error of the normal model's
        gradient is NaN: the check fails on it, where the largest error used
        to read 0, and numpy does not warn of the non-finite G and J."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["verify", "--alpha", "1e300"], capsys)
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert lines[:2] == ["[normal-normal]", "  gradient-fd          FAIL  max rel err nan"]

    @pytest.mark.parametrize("call,line", [
        (2, "  gradient-fd          FAIL  max rel err nan"),
        (4, "  jacobian-fd          FAIL  max rel err nan"),
        (5, "  normalization        FAIL  max |sum q - 1| nan"),
    ], ids=["gradient-fd", "jacobian-fd", "normalization"])
    def test_unbuildable_later_book_fails_its_check(self, call, line, capsys, monkeypatch):
        """A code book that cannot be built after one that can is a NaN
        error of the check that builds it: verify's calls 1-3 build the
        gradient-fd books, call 4 the jacobian-fd book and call 5 the first
        normalization book.  Verify reports the failure and exits 1."""
        builds = itertools.count(1)
        build = smml1d.cli.codebook_from_cutpoints

        def fail_one(*args):
            if next(builds) == call:
                raise ArithmeticError("unbuildable")
            return build(*args)

        monkeypatch.setattr("smml1d.cli.codebook_from_cutpoints", fail_one)
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 1
        assert line in out.splitlines()[1:4]

    def test_unattainable_tolerance_names_failing_check(self, capsys, monkeypatch):
        # verify's gap bound is the solver's tolerance, imported by name
        for module in ("smml1d.estimator", "smml1d.cli"):
            monkeypatch.setattr(f"{module}._TOL", 1e-16)
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 1
        assert "newton-convergence" in out or "continuity-gaps" in out
        assert "FAIL" in out


def run_python(args):
    """Run a fresh interpreter on the same smml1d the tests import."""
    src = str(Path(smml1d.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


def run_module(argv):
    """Run `python -m smml1d.cli`."""
    return run_python(["-m", "smml1d.cli", *argv])


# Set-up as perfbench/setup_probe.py times it: the model pair, its marginal
# entropy, and the carrier constant through message_length of the one-cut
# median code book.
SETUP_PATH = (
    "import smml1d\n"
    "family, marginal = {make}\n"
    "smml1d.marginal_entropy(marginal)\n"
    "book = smml1d.codebook_from_cutpoints(family, marginal, [marginal.quantile(0.5)])\n"
    "smml1d.message_length(family, marginal, book)\n"
)

# Model constructor and the cuts of a three-cut book, per built-in model.
FIRST_USE_MODELS = {
    "normal": ("smml1d.make_normal_normal(2.0)", (-1.5, 0.25, 2.0)),
    "lomax": ("smml1d.make_exponential_gamma(2.0, 1.0)", (0.3, 1.1, 4.0)),
}
# Calls that import numpy at their first use, each flattened to floats.  The
# hook-stripped marginal sends every interval of the book, half-lines too,
# through the Gauss-Kronrod kernel and its lazily built tables.
FIRST_USES = {
    "gradient": "smml1d.gradient(f, m, book)",
    "jacobian": "smml1d.jacobian(f, m, book).to_dense().ravel()",
    "curve_samples": "[v for row in smml1d.curve_samples("
                     "f, m, book, book.cuts[0] - 1.0, book.cuts[-1] + 1.0, 9).rows() for v in row]",
    "differential_entropy": "[smml1d.differential_entropy(m)]",
    "gk_interval_integrals": "[v for end in zip((m.support_lo, *book.cuts), "
                             "(*book.cuts, m.support_hi)) for v in smml1d.interval_integrals("
                             "dataclasses.replace(m, closed_form=None), *end)]",
}


class TestEntryPoint:
    def test_module_invocation(self):
        proc = run_module(["solve", "--model", "normal-normal",
                           "--alpha", "2", "--n", "1", "--format", "text"])
        assert proc.returncode == 0
        assert "0.2968787934" in proc.stdout

    def test_import_leaves_out_scipy_optimize(self):
        """`scipy.optimize` would add 60-160 ms to a ~35 ms import, and the
        package uses none of it."""
        proc = run_python(["-c", "import sys, smml1d; print('scipy.optimize' in sys.modules)"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_import_leaves_out_scipy_linalg(self):
        """`scipy.linalg` costs about 45 ms and 5 MB of resident memory, and
        the tridiagonal solve and minimum test need none of it."""
        proc = run_python(["-c", "import sys, smml1d, smml1d.cli; print('scipy.linalg' in sys.modules)"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_lomax_run_leaves_out_scipy_special(self):
        """Importing `scipy.special` costs about 0.25 s and 24 MB of resident
        memory, and no model needs it."""
        proc = run_python(["-c", "import sys, smml1d, smml1d.cli; "
                           "smml1d.cli.main(['sweep', '--model', 'exponential-gamma', '--n', '2']); "
                           "print('scipy.special' in sys.modules)"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_normal_model_build_leaves_out_scipy_special(self):
        """The normal quantile is the standard library's, so building the
        model needs no `scipy.special`."""
        proc = run_python(["-c", "import sys, smml1d; smml1d.make_normal_normal(2.0); "
                           "print('scipy.special' in sys.modules)"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize("first_use", [
        pytest.param("smml1d.codebook_from_cutpoints(*smml1d.make_normal_normal(2.0), [1.0])",
                     id="first-normal-codebook"),
        "smml1d.families._mills_pair(1.0)",
    ])
    def test_normal_model_imports_no_scipy(self, first_use):
        """The first normal code book and the Mills ratio itself load no
        `scipy` module."""
        proc = run_python(["-c", "import sys, smml1d; "
                           f"{first_use}; "
                           "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_normal_sweep_imports_no_scipy(self):
        """The normal Mills ratio comes from `math.erfc` and a continued
        fraction, so a normal sweep, which forms it in the bulk and in the far
        tails, runs on numpy and the standard library alone."""
        proc = run_python(["-c", "import sys, smml1d.cli; rc = smml1d.cli.main(["
                           "'sweep', '--model', 'normal-normal', '--n-min', '1', '--n-max', '16']); "
                           "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"

    @pytest.mark.parametrize("code", [
        pytest.param("import smml1d\n", id="import-smml1d"),
        pytest.param("import smml1d.cli\n", id="import-cli"),
        pytest.param(SETUP_PATH.format(make="smml1d.make_normal_normal(2.0)"), id="normal-setup"),
        pytest.param(SETUP_PATH.format(make="smml1d.make_exponential_gamma(2.0, 1.0)"),
                     id="lomax-setup"),
    ])
    def test_setup_path_imports_no_numpy(self, code):
        """numpy's import is about two thirds of a run's set-up, and neither
        the import nor a closed-form code book and its lengths use an array,
        so none of them loads a `numpy` module."""
        proc = run_python(["-c", f"import sys\n{code}"
                           "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("model", FIRST_USE_MODELS)
    @pytest.mark.parametrize("call", FIRST_USES)
    def test_first_numpy_use_matches_in_process(self, model, call):
        """The first call that imports numpy, in a fresh interpreter, gives
        the same floats, bit for bit, as the same call here, where numpy is
        long loaded."""
        make, cuts = FIRST_USE_MODELS[model]
        setup = (f"f, m = {make}\n"
                 f"book = smml1d.codebook_from_cutpoints(f, m, {cuts!r})\n")
        proc = run_python(["-c", "import dataclasses, sys, smml1d\n" + setup
                           + "assert 'numpy' not in sys.modules\n"
                           + f"print(*(float(v).hex() for v in {FIRST_USES[call]}))"])
        assert proc.returncode == 0, proc.stderr
        namespace = {"dataclasses": dataclasses, "smml1d": smml1d}
        exec(setup, namespace)
        expected = [float(v).hex() for v in eval(FIRST_USES[call], namespace)]
        assert expected
        assert proc.stdout.split() == expected

    def test_public_names(self):
        """Each module's ``__all__`` is re-exported, and nothing else."""
        names = {
            "FamilyModel", "MarginalModel", "ParameterError", "SupportError",
            "make_exponential_gamma", "make_normal_normal", "mu_inverse_numeric",
            "IntervalIntegrals", "differential_entropy", "interval_integrals", "DEFAULT_SEED",
            "LOCAL_MINIMUM", "NOT_CRITICAL", "SADDLE", "CodeBook", "CurveTable",
            "SolveReport", "Tridiagonal", "classify_critical_point",
            "codebook_from_cutpoints", "curve_samples", "gradient",
            "jacobian", "marginal_entropy", "message_length", "newton_solve", "solve_sweep",
            "__version__",
        }
        assert len(smml1d.__all__) == len(names) == 28
        assert set(smml1d.__all__) == names
        for name in names:
            getattr(smml1d, name)
        proc = run_python(["-c", "import smml1d; print(*(n for n in dir(smml1d) if n[0] != '_'))"])
        assert proc.returncode == 0, proc.stderr
        modules = {"checks", "estimator", "families", "quadrature"}
        assert set(proc.stdout.split()) == names - {"__version__"} | modules

    def test_unknown_flag_exits_1(self):
        for flags in (["--frobnicate"], ["--n", "1", "--extra-starts", "8"]):
            proc = run_module(["solve", *flags])
            assert proc.returncode == 1

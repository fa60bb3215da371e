import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smml1d
from smml1d.cli import COMMANDS, OPTIONS, RunConfig, _build_parser, _merged_config, main

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

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_nonfinite_tol_exits_1(self, tol, capsys):
        code, out, err = run_cli(
            ["solve", "--model", "normal-normal", "--alpha", "2", "--n", "2",
             f"--tol={tol}"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "tol" in err

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

    def test_arithmetic_error_exits_2(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise ArithmeticError("degenerate interval mass over (0.9, inf)")

        monkeypatch.setattr("smml1d.cli.solve_sweep", fail)
        code, out, err = run_cli(
            ["sweep", "--model", "normal-normal", "--alpha", "2", "--n", "2"], capsys)
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

    def test_deterministic_csv_bytes(self, tmp_path):
        """Same config and seed twice: the files must match byte for byte."""
        argv = ["sweep", "--model", "exponential-gamma", "--alpha", "2", "--beta", "1",
                "--n-min", "1", "--n-max", "3", "--seed", "99"]
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

    @pytest.mark.parametrize("line", ["format = xml", "model = foo"])
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

    def test_density_column_integrates_to_cdf_mass(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["curves", "--model", "normal-normal", "--alpha", "2", "--n", "1",
                     "--x-min", "-6", "--x-max", "6", "--points", "2001",
                     "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        x = np.array([float(r[0]) for r in rows])
        pdf = np.array([float(r[3]) for r in rows])
        from smml1d import make_normal_normal
        _, marginal = make_normal_normal(2.0)
        expected = marginal.cdf(6.0) - marginal.cdf(-6.0)
        assert np.trapezoid(pdf, x) == pytest.approx(expected, abs=1e-6)

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

    def test_unattainable_tolerance_names_failing_check(self, capsys):
        code, out, _ = run_cli(["verify", "--tol", "1e-16"], capsys)
        assert code == 1
        assert "newton-convergence" in out or "continuity-gaps" in out
        assert "FAIL" in out


def run_module(argv):
    """Run `python -m smml1d.cli` on the same smml1d the tests import."""
    src = str(Path(smml1d.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "smml1d.cli", *argv],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


class TestEntryPoint:
    def test_module_invocation(self):
        proc = run_module(["solve", "--model", "normal-normal",
                           "--alpha", "2", "--n", "1", "--format", "text"])
        assert proc.returncode == 0
        assert "0.2968787934" in proc.stdout

    def test_unknown_flag_exits_1(self):
        for flags in (["--frobnicate"], ["--n", "1", "--extra-starts", "8"]):
            proc = run_module(["solve", *flags])
            assert proc.returncode == 1

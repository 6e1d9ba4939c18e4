"""End-to-end runs of the command line interface."""
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import fields
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscdecay import cli, oscint
from oscdecay.cli import (
    HANDLERS,
    CliError,
    RunConfig,
    assemble_config,
    build_parser,
    load_config_file,
    main,
)
from oscdecay.decay import (
    MAX_SHARPNESS_COUNT,
    MAX_SUM_BOXES,
    MIN_FIT_OCTAVES,
    MIN_FIT_SAMPLES,
    DecayError,
    dual_lambda_grid,
    sharpness_boxes,
    sharpness_test,
)
from oscdecay.exponent import ExponentQuery
from oscdecay.nondegen import max_grid
from oscdecay.oscint import MAX_LAM_COUNT, CutoffSpec, lambda_grid
from oscdecay.phase import parse_phase, reduce_phase
from oscdecay.polytope import build_polyhedron, dual_polyhedron

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "schemas" / "report.json")
    .read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    report = json.loads(out) if out.strip() else None
    if report is not None:
        jsonschema.validate(report, SCHEMA)
    return code, report


class TestConfigHandling:
    def test_defaults_validate(self):
        RunConfig().validate()

    def test_bad_tolerance(self):
        with pytest.raises(CliError):
            RunConfig(fit_tol=0.0).validate()
        with pytest.raises(CliError):
            RunConfig(lam_count=0).validate()
        with pytest.raises(CliError):
            RunConfig(sharpness_count=0).validate()
        with pytest.raises(CliError):
            RunConfig(box_scale="-1/4").validate()
        with pytest.raises(CliError, match="not a rational"):
            RunConfig(box_scale="1/0").validate()
        for z in [("1/0", "1"), ("abc", "1")]:
            with pytest.raises(CliError, match="--z entries"):
                RunConfig(z=z).validate()
        with pytest.raises(CliError, match="levels"):
            RunConfig(levels=41).validate()
        with pytest.raises(CliError, match="frequency range"):
            RunConfig(lam_lo=1.0, lam_count=2).validate()
        for dimension in (1, 7):
            with pytest.raises(CliError, match="dimension"):
                RunConfig(dimension=dimension).validate()

    @pytest.mark.parametrize("field", ["lam_lo", "lam_hi"])
    def test_non_finite_frequency_range(self, field):
        for value in (math.inf, math.nan):
            with pytest.raises(CliError, match="finite"):
                RunConfig(**{field: value}).validate()

    def test_config_file_round_trip(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nphase=x1*x2\nlam_count=5\northant=off\n"
                       "p=inf,2\n")
        got = load_config_file(str(cfg))
        assert got == {"phase": "x1*x2", "lam_count": 5, "orthant": False,
                       "p": ("inf", "2")}
        # every field, at its default, reads back with its value and type
        defaults = {f.name: getattr(RunConfig(), f.name) for f in fields(RunConfig)}
        cfg.write_text("".join(
            f"{name}={','.join(value) if isinstance(value, tuple) else value}\n"
            for name, value in defaults.items()))
        got = load_config_file(str(cfg))
        assert {k: (type(v), v) for k, v in got.items()} == {
            k: (type(v), v) for k, v in defaults.items()}

    def test_config_file_errors(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("nonsense line\n")
        with pytest.raises(CliError, match="key=value"):
            load_config_file(str(bad))
        bad.write_text("no_such_key=1\n")
        with pytest.raises(CliError, match="unknown key"):
            load_config_file(str(bad))
        with pytest.raises(CliError, match="cannot read"):
            load_config_file(str(tmp_path / "missing.cfg"))
        for line, key in [("grid = abc", "grid"), ("dimension = 2.5", "dimension"),
                          ("orthant = maybe", "orthant")]:
            bad.write_text(f"phase=x1*x2\n{line}\n")
            with pytest.raises(CliError, match=f"bad.cfg:2: bad value for {key}"):
                load_config_file(str(bad))

    def test_seed_is_no_config_key(self, tmp_path, capsys):
        # no run depends on a seed, so the key is gone with the field
        cfg = tmp_path / "run.cfg"
        cfg.write_text("phase=x1*x2\nseed=1\n")
        code = main(["exponent", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 2
        assert "run.cfg:2: unknown key 'seed'" in err and "Traceback" not in err

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("phase=x1*x2\nlam_count=4\n")
        code, rep = run(capsys, "exponent", "--config", str(cfg),
                        "--phase", "x1^3*x2^3")
        assert code == 0
        assert rep["config"]["phase"] == "x1^3*x2^3"
        assert rep["config"]["lam_count"] == 4
        assert rep["exponent"]["nu"] == "3"


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert main(["exponent", "--bogus"]) == 2

    def test_missing_subcommand(self, capsys):
        assert main([]) == 2

    def test_missing_phase(self, capsys):
        code = main(["exponent"])
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    def test_wrong_p_length(self, capsys):
        assert main(["exponent", "--phase", "x1*x2", "--p", "inf"]) == 2

    @pytest.mark.parametrize("eta", ["2", "1", "0", "-0.5", "nan"])
    def test_eta_outside_unit_interval(self, capsys, eta):
        # the phase is degenerate: an out-of-range eta must not turn it into a PASS
        code = main(["check", "--phase", "x1^3*x2 - x1*x2^3", f"--eta={eta}"])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert "eta must lie in (0, 1)" in captured.err

    @pytest.mark.parametrize("p", ["1,2", "abc,2", "1/0,2"])
    def test_bad_p_is_usage_error(self, capsys, p):
        code = main(["exponent", "--phase", "x1*x2", "--p", p])
        err = capsys.readouterr().err
        assert code == 2
        assert "--p entries" in err and "Traceback" not in err

    @pytest.mark.parametrize("lam", ["inf", "nan"])
    def test_non_finite_lam_is_usage_error(self, capsys, lam):
        code = main(["integrate", "--phase", "x1*x2", f"--lam={lam}"])
        err = capsys.readouterr().err
        assert code == 2
        assert "--lam must be finite" in err and "Traceback" not in err

    @pytest.mark.parametrize("lam", ["1.5", "0", "-3"])
    def test_lam_below_the_sweep_minimum_is_usage_error(self, capsys, lam):
        # the same bound --lam-lo has, and the same exit code
        code = main(["integrate", "--phase", "x1*x2", f"--lam={lam}"])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert "usage error: --lam must be at least 2" in captured.err

    @pytest.mark.parametrize("argv", [
        ["sum-oracle", "--phase", "x1^3*x2^3", "--z", "1/0,1"],
        ["sum-oracle", "--phase", "x1^3*x2^3", "--z", "abc,1"],
        ["sum-oracle", "--phase", "x1^3*x2^3", "--z", "1"],
        ["sum-oracle", "--phase", "x1^3*x2^3", "--z", "0,1"],
        ["sum-oracle", "--phase", "x1^3*x2^3", "--z", "1,1", "--e-lo", "0"],
        ["sum-oracle", "--phase", "x1^3*x2^3", "--z", "1,1", "--e-hi", "1024"],
        ["integrate", "--phase", "x1*x2", "--levels", "41", "--lam", "4"],
        ["verify", "--phase", "x1*x2", "--lam-lo", "1", "--lam-count", "2"],
        ["exponent", "--phase", "x1*x2", "--dim", "7"],
        ["exponent", "--phase", "x1*x2", "--dim", "1"],
        ["exponent", "--phase", "x1*x7"],
        ["exponent", "--phase", "x1"],
        ["check", "--phase", "x1*x2*x3*x4*x5"],
        ["check", "--phase", "x1^3*x2 - x1*x2^3", "--starts", "-1"],
        ["verify", "--phase", "x1*x2", "--fit-tol", "inf"],
        ["check", "--phase", "x1*x2", "--witness-tol", "inf"],
        # sharpness boxes start inside the plateau |t| <= 1/2 of verify's cutoff
        ["verify", "--phase", "x1*x2", "--sharpness", "--box-scale", "1"],
        ["verify", "--phase", "x1*x2", "--sharpness", "--box-scale", "3/4"],
        # a sweep plans every frequency at once
        ["integrate", "--phase", "x1*x2", "--lam-count", str(MAX_LAM_COUNT + 1)],
    ], ids=["z-1/0", "z-abc", "z-length", "z-zero", "e-lo-0", "e-hi-1024",
            "levels-41", "lam-lo-1", "dim-7", "dim-1",
            "inferred-dim-7", "inferred-dim-1", "check-grid-64-dim-5",
            "starts-negative", "fit-tol-inf", "witness-tol-inf",
            "box-scale-1", "box-scale-3/4", "lam-count-cap"])
    def test_configuration_value_is_usage_error(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert "usage error:" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("command, flag, key, value, least", [
        ("integrate", "--lam-count", "lam_count", 0, 1),
        ("check", "--grid", "grid", 1, 2),
        ("verify", None, "sharpness_count", 0, 1),  # a config key with no flag
    ])
    def test_grid_size_is_refused_by_name(self, tmp_path, capsys, command, flag, key,
                                          value, least):
        # from the flag and from a config file; a grid of 1 was refused as
        # not positive
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        base = [command, "--phase", "x1*x2"]
        runs = [base + ["--config", str(cfg)]] + ([base + [flag, str(value)]] if flag else [])
        for argv in runs:
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 2 and not captured.out
            assert captured.err.startswith(
                f"usage error: {flag or key} must be at least {least}, got {value}\n")

    @pytest.mark.parametrize("command, flag, key, most", [
        ("integrate", "--lam-count", "lam_count", MAX_LAM_COUNT),
        ("verify", None, "sharpness_count", MAX_SHARPNESS_COUNT),
    ])
    def test_grid_size_beyond_its_cap_is_refused_by_name(self, tmp_path, capsys, command,
                                                         flag, key, most):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={most + 1}\n")
        base = [command, "--phase", "x1*x2", "--sharpness"][:3 + (command == "verify")]
        runs = [base + ["--config", str(cfg)]] + ([base + [flag, str(most + 1)]] if flag else [])
        for argv in runs:
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 2 and not captured.out
            assert captured.err.startswith(
                f"usage error: {flag or key} must be at most {most}, got {most + 1}\n")

    def test_longest_sharpness_grid_reaches_the_largest_float(self, tmp_path, capsys):
        # from 2^6 in steps of 2^1, x1*x2's grids end at 2^1023: the count is
        # admitted, and the first box too thin for a float is refused by name
        assert MAX_SHARPNESS_COUNT == 1018
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"sharpness_count={MAX_SHARPNESS_COUNT}\n")
        code = main(["verify", "--phase", "x1*x2", "--sharpness", "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith(f"error: sharpness box at lam {2.0 ** 991:g} has "
                                            "volume 1.11254e-308, below the smallest normal")

    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    def test_unwritable_output_is_usage_error(self, tmp_path, capsys, flag):
        path = tmp_path / "missing" / "r.out"
        code = main(["integrate", "--phase", "x1*x2", "--lam", "4", flag, str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert f"usage error: cannot write {flag} file" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["integrate", "verify"])
    @pytest.mark.parametrize("flag", ["--out", "--csv"])
    @pytest.mark.parametrize("parent", ["missing", "file"])
    def test_output_without_directory_is_refused_before_work(
            self, tmp_path, capsys, monkeypatch, command, flag, parent):
        # the report's directory is missing, or is a file: no frequency is
        # evaluated before the refusal
        def never(*args, **kwargs):
            raise AssertionError(f"{command} did work before refusing {flag}")

        monkeypatch.setattr("oscdecay.cli.lambda_sweep", never)
        (tmp_path / "file").write_text("")
        path = tmp_path / parent / "r.out"
        code = main([command, "--phase", "x1*x2", flag, str(path)])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert (f"usage error: cannot write {flag} file: {str(path.parent)!r} "
                "is not a directory") in captured.err
        assert not path.parent.is_dir()

    def test_output_onto_a_directory_fails_when_written(self, tmp_path, capsys):
        # the directory exists, so only the write itself can find the fault
        code = main(["integrate", "--phase", "x1*x2", "--lam", "4", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "usage error: cannot write --out file:" in err
        assert "is not a directory" not in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, text", [
        (["--lam-count", str(MIN_FIT_SAMPLES - 1)],
         f"--lam-count must be at least {MIN_FIT_SAMPLES} for the decay fit"),
        (["--lam-lo", "64", "--lam-hi", "512", "--lam-count", "9"],
         f"must span {MIN_FIT_OCTAVES:g} octaves, got 3"),
    ], ids=["lam-count-7", "three-octaves"])
    def test_short_verify_sweep_is_refused_before_work(self, capsys, monkeypatch,
                                                       argv, text):
        # the decay fit could never accept this sweep: no input is built and
        # no frequency is evaluated before the refusal
        def never(*args, **kwargs):
            raise AssertionError("verify did work before refusing its sweep")

        monkeypatch.setattr("oscdecay.cli._build_inputs", never)
        monkeypatch.setattr("oscdecay.cli.lambda_sweep", never)
        code = main(["verify", "--phase", "x1*x2"] + argv)
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert "usage error:" in captured.err and text in captured.err

    def test_overflowing_sharpness_grid_is_refused_before_any_quadrature(
            self, tmp_path, capsys, monkeypatch):
        # the dual vertex (12/181, 13/181) puts its grid on powers 2^(181 k)
        def never(*args):
            raise AssertionError("quadrature ran before the sharpness grid was refused")

        monkeypatch.setattr("oscdecay.oscint._kernel", never)
        code = main(["verify", "--phase", "x1^14*x2 + x1*x2^13", "--sharpness",
                     "--lam-lo", "64", "--lam-hi", "1024", "--lam-count", "8",
                     "--out", str(tmp_path / "report.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: sharpness grid at w = (")
        assert err.endswith("beyond the largest float\n")

    def test_underflowing_sharpness_box_is_refused_by_name(self, tmp_path, capsys):
        # a half-width of 1e-400 rounds to 0 as a float
        code = main(["verify", "--phase", "x1*x2", "--lam-lo", "64", "--lam-hi", "1024",
                     "--lam-count", "8", "--sharpness", "--box-scale", "1e-400",
                     "--out", str(tmp_path / "report.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == ("error: sharpness box at lam 64 has volume 0, below the smallest "
                       "normal float; use a larger delta\n")

    def test_underflowing_sharpness_box_is_refused_before_any_quadrature(
            self, tmp_path, capsys, monkeypatch):
        # every witness's exact boxes are built before the decay sweep
        calls = []
        real = oscint._kernel

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(oscint, "_kernel", spy)
        code = main(["verify", "--phase", "x1^2*x2^2 + x1^5*x2", "--sharpness",
                     "--box-scale", "1e-400", "--out", str(tmp_path / "report.json")])
        err = capsys.readouterr().err
        assert code == 1 and not calls
        assert err == ("error: sharpness box at lam 64 has volume 0, below the smallest "
                       "normal float; use a larger delta\n")

    @pytest.mark.parametrize("command", ["check", "verify"])
    def test_oversized_grid_names_one_that_fits(self, capsys, command):
        code = main([command, "--phase", "x1*x2*x3*x4*x5", "--grid", "64"])
        err = capsys.readouterr().err
        assert code == 2
        assert f"use --grid {max_grid(5)} or less" in err
        assert 32 <= max_grid(5) < 64

    def test_oversized_sum_grid_names_an_e_hi_that_fits(self, capsys):
        start = time.perf_counter()
        code = main(["sum-oracle", "--phase", "x1^3*x2^3*x3^3*x4^3*x5^3",
                     "--z", "1,1,1,1,1"])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2 and elapsed < 1.0
        # (4 + 8 + 1)^5 boxes fit at 2^4; adding (6 + 8 + 1)^5 at 2^6 does not
        assert f"more than {MAX_SUM_BOXES} boxes; use --e-hi 4 or less" in err

    def test_numeric_failure_carries_module_text(self, capsys):
        code = main(["sum-oracle", "--phase", "x1^3*x2 + x1*x2^3",
                     "--z", "1,1"])
        assert code == 1
        assert "not above 2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["integrate", "--lam", "1e308"],
        # a sweep the decay fit accepts, so the refusal comes from the overflow
        ["verify", "--lam-lo", "6e306", "--lam-hi", "1e308", "--lam-count", "8"],
    ], ids=["integrate", "verify"])
    def test_overflowing_turn_count_is_refused(self, tmp_path, capsys, argv):
        # lam times the gradient bound is not finite, so no panel count exists
        code = main(argv + ["--phase", "x1^2*x2^2 + x1^5*x2",
                            "--out", str(tmp_path / "report.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "overflow" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, count", [("integrate", "3"), ("verify", "8")])
    def test_grid_past_the_float_range_is_a_usage_error(self, tmp_path, capsys, monkeypatch,
                                                        command, count):
        # each bound is finite, but the grid's top point rounds to inf: a
        # configuration error, refused before any work, and no report
        def never(*args):
            raise AssertionError("quadrature ran on a grid past the float range")

        monkeypatch.setattr("oscdecay.oscint._kernel", never)
        out = tmp_path / "report.json"
        code = main([command, "--phase", "x1*x2", "--lam-lo", "6e307",
                     "--lam-hi", "1.7976931348623157e308", "--lam-count", count,
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert "overflows the float range" in err and "Traceback" not in err

    def test_longest_grid_in_a_config_validates(self, tmp_path, capsys, monkeypatch):
        # validation builds the grid, so the count is capped first: a
        # geometry command with the longest grid in its config runs, and a
        # longer one is refused by count before any grid is built
        cfg, out = tmp_path / "run.cfg", tmp_path / "report.json"
        argv = ["polyhedron", "--phase", "x1*x2", "--config", str(cfg), "--out", str(out)]
        cfg.write_text(f"lam_count={MAX_LAM_COUNT}\n")
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 0 and out.exists(), err
        assert json.loads(out.read_text())["config"]["lam_count"] == MAX_LAM_COUNT

        def never(*args):
            raise AssertionError("the frequency grid was built")

        monkeypatch.setattr("oscdecay.cli.lambda_grid", never)
        out.unlink()
        cfg.write_text(f"lam_count={MAX_LAM_COUNT + 1}\n")
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert f"--lam-count must be at most {MAX_LAM_COUNT}" in err

    def test_overflowing_sweep_is_refused_before_any_quadrature(self, tmp_path, capsys,
                                                                 monkeypatch):
        # turns grow with lam, so the sweep sees before its first sample that
        # its fifth overflows, and names that one
        def never(*args):
            raise AssertionError("quadrature ran before the overflow was refused")

        monkeypatch.setattr("oscdecay.oscint._kernel", never)
        code = main(["verify", "--phase", "x1^2*x2^2 + x1^5*x2", "--lam-lo", "6e306",
                     "--lam-hi", "1e308", "--lam-count", "8",
                     "--out", str(tmp_path / "report.json")])
        err = capsys.readouterr().err
        first = lambda_grid(6e306, 1e308, 8)[4]
        assert code == 1
        assert err == f"error: phase turns per cell overflow at lam {first:g}\n"


# the option strings of every subcommand's --help
OPTIONS = {
    name: {"-h", "--help", "--phase", "--dim", "--p", "--config", "--out"}
    for name in HANDLERS}
OPTIONS["check"] |= {"--grid", "--eta", "--starts", "--witness-tol"}
OPTIONS["integrate"] |= {"--lam-lo", "--lam-hi", "--lam-count", "--levels", "--orthant",
                         "--csv", "--lam"}
OPTIONS["verify"] |= (OPTIONS["check"] | OPTIONS["integrate"] |
                      {"--sharpness", "--fit-tol", "--box-scale"}) - {"--lam"}
OPTIONS["sum-oracle"] |= {"--z", "--e-lo", "--e-hi", "--e-step"}


class TestParser:
    @pytest.mark.parametrize("name", list(HANDLERS))
    def test_subcommand_help_is_unchanged(self, capsys, name):
        # main gives only the invoked subcommand its arguments; its help is
        # the one the full parser prints
        assert main([name, "--help"]) == 0
        text = capsys.readouterr().out
        with pytest.raises(SystemExit):
            build_parser().parse_args([name, "--help"])
        assert capsys.readouterr().out == text
        assert set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", text)) == OPTIONS[name]

    @pytest.mark.parametrize("name", list(HANDLERS))
    def test_parse_errors_match_the_full_parser(self, capsys, name):
        # main registers only the invoked subcommand; every parse error, its
        # usage line and the help read as the full parser's
        paths = [["--bogus"], ["--phase"], ["--dim", "two"], ["--orthant", "maybe"],
                 ["--help"]]
        for flag in ("--eta", "--lam", "--fit-tol"):
            if flag in OPTIONS[name]:
                paths.append([flag, "x"])
        for extra in paths:
            argv = [name, *extra]
            code = main(argv)
            got = capsys.readouterr()
            with pytest.raises(SystemExit) as exit_:
                build_parser().parse_args(argv)
            assert (code, *got) == (exit_.value.code, *capsys.readouterr()), argv
            if extra == ["--bogus"]:
                assert "{" + ",".join(HANDLERS) + "}" in got.err

    def test_help_and_usage_error_match_stock_argparse(self, monkeypatch, capsys):
        # build_parser reads the terminal's width once and gives every
        # parser one formatter at it; stock argparse reads it again for each
        # formatter it builds.  The text is the same at either width
        argvs = [[name, "--help"] for name in HANDLERS] + [["--help"], ["verify", "--bogus"]]

        def texts(columns):
            monkeypatch.setenv("COLUMNS", str(columns))
            out = [(main(argv), *capsys.readouterr()) for argv in argvs]
            assert [code for code, _, _ in out] == [0] * (len(argvs) - 1) + [2]
            return out

        ours = {columns: texts(columns) for columns in (50, 200)}
        assert ours[50] != ours[200]
        monkeypatch.setattr(cli, "functools", SimpleNamespace(partial=lambda cls, **_: cls))
        assert {columns: texts(columns) for columns in (50, 200)} == ours

    def test_top_level_help_and_bad_choice(self, capsys):
        assert main(["--help"]) == 0
        text = capsys.readouterr().out
        assert all(name in text for name in HANDLERS)
        assert main(["bogus"]) == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err


class TestExponentCommand:
    def test_boundary_example(self, capsys):
        code, rep = run(capsys, "exponent", "--phase", "x1^2*x2^2 + x1^5*x2",
                        "--p", "inf,inf")
        assert code == 0
        assert rep["exponent"]["nu"] == "2"
        assert rep["exponent"]["m"] == 1
        assert "nu<=2 boundary" in rep["exponent"]["flags"]

    def test_finite_p(self, capsys):
        code, rep = run(capsys, "exponent", "--phase", "x1*x2", "--p", "2,2")
        assert code == 0
        assert rep["exponent"]["nu"] == "2"


class TestPolyhedronCommands:
    def test_product_phase(self, capsys):
        code, rep = run(capsys, "polyhedron", "--phase", "x1*x2")
        assert code == 0
        prim = rep["polyhedron"]["primal"]
        assert prim["vertices"] == [[1, 1]]
        assert [f["normal"] for f in prim["facets"]] == [[0, 1], [1, 0]]

    def test_dual_command(self, capsys):
        code, rep = run(capsys, "dual", "--phase", "x1^3*x2 + x1*x2^3",
                        "--p", "inf,2")
        assert code == 0
        assert ["1/4", "1/4"] in rep["polyhedron"]["dual"]["vertices"]
        names = {v["name"]: v["verdict"] for v in rep["verdicts"]}
        assert names == {"double-dual": "PASS", "dual-domination": "PASS"}
        pairings = {tuple(d["w"]): d["pairing"]
                    for d in rep["polyhedron"]["domination"]}
        assert pairings[("1", "0")] == "8/3"


class TestCheckCommand:
    def test_nondegenerate(self, capsys):
        code, rep = run(capsys, "check", "--phase", "x1^2*x2^2 + x1^5*x2")
        assert code == 0
        assert rep["nondegeneracy"]["verdict"] == "nondegenerate"

    def test_degenerate_fails(self, capsys):
        code, rep = run(capsys, "check", "--phase", "x1^3*x2 - x1*x2^3")
        assert code == 1
        assert rep["verdicts"][0]["verdict"] == "FAIL"
        assert rep["nondegeneracy"]["verdict"] == "degenerate"

    def test_monomial_is_not_a_scale_artifact(self, capsys):
        # 144 x1^11 x2^11 is ~3e-31 at x1 = 0.001 but has no positive zero;
        # its single-signed coefficients certify it
        code, rep = run(capsys, "check", "--phase", "x1^12*x2^12")
        assert code == 0
        assert rep["nondegeneracy"]["verdict"] == "nondegenerate"
        assert rep["nondegeneracy"]["faces"][0]["witness"] is None

    def test_face_with_a_constant_pair_gets_a_verdict(self, capsys):
        # one edge's pairs are the constant 3 and 6 x2, which certifies it by sign
        code, rep = run(capsys, "check", "--phase", "3*x2^2*x3 + 3*x1*x2 + 3*x1*x2^4",
                        "--dim", "3")
        assert code == 0
        assert rep["nondegeneracy"]["verdict"] == "nondegenerate"
        assert rep["nondegeneracy"]["margin"] == 3.0

    def test_refinement_off_the_orthant_is_not_a_witness(self, capsys):
        # on a mixed-sign face Gauss-Newton reaches |g| <= witness_tol at a
        # point with a nonpositive coordinate, which has no slice image
        code = main(["check", "--grid", "16", "--phase",
                     "-x1*x2^3 - x1^2*x2^2*x3 + 2*x1*x2*x3^3 - 2*x1^2*x2^3"
                     " - 2*x2^4*x3"])
        out, err = capsys.readouterr()
        assert "error:" not in err
        rep = json.loads(out)
        jsonschema.validate(rep, SCHEMA)
        assert code == 1
        assert rep["nondegeneracy"]["verdict"] == "inconclusive"


class TestIntegrateCommand:
    def test_single_frequency_with_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        code, rep = run(capsys, "integrate", "--phase", "x1*x2",
                        "--lam", "64", "--csv", str(csv_path))
        assert code == 0
        rows = rep["sweep"]
        assert len(rows) == 1 and rows[0]["lam"] == 64.0
        assert rows[0]["abs"] <= rows[0]["certificate"]
        assert rep["config"]["lam_count"] == 1
        header, data = csv_path.read_text().strip().splitlines()
        assert header == ("lam,re,im,abs,err,nodes,low_confidence,"
                          "certificate,envelope")
        assert data.startswith("64.0,")

    def test_single_frequency_is_the_one_point_grid(self, tmp_path):
        # --lam X runs the sweep of the grid from X to X in one point: the
        # same report bytes, config echo included, and the same CSV bytes
        out, csv_path, written = tmp_path / "report.json", tmp_path / "sweep.csv", []
        for flags in (["--lam", "64"], ["--lam-lo", "64", "--lam-hi", "64", "--lam-count", "1"]):
            assert main(["integrate", "--phase", "x1*x2", *flags, "--out", str(out),
                         "--csv", str(csv_path)]) == 0
            written.append((out.read_bytes(), csv_path.read_bytes()))
        assert written[0] == written[1]
        config = json.loads(written[0][0])["config"]
        assert (config["lam_lo"], config["lam_hi"], config["lam_count"]) == (64.0, 64.0, 1)

    @pytest.mark.parametrize("command", ["check", "integrate", "verify",
                                         "polyhedron", "dual", "exponent"])
    def test_coefficient_beyond_float_range(self, capsys, command):
        # the float commands end with an error naming the term; the exact
        # geometry commands do not need floats and still run
        code = main([command, "--phase", f"1{'0' * 400}*x1*x2 + x1^3"])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if command in ("polyhedron", "dual", "exponent"):
            assert code == 0, err
        else:
            assert code == 1
            assert "error: coefficient of about 1e400 on the term" in err

    def test_low_confidence_sample_is_refused(self, tmp_path, capsys, monkeypatch):
        # above the node budget a sample is refused before any quadrature:
        # the report is written with a null value, and the message names
        # the lam and the planned node count
        def never(*args):
            raise AssertionError("quadrature ran on a refused sample")

        monkeypatch.setattr(oscint, "_kernel", never)
        out, csv_path = tmp_path / "report.json", tmp_path / "sweep.csv"
        for lam, shown in [("1e300", "1e+300"), ("1e6", "1e+06")]:
            code = main(["integrate", "--phase", "x1*x2", "--lam", lam,
                         "--out", str(out), "--csv", str(csv_path)])
            err = capsys.readouterr().err
            row, = json.loads(out.read_text())["sweep"]
            assert code == 1 and "Traceback" not in err
            assert err == ("error: samples refused over the node budget of 3e+08 nodes: "
                           f"lam {shown} needs {row['nodes']:.2g} nodes\n")
            assert row["low_confidence"] and row["nodes"] > 3e8
            assert [row[k] for k in ("re", "im", "abs", "err")] == [None] * 4
            _, data = csv_path.read_text().strip().splitlines()
            assert data.startswith(f"{float(lam)!r},,,,,{row['nodes']},True,")
        # lam 1e6 plans 9.5e10 nodes
        assert f"{row['nodes']:.2g}" == "9.5e+10"

    def test_leaves_numpy_ma_unimported(self, tmp_path):
        # numpy.ma costs about 10 ms to import, and nothing here needs it;
        # a bare np.unique would import it.  `verify --sharpness` builds
        # rules on pieces its witness boxes clip
        out = str(tmp_path / "report.json")
        code = ("import sys; from oscdecay.cli import main; "
                f"a = main(['integrate', '--phase', 'x1*x2*x3', '--dim', '3', '--lam', '16', "
                f"'--out', {out!r}]); "
                f"b = main(['verify', '--phase', 'x1*x2', '--lam-lo', '32', '--lam-hi', '512', "
                f"'--lam-count', '8', '--sharpness', '--out', {out!r}]); "
                "print(a, b, 'numpy.ma' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.stdout.split() == ["0", "0", "False"], proc.stderr

    def test_geometry_leaves_the_cutoff_table_unbuilt(self, tmp_path):
        # the cutoff's profile table, and the numpy.polynomial import its
        # Gauss rule takes, are built on the first quadrature only
        out = str(tmp_path / "report.json")
        code = ("import sys; from oscdecay.cli import main; from oscdecay import oscint; "
                + "; ".join(f"main([{c!r}, '--phase', 'x1^2*x3^4 + x1^3*x2^2', '--out', {out!r}])"
                            for c in ("polyhedron", "dual", "exponent", "check"))
                + "; print('numpy.polynomial' in sys.modules, oscint._step_table.cache_info()[3])")
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.stdout.split() == ["False", "0"], proc.stderr

    def test_small_grid(self, capsys):
        code, rep = run(capsys, "integrate", "--phase", "x1*x2",
                        "--lam-lo", "64", "--lam-hi", "256",
                        "--lam-count", "3")
        assert code == 0
        mags = [r["abs"] for r in rep["sweep"]]
        assert len(mags) == 3 and mags[2] < mags[0]


class TestSumOracleCommand:
    def test_pass_run(self, capsys):
        code, rep = run(capsys, "sum-oracle", "--phase", "x1^3*x2^3",
                        "--z", "1,1")
        assert code == 0
        assert rep["summation"]["nu"] == "3"
        assert rep["summation"]["verdict"] == "PASS"
        assert rep["verdicts"][0]["name"] == "summation-envelope"

    def test_z_required(self, capsys):
        assert main(["sum-oracle", "--phase", "x1^3*x2^3"]) == 2


class TestVerifyCommand:
    ARGS = ("verify", "--phase", "x1*x2", "--lam-lo", "64",
            "--lam-hi", "1024", "--lam-count", "9")

    def test_full_pass(self, capsys):
        code, rep = run(capsys, *self.ARGS)
        assert code == 0
        names = {v["name"]: v["verdict"] for v in rep["verdicts"]}
        assert names == {"nondegeneracy": "PASS", "decay-fit": "PASS",
                         "certificate": "PASS"}
        assert rep["decay_fit"]["verdict"] == "PASS"
        assert rep["exponent"]["nu"] == "1"
        assert len(rep["sweep"]) == 9

    def test_sharpness_branch(self, capsys):
        code, rep = run(capsys, *self.ARGS, "--sharpness",
                        "--box-scale", "1/4")
        assert code == 0
        assert len(rep["sharpness"]) == 2  # one witness per dual vertex
        assert all(w["verdict"] == "PASS" for w in rep["sharpness"])
        assert {v["name"] for v in rep["verdicts"]} >= {"sharpness"}

    def test_box_scale_ends_at_the_plateau(self, capsys):
        # --box-scale and the delta of sharpness_boxes share one bound, the
        # cutoff's plateau 1/2, which is admitted
        assert oscint.PLATEAU == Fraction(1, 2)
        code, rep = run(capsys, *self.ARGS, "--sharpness", "--box-scale", "1/2")
        assert code == 0 and rep["config"]["box_scale"] == "1/2"
        code, rep = run(capsys, *self.ARGS, "--sharpness", "--box-scale", "500001/1000000")
        assert code == 2 and rep is None
        p = reduce_phase(parse_phase("x1*x2", 2))
        n = build_polyhedron(p)
        dual = dual_polyhedron(n)
        w = dual.vertices[0]
        lams = dual_lambda_grid(w, count=2)
        sharpness_boxes(p, n, w, Fraction(1, 2), lams, chi=CutoffSpec(), dual=dual)
        with pytest.raises(DecayError, match="plateau"):
            sharpness_boxes(p, n, w, Fraction(1, 2) + Fraction(1, 10 ** 12), lams,
                            chi=CutoffSpec(), dual=dual)

    def test_sharpness_shares_the_sweep_quadrature_call(self, tmp_path, monkeypatch):
        # the sweep and every dual vertex's boxes are one `_evaluate` call,
        # one level run, and the report is byte for byte the one whose
        # witnesses come from one `sharpness_test` call per vertex
        evaluations, levels = [], []
        for name, calls in (("_evaluate", evaluations), ("_run_level", levels)):
            def spy(*args, real=getattr(oscint, name), calls=calls):
                calls.append(None)
                return real(*args)
            monkeypatch.setattr(oscint, name, spy)
        argv = [*self.ARGS, "--phase", "x1^3*x2^3", "--sharpness"]
        out = tmp_path / "report.json"
        assert main([*argv, "--out", str(out)]) == 0
        assert (len(evaluations), len(levels)) == (1, 1)
        one = out.read_bytes()

        p = reduce_phase(parse_phase("x1^3*x2^3", 2))
        n = build_polyhedron(p)

        def per_vertex(boxes, results, chain_ok):
            return sharpness_test(p, n, ExponentQuery.all_inf(2), boxes[0], Fraction(1, 4),
                                  [lam for lam, *_ in boxes[3]], dual=dual_polyhedron(n))

        monkeypatch.setattr("oscdecay.cli.sharpness_witness", per_vertex)
        evaluations.clear()
        assert main([*argv, "--out", str(out)]) == 0
        assert len(evaluations) == 1 + len(dual_polyhedron(n).vertices)
        assert out.read_bytes() == one

    def test_byte_identical_reruns(self, capsys):
        main(list(self.ARGS))
        first = capsys.readouterr().out
        main(list(self.ARGS))
        second = capsys.readouterr().out
        assert first == second

    def test_csv_artifact(self, tmp_path, capsys):
        csv_path = tmp_path / "verify.csv"
        code, rep = run(capsys, *self.ARGS, "--csv", str(csv_path))
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 10  # header plus nine rows


class TestRefusedSamples:
    """A sample over the node budget reaches every consumer as a refused row."""

    @staticmethod
    def budget(monkeypatch, node_budget, target):
        # the `lambda_sweep` at `target` runs with the node budget `node_budget`
        real, quad_cfg = oscint.lambda_sweep, oscint.QuadratureConfig(node_budget=node_budget)
        monkeypatch.setattr(target, lambda *a, **kw: real(*a, **kw, quad=quad_cfg))

    def test_refused_rows_reach_every_consumer(self, tmp_path, capsys, monkeypatch):
        # x1*x2 over the orthant: lam 2896 and 4096 need more than 500,000
        # nodes, every other default sample fewer
        self.budget(monkeypatch, 500_000, "oscdecay.cli.lambda_sweep")
        csv_path = tmp_path / "sweep.csv"
        code, rep = run(capsys, "integrate", "--phase", "x1*x2", "--csv", str(csv_path))
        assert code == 1
        refused = [row for row in rep["sweep"] if row["low_confidence"]]
        assert [row["lam"] for row in refused] == list(lambda_grid()[11:])
        for row in refused:
            assert [row[k] for k in ("re", "im", "abs", "err")] == [None] * 4
            assert row["nodes"] > 500_000 and row["certificate"] > 0
        assert all(row["abs"] > 0 for row in rep["sweep"][:11])
        cells = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
        assert [c[1:5] for c in cells[11:]] == [[""] * 4] * 2
        assert all("" not in c for c in cells[:11])
        # a refused sharpness box fails its witness, by lam.  verify's boxes
        # follow its 9 sweep rows in one `lambda_sweep` call; here they take
        # a budget of 1 node, and the sweep the default one
        real, tiny = oscint.lambda_sweep, oscint.QuadratureConfig(node_budget=1)

        def boxes_over_budget(p, fs, chis, lams, **kw):
            return (real(p, fs[:9], chis[:9], lams[:9], **kw)
                    + real(p, fs[9:], chis[9:], lams[9:], quad=tiny, **kw))

        monkeypatch.setattr("oscdecay.cli.lambda_sweep", boxes_over_budget)
        code, rep = run(capsys, *TestVerifyCommand.ARGS, "--sharpness")
        assert code == 1
        verdict, = [v for v in rep["verdicts"] if v["name"] == "sharpness"]
        assert verdict["verdict"] == "FAIL"
        lams = [row["lam"] for w in rep["sharpness"] for row in w["rows"]]
        assert verdict["detail"].endswith(
            "; boxes refused over the node budget at lam "
            + ", ".join(f"{lam:g}" for lam in lams))
        assert all(row["measured"] is row["ratio"] is None
                   for w in rep["sharpness"] for row in w["rows"])
        assert all(w["verdict"] == "FAIL" for w in rep["sharpness"])


def run_quiet(argv):
    """main() with stdout and stderr captured; an escaping exception fails."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


GOOD_P = ["inf", "2", "5/2", "3"]
BAD_P = ["1", "3/2", "0", "-inf", "nan", "abc", "1/0"]
GOOD_Z = ["1", "1/2", "2/3", "3", "66666666666666666672/100000000000000000007"]
BAD_Z = ["0", "-1", "-1/2", "abc", "1/0"]
# each flag draws an in-range value or, half the time, any value
WEIGHTS = (st.lists(st.sampled_from(GOOD_Z), min_size=2, max_size=2)
           | st.lists(st.sampled_from(GOOD_Z + BAD_Z), min_size=1, max_size=3))
EXPONENTS = st.integers(1, 14) | st.sampled_from([-1, 0, 1023, 1024])
FREQUENCIES = st.floats(2.0, 8.0) | st.floats(max_value=8.0) | st.sampled_from(
    ["inf", "nan", "abc"])
FUZZ_PHASES = [("x1*x2", 2), ("x1^3*x2 - x1*x2^3", 2),
               ("x1^2*x2^2 + x1^5*x2", 2), ("x1*x2*x3 + x1^2*x3", 3)]


class TestCliFuzz:
    """Random flag values never give a traceback, an unknown exit code, or a
    PASS from an out-of-range parameter.  Inputs stay small: no large grid,
    no quadrature above lam 8."""

    @given(st.sampled_from(["polyhedron", "dual", "exponent", "check"]),
           st.sampled_from(FUZZ_PHASES),
           st.none() | st.lists(st.sampled_from(GOOD_P + BAD_P),
                                min_size=1, max_size=3),
           st.floats(allow_nan=True, allow_infinity=True),
           st.integers(-3, 8))
    def test_geometry_commands(self, command, phase, p, eta, grid):
        text, dim = phase
        argv = [command, "--phase", text]
        bad = False
        if p is not None:
            argv.append("--p=" + ",".join(p))
            bad |= len(p) != dim or any(x in BAD_P for x in p)
        if command == "check":
            argv += [f"--eta={eta!r}", f"--grid={grid}"]
            bad |= not 0 < eta < 1 or grid < 2
        code, _, err = run_quiet(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if bad:
            assert code == 2, err

    @given(st.floats(max_value=8.0) | st.sampled_from(
        ["inf", "-inf", "nan", "1e999", "abc", "", "0x10"]))
    def test_integrate_lam(self, lam):
        code, _, err = run_quiet(["integrate", "--phase", "x1*x2", f"--lam={lam}"])
        assert "Traceback" not in err
        if isinstance(lam, str) or not math.isfinite(lam) or lam < 2:
            assert code == 2, err
        else:
            assert code == 0, err

    @settings(max_examples=150)
    @given(WEIGHTS, EXPONENTS, EXPONENTS, st.integers(1, 3) | st.integers(-1, 0))
    def test_sum_oracle_flags(self, z, e_lo, e_hi, e_step):
        code, _, err = run_quiet(["sum-oracle", "--phase", "x1^3*x2^3",
                                  "--z=" + ",".join(z), f"--e-lo={e_lo}",
                                  f"--e-hi={e_hi}", f"--e-step={e_step}"])
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if (len(z) != 2 or any(x in BAD_Z for x in z) or e_step < 1
                or not 1 <= e_lo <= e_hi <= 1023):
            assert code == 2, err

    @settings(max_examples=150)
    @given(FREQUENCIES, FREQUENCIES, st.integers(1, 3) | st.integers(-1, 0))
    def test_integrate_frequency_range(self, lam_lo, lam_hi, count):
        code, _, err = run_quiet(["integrate", "--phase", "x1*x2",
                                  f"--lam-lo={lam_lo}", f"--lam-hi={lam_hi}",
                                  f"--lam-count={count}"])
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        finite = not isinstance(lam_lo, str) and not isinstance(lam_hi, str) and (
            math.isfinite(lam_lo) and math.isfinite(lam_hi))
        if not (finite and count >= 1 and lam_lo >= 2
                and (count == 1 or lam_lo < lam_hi)):
            assert code == 2, err

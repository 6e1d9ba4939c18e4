"""End-to-end runs of the command line interface."""
import contextlib
import io
import json
import math
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oscdecay.cli import (
    CliError,
    RunConfig,
    assemble_config,
    load_config_file,
    main,
)
from oscdecay.nondegen import max_grid

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

    @pytest.mark.parametrize("argv", [
        ["sum-oracle", "--phase", "x1^3*x2^3", "--z", "1/0,1"],
        ["sum-oracle", "--phase", "x1^3*x2^3", "--z", "abc,1"],
        ["integrate", "--phase", "x1*x2", "--levels", "41", "--lam", "4"],
        ["verify", "--phase", "x1*x2", "--lam-lo", "1", "--lam-count", "2"],
        ["exponent", "--phase", "x1*x2", "--dim", "7"],
        ["exponent", "--phase", "x1*x2", "--dim", "1"],
        ["exponent", "--phase", "x1*x7"],
        ["exponent", "--phase", "x1"],
        ["check", "--phase", "x1*x2*x3*x4*x5"],
    ], ids=["z-1/0", "z-abc", "levels-41", "lam-lo-1", "dim-7", "dim-1",
            "inferred-dim-7", "inferred-dim-1", "check-grid-64-dim-5"])
    def test_configuration_value_is_usage_error(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert "usage error:" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["check", "verify"])
    def test_oversized_grid_names_one_that_fits(self, capsys, command):
        code = main([command, "--phase", "x1*x2*x3*x4*x5", "--grid", "64"])
        err = capsys.readouterr().err
        assert code == 2
        assert f"use --grid {max_grid(5)} or less" in err
        assert 32 <= max_grid(5) < 64

    def test_numeric_failure_carries_module_text(self, capsys):
        code = main(["sum-oracle", "--phase", "x1^3*x2 + x1*x2^3",
                     "--z", "1,1"])
        assert code == 1
        assert "not above 2" in capsys.readouterr().err


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

    def test_low_confidence_sample_is_refused(self, tmp_path, capsys):
        # at lam 1e300 the node budget caps the panels far below the phase's
        # oscillation, so the value exceeds its own certificate
        out = tmp_path / "report.json"
        code = main(["integrate", "--phase", "x1*x2", "--lam", "1e300",
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "error:" in err and "1e+300" in err and "Traceback" not in err
        row, = json.loads(out.read_text())["sweep"]
        assert row["low_confidence"]

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


def run_quiet(argv):
    """main() with stdout and stderr captured; an escaping exception fails."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


GOOD_P = ["inf", "2", "5/2", "3"]
BAD_P = ["1", "3/2", "0", "-inf", "nan", "abc", "1/0"]
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
        if isinstance(lam, str) or not math.isfinite(lam):
            assert code == 2, err
        elif lam < 2:
            assert code == 1, err
        else:
            assert code == 0, err

"""Every script under scripts/ imports the library, prints its help and is
listed in the README, `scripts/report_digest.py` runs every job, and the
names perfbench/ and __all__ promise exist in the library."""
import ast
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda s: s.name)
def test_help_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(script), "--help"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_readme_lists_every_script():
    # the README's "Experiment scripts" block names each script under
    # scripts/ and no other
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Experiment scripts\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^python scripts/(\S+\.py)$", block, re.MULTILINE)
    assert sorted(listed) == [script.name for script in SCRIPTS]


def _perfbench_constant(script, name):
    """The literal value of `name` in perfbench/<script>, read from its source."""
    tree = ast.parse((ROOT / "perfbench" / script).read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/{script} defines no {name}")


def test_traced_entry_points_resolve():
    # the traced benchmark run wraps each of these with getattr
    for module, function, _ in _perfbench_constant("spans.py", "ENTRY_POINTS"):
        mod = importlib.import_module(f"oscdecay.{module}")
        assert callable(getattr(mod, function, None)), f"{module}.{function}"


def test_all_names_exist():
    import oscdecay
    for info in pkgutil.iter_modules(oscdecay.__path__):
        mod = importlib.import_module(f"oscdecay.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{info.name}.__all__ names missing {name}"


def test_reference_rule_is_a_valid_configuration():
    # make_refs.py computes the benchmark's reference sweeps with this rule
    from oscdecay.oscint import QuadratureConfig
    ref = QuadratureConfig(**_perfbench_constant("make_refs.py", "RULE"))
    # and it must stay finer than the default rule it checks
    default = QuadratureConfig()
    assert ref.order >= default.order and ref.waves_per_panel < default.waves_per_panel


def test_every_transition_row_has_a_p0():
    # a row holds the errors below P0, so one shorter than the counts the
    # calibration checks has a P0, and every panel count a tabled error.
    # The table is the default rule's
    from oscdecay.oscint import (_TRANSITION_CHECKED, _TRANSITION_PANELS, _TRANSITION_RULE,
                                 QuadratureConfig)
    assert _TRANSITION_RULE == (QuadratureConfig().order, QuadratureConfig().waves_per_panel)
    for e, rows in _TRANSITION_PANELS:
        for n, errors in rows:
            assert len(errors) < _TRANSITION_CHECKED, (e, n)


def _script(name):
    """scripts/<name>.py, imported as a module."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_report_digest_runs_every_job():
    # the digest wraps `oscint._kernel`, `_evaluate` and `_layout` and reads
    # their arguments and returns, so a change to their signatures must
    # show here: one line per job, its digest and four integer columns
    # (kernel calls, evaluations, planned cells, kernel nodes) before its
    # command, then the digest of all jobs and the sizes of the package and
    # of scripts/.  Every
    # `integrate` and `verify` job reaches the quadrature
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "report_digest.py")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    jobs = _script("report_digest").JOBS
    lines = proc.stdout.splitlines()
    assert len(lines) == len(jobs) + 2
    for line, argv in zip(lines, jobs):
        assert re.fullmatch(r"[0-9a-f]{64}( +\d+){4} " + re.escape(" ".join(argv)), line), line
        evaluations = int(line.split()[2])
        assert evaluations >= 1 if argv[0] in ("integrate", "verify") else evaluations == 0, line
    assert re.fullmatch(r"[0-9a-f]{64} all", lines[-2])
    size = r"(\d+) lines, (\d+) code lines"
    sizes = re.fullmatch(f"src/oscdecay: {size}; scripts: {size}", lines[-1])
    assert sizes, lines[-1]
    # the scripts' lines, as `wc -l` counts them, and fewer code lines
    assert int(sizes[3]) == sum(script.read_text().count("\n") for script in SCRIPTS)
    assert 0 < int(sizes[4]) < int(sizes[3])


def test_calibration_refuses_a_row_without_p0(monkeypatch):
    # 16 points at e = 1 meet the target from 6 panels on: checked to 4,
    # the row has no P0, and the script exits 1 naming it
    cal = _script("calibrate_transition")
    monkeypatch.setattr(cal, "MAX_PANELS", 4)
    with pytest.raises(SystemExit) as refused:
        cal.transition_errors(1)
    assert refused.value.code == ("rule (16, 4.0): the row of n = 16 at e = 1 "
                                  "has no P0 up to 4 panels")


@pytest.mark.slow
def test_transition_table_is_the_calibrated_one():
    # the shipped entry for the default rule is what the calibration derives,
    # row by row at every map exponent: each error is at least the calibrated
    # worst error of its panel count, and the first count whose worst error
    # meets the target is P0, the row's length plus 1
    cal = _script("calibrate_transition")
    from oscdecay.oscint import _MAX_MAP, _TRANSITION_PANELS, _TRANSITION_RULE, _ladder
    shipped = _TRANSITION_PANELS
    assert [e for e, _ in shipped] == list(range(1, _MAX_MAP + 1))
    for (e, rows), want in zip(shipped, cal.transition_table()):
        assert (e, rows) == want
    # the panel counts P0 of the table before it held errors
    assert [[len(errors) + 1 for _, errors in rows] for _, rows in shipped] == [
        [6, 3, 2], [8, 3, 2], [10, 6, 5], [18, 13, 10], [37, 27, 20]]
    target, rungs = _ladder(*_TRANSITION_RULE)
    most = {n: m for n, m, _ in rungs}
    for e, rows in shipped:
        for n, errors in rows:
            worst = [cal.worst_error(n, panels, most[n], e)
                     for panels in range(1, cal.MAX_PANELS + 1)]
            assert all(a >= b for a, b in zip(errors, worst)), (e, n)
            first = next((panels for panels, x in enumerate(worst, 1) if x <= target),
                         cal.MAX_PANELS + 1)
            assert first == len(errors) + 1, (e, n)

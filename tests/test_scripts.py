"""Every script under scripts/ imports the library and prints its help, and
the names perfbench/ and __all__ promise exist in the library."""
import ast
import importlib
import importlib.util
import os
import pkgutil
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


@pytest.mark.slow
def test_transition_table_is_the_calibrated_one():
    # the shipped entry for the default rule is what the calibration derives,
    # at every map exponent: every count from P0 up to MAX_PANELS meets the
    # target relative to the profile's mass, and P0 - 1 does not
    spec = importlib.util.spec_from_file_location(
        "calibrate_transition", ROOT / "scripts" / "calibrate_transition.py")
    cal = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cal)
    from oscdecay.oscint import _MAX_MAP, _TRANSITION_PANELS, QuadratureConfig, _ladder
    key = (QuadratureConfig().order, QuadratureConfig().waves_per_panel)
    table = cal.transition_table(*key)
    assert table == _TRANSITION_PANELS[key]
    assert [e for e, _ in table] == list(range(1, _MAX_MAP + 1))
    # equal panels keep the table of before the map exponent
    assert table[0] == (1, ((16, 6), (24, 3), (32, 2)))
    target, rungs = _ladder(*key)
    most = {n: m for n, m, _ in rungs}
    for e, row in table:
        for n, panels in row:
            assert cal.worst_error(n, panels - 1, most[n], e) > target

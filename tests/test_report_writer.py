"""The report writer equals `json.dumps(o, indent=2, sort_keys=True)` byte for
byte: on generated nested data, and on every report of the digest jobs."""
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oscdecay import cli

ROOT = Path(__file__).resolve().parent.parent


def dumps(o):
    return json.dumps(o, indent=2, sort_keys=True)


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=2 ** 64, max_value=10 ** 60), st.integers(max_value=-2 ** 64),
    st.floats(), st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")]),
    st.floats(allow_nan=False).map(np.float64), st.text(),
    st.text(alphabet=st.characters(min_codepoint=0x80)),
)
# homogeneous lists take the writer's one-join paths, NaN and inf included
LEAVES = st.one_of(SCALARS, st.lists(st.integers()), st.lists(st.floats()))
DATA = st.recursive(LEAVES, lambda kids: st.one_of(
    st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
    st.dictionaries(st.text(), kids, max_size=4)), max_leaves=20)


@given(DATA)
def test_equals_json_dumps(o):
    assert cli._json(o) == dumps(o)


@pytest.mark.parametrize("o", [
    {}, [], (), "", [[]], {"a": {}}, [True, 1, 1.0], [1, 2.5], {"b": 1, "a": [0.1, -0.0]},
    np.float64(1.5), [np.float64(2.0), 3.0], {"é": "😀\n\x00"},
], ids=repr)
def test_edge_cases(o):
    assert cli._json(o) == dumps(o)


def test_every_digest_report(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "report_digest", ROOT / "scripts" / "report_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    emit, reports = cli._emit, []

    def checked(report, cfg):
        assert cli._json(report) == dumps(report)
        reports.append(report["command"])
        return emit(report, cfg)

    monkeypatch.setattr(cli, "_emit", checked)
    for argv in digest.JOBS:
        digest.run_digest(argv)
    assert len(reports) == len(digest.JOBS)

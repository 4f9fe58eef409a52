"""Smoke test of tools/bench_snapshot.py's work counts: a method that moves
out from under one of its wrappers would otherwise undercount in silence."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_snapshot.py"


@pytest.fixture(scope="module")
def work_counts():
    spec = importlib.util.spec_from_file_location("bench_snapshot", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    path = sys.path[:]  # work_counts puts src/ and bench/ on the path
    try:
        yield tool.work_counts()
    finally:
        sys.path[:] = path


def test_ba_points_only_on_ba_workloads(work_counts):
    ba, _, _ = work_counts
    assert ba["radial_hardy"]["points"] > 0
    assert ba["disc_carleson"]["points"] > 0
    assert ba["conformal_control"]["points"] == 0


def test_newton_jets_are_counted(work_counts):
    _, newton, _ = work_counts
    carleson = newton["disc_carleson"]
    assert carleson["jet_calls"] > 0
    assert carleson["jet_points"] >= carleson["lanes"]
    # a closed-form inverse takes one jet call per invert call
    conformal = newton["conformal_control"]
    assert conformal["calls"] > 0
    assert conformal["jet_calls"] == conformal["calls"]

"""Smoke test of tools/bench_snapshot.py's warm passes, their page faults
and their work counts, summed from the package's ledger in each report's
metadata["work"], and of its BA kernel timings."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_snapshot.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_snapshot", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    path = sys.path[:]  # the tool puts src/ and bench/ on the path
    try:
        yield tool
    finally:
        sys.path[:] = path


@pytest.fixture(scope="module")
def usage(tool):
    """warm_pass_usage of each workload."""
    return {name: tool.warm_pass_usage(name, seed=1) for name in tool.WORKLOADS}


@pytest.fixture(scope="module")
def work_counts(usage):
    """The work of each workload's timed warm pass."""
    return {name: run["work"] for name, run in usage.items()}


def test_ba_points_only_on_ba_workloads(work_counts):
    assert work_counts["radial_hardy"]["ba_points"] > 0
    assert work_counts["disc_carleson"]["ba_points"] > 0
    # a missing key counts 0
    assert "ba_points" not in work_counts["conformal_control"]


def test_ba_map_calls_are_counted_apart_from_blocks(work_counts):
    for name in ("radial_hardy", "disc_carleson"):
        counts = work_counts[name]
        # every map call takes one block or more
        assert 0 < counts["ba_calls"] <= counts["ba_blocks"]
        # a point takes 8 or 12 line-map evaluations, and a table more
        assert counts["line_map_points"] >= 8 * counts["ba_points"]


def test_newton_jets_are_counted(work_counts):
    carleson = work_counts["disc_carleson"]
    assert carleson["invert_jets"] > 0
    assert carleson["invert_jet_points"] >= carleson["invert_lanes"]
    # a closed-form inverse takes one jet call per invert call
    conformal = work_counts["conformal_control"]
    assert conformal["invert_calls"] > 0
    assert conformal["invert_jets"] == conformal["invert_calls"]
    assert conformal["invert_jet_points"] == conformal["invert_lanes"]


def test_ba_kernel_times_each_map_and_method(tool):
    ns = tool.ba_kernel_ns_per_point(1)
    assert set(ns) == {"thm2_sqrt_call", "thm2_sqrt_jet", "power2_call",
                       "power2_jet"}
    assert all(t > 0 for t in ns.values())


def test_ba_small_batches_time_each_map_method_and_size(tool):
    us = tool.ba_small_batch_us(1, calls=2)
    assert set(us) == {f"{spec}_{method}_{n}" for spec in ("thm2_sqrt", "power2")
                       for method in ("call", "jet") for n in (40, 400)}
    assert all(t > 0 for t in us.values())


def test_warm_pass_reads_its_own_rusage(usage):
    run = usage["conformal_control"]
    assert set(run) == {"minor_faults", "sys_s", "user_s", "wall_s", "work"}
    assert run["minor_faults"] >= 0 and run["sys_s"] >= 0.0
    assert run["wall_s"] > 0.0

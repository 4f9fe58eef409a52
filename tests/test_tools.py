"""Smoke test of tools/bench_snapshot.py's warm passes, their page faults
and their work counts, summed from the package's ledger in each report's
metadata["work"], and of its BA kernel timings."""

import importlib.util
import json
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


def test_snapshot_compare_prints_what_moved(tmp_path, capsys):
    # tools/output_snapshot.py --compare: a moved verdict, a file in one
    # directory only, and per quantity the largest changes of each column
    # over the rows whose verdict did not move
    path = Path(__file__).resolve().parent.parent / "tools" / "output_snapshot.py"
    spec = importlib.util.spec_from_file_location("output_snapshot", path)
    snapshot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snapshot)

    def report(directory, name, *rows):
        directory.mkdir(exist_ok=True)
        (directory / name).write_text(json.dumps({"rows": [
            {"quantity": q, "value": v, "error": e, "classification": c}
            for q, v, e, c in rows]}))

    old, new = tmp_path / "old", tmp_path / "new"
    report(old, "a.json", ("h", 2.0, 1e-9, "converged"), ("m", 0.0, 0.0, "pass"))
    report(new, "a.json", ("h", 2.0 + 2e-12, 1e-9, "converged"),
           ("m", 1e-16, 0.0, "fail"))
    report(old, "b.json", ("h", 4.0, float("nan"), "undetermined"))
    report(new, "b.json", ("h", 4.0, float("nan"), "undetermined"))
    report(new, "c.json")
    report(old, "d.json", ("h", float("nan"), 1e-9, "undetermined"))
    report(new, "d.json", ("h", 65.5, 1e-9, "converged"))
    snapshot.main(["--compare", str(old), str(new)])
    assert capsys.readouterr().out.splitlines() == [
        f"only in {new}: c.json", "a m: pass -> fail",
        "d h: undetermined -> converged",
        "quantity,value_rel,value_abs,error_rel,error_abs,value_per_error",
        "h,1e-12,2e-12,0,0,0.002"]


def test_snapshot_compare_reads_a_move_against_its_error(tmp_path, capsys):
    # value_per_error: the largest |change of value| / the old row's error,
    # inf for a move of a row with error 0 or NaN, 0 for no move
    path = Path(__file__).resolve().parent.parent / "tools" / "output_snapshot.py"
    spec = importlib.util.spec_from_file_location("output_snapshot", path)
    snapshot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snapshot)
    nan = float("nan")
    old_rows = [("g", 1.0, 1e-6), ("g", 5.0, 1e-3), ("e", 0.5, 0.0),
                ("n", 2.0, nan), ("s", 3.0, 0.0)]
    new_rows = [("g", 1.0 + 1e-9, 2e-6), ("g", 5.0 + 1e-7, 1e-3),
                ("e", 0.5, 0.0), ("n", 2.0 + 1e-15, nan), ("s", nan, 0.0)]
    for directory, rows in ((tmp_path / "old", old_rows), (tmp_path / "new", new_rows)):
        directory.mkdir()
        for i, (q, v, e) in enumerate(rows):
            (directory / f"{i}.json").write_text(json.dumps({"rows": [
                {"quantity": q, "value": v, "error": e,
                 "classification": "converged"}]}))
    snapshot.main(["--compare", str(tmp_path / "old"), str(tmp_path / "new")])
    per_error = {line.split(",")[0]: float(line.split(",")[-1])
                 for line in capsys.readouterr().out.splitlines()[1:]}
    # g: 1e-9 / 1e-6 on one file, 1e-7 / 1e-3 on the other; s moved to NaN
    assert per_error["g"] == pytest.approx(1e-3, rel=1e-6)
    assert per_error == {"e": 0.0, "g": per_error["g"], "n": float("inf"),
                         "s": float("inf")}

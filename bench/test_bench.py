"""Tests of the benchmark itself: span arithmetic, tracer installation and
removal, and the failure accounting.  Run with
    PYTHONPATH=src python -m pytest -q bench
"""

import json
import sys
import types
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest

import run
from tracer import Target, Tracer, layer_metrics, self_times
from workloads import (KNOWN_DEFECTS, WORKLOADS, Spec, Tally, check_report,
                       run_pass)

Row = namedtuple("Row", "quantity value error classification")


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 5] and b [6, 9]; a holds c [2, 3]
    parent = [-1, 0, 1, 0]
    duration = [10.0, 4.0, 1.0, 3.0]
    assert self_times(parent, duration).tolist() == [3.0, 3.0, 1.0, 3.0]


@pytest.fixture
def fake_package():
    """benchfake.inner.leaf, imported by name into benchfake.outer."""
    pkg = types.ModuleType("benchfake")
    inner = types.ModuleType("benchfake.inner")
    outer = types.ModuleType("benchfake.outer")
    exec("def leaf(z):\n    return z * 2\n", inner.__dict__)
    outer.leaf = inner.leaf
    exec("def outer(z):\n    return leaf(z) + leaf(z[:1])\n", outer.__dict__)
    modules = {"benchfake": pkg, "benchfake.inner": inner,
               "benchfake.outer": outer}
    sys.modules.update(modules)
    yield inner, outer
    for name in modules:
        del sys.modules[name]


def test_tracer_wraps_every_lookup_site_and_nests_spans(fake_package):
    inner, outer = fake_package
    leaf = inner.leaf
    targets = (Target("outer.outer", "benchfake.outer", "outer"),
               Target("inner.leaf", "benchfake.inner", "leaf", work_arg="z"))
    with Tracer(targets, package="benchfake") as tracer:
        assert inner.leaf is not leaf and outer.leaf is inner.leaf
        outer.outer(np.arange(4.0))
    assert inner.leaf is leaf and outer.leaf is leaf
    cols = tracer.arrays()
    assert cols["name"].tolist() == [0, 1, 1]
    assert cols["parent"].tolist() == [-1, 0, 0]
    assert cols["work"].tolist() == [0, 4, 1]
    duration = cols["end"] - cols["start"]
    own = self_times(cols["parent"], duration)
    assert own[0] == pytest.approx(duration[0] - duration[1] - duration[2])


def _snapshot():
    """Identity of every attribute of every qchardy module and class."""
    snap = {}
    for name, module in sys.modules.items():
        if module is None or not (name == "qchardy" or name.startswith("qchardy.")):
            continue
        for key, value in vars(module).items():
            snap[(name, key)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    snap[(name, key, attr)] = id(member)
    return snap


def test_tracer_is_fully_removed_after_a_traced_run():
    import qchardy
    from qchardy import carleson, cli, functionals
    from qchardy.extension import make_disc_map

    before = _snapshot()
    with pytest.raises(ZeroDivisionError):
        with Tracer() as tracer:
            for module, name in ((carleson, "invert"),
                                 (cli, "lipschitz_modulus_inverse"),
                                 (functionals, "circle_mean"),
                                 (carleson, "hardy_norm"),
                                 (functionals, "ball_sample"),
                                 (qchardy, "hardy_norm")):
                assert hasattr(getattr(module, name), "bench_target"), name
            phi = make_disc_map("thm2_sqrt")
            phi(np.array([0.1j, 0.2]))
            functionals.integral_mean(qchardy.cauchy_kernel(), 0.5, 1.0)
            1 / 0
    assert _snapshot() == before
    metrics = layer_metrics(tracer, 1)
    assert metrics["extension.ba_eval.points"][0] == 2
    assert metrics["quadrature.circle_mean.calls"][0] >= 1
    assert metrics["quadrature.circle_mean.nodes"][0] > 0


GOOD = {
    "thm1_power2": [Row("proxy_sup", 40.1, 0.0, "diverging"),
                    Row("lipschitz_modulus", 32.0, 0.0, "diverging"),
                    Row("thm1_agreement", 1.0, 0.0, "pass")],
    "thm1_thm2_sqrt": [Row("proxy_sup", 0.6, 0.0, "converged"),
                       Row("lipschitz_modulus", 2 - 2 ** -10, 0.0, "converged"),
                       Row("thm1_agreement", 1.0, 0.0, "pass")],
}


def _execute(overrides):
    def execute(argv):
        label = Spec(argv[0], argv[2]).label
        action = overrides.get(label)
        if isinstance(action, Exception):
            raise action
        rows = action if action is not None else GOOD[label]
        csv = "".join(f"{r.quantity},{r.value},{r.classification}\n" for r in rows)
        return all(r.classification != "fail" for r in rows), rows, csv
    return execute


def test_failed_counts_a_raising_spec_and_a_wrong_verdict():
    specs = (Spec("thm1", "power:2"), Spec("thm1", "thm2_sqrt"),
             Spec("thm1", "power:2"))
    wrong = [Row("proxy_sup", 0.6, 0.0, "converged")] + GOOD["thm1_power2"][1:]
    tally = Tally()
    calibrate = lambda: (run.CALIBRATION_REF_S,)  # noqa: E731 - reference speed
    passes = [
        run_pass(specs[:2], 0, _execute({"thm1_power2": wrong}), tally,
                 calibrate),
        run_pass(specs[1:], 0,
                 _execute({"thm1_thm2_sqrt": RuntimeError("boom")}), tally,
                 calibrate),
    ]
    assert (tally.attempted, tally.failed) == (4, 3)
    # set-up ran at half the reference speed, so it scales to half its time
    metrics = run.end_to_end(passes, [(0.2, 0.0, (2 * run.CALIBRATION_REF_S,))],
                             tally)
    assert metrics["passed_frac"] == 0.25
    assert metrics["setup_s"] == pytest.approx(0.1)
    problems = [run.problems for run in tally.failures]
    assert problems[0] == [("proxy_sup", "converged, expected diverging")]
    assert problems[1] == [("raised", "RuntimeError: boom")]
    # the second thm1_power2 run is right, but its CSV differs from the first
    assert problems[2] == [("csv", "CSV bytes differ from the first run "
                                   "with this seed")]
    assert len(tally.unexpected) == 3


def test_scaling_removes_timer_kernel_runs_and_averages_speed():
    ref = run.CALIBRATION_REF_S
    # the kernel took 2 ref before the 10 s interval and ref after it; the
    # timer ran it once inside (2 ref, at 5 s) and once after (at 20 s)
    ticks = [(5.0, 5.0 + 2 * ref), (20.0, 20.0 + ref)]
    seconds = run.scaled(10.0, 1.0, (2 * ref, ref), ticks)
    speed = (1 / (2 * ref) + 1 / ref + 1 / (2 * ref)) / 3
    assert seconds == pytest.approx((10.0 - 2 * ref) * ref * speed)


def test_known_defect_fails_without_making_the_run_incorrect():
    spec = Spec("thm1", "moebius:0.99")
    rows = [Row("proxy_sup", 0.34, 0.0, "converged"),
            Row("lipschitz_modulus", 193.14301833435312, 0.0, "diverging"),
            Row("thm1_agreement", 0.0, 0.0, "fail")]
    tally = Tally()
    run_pass((spec,), 0, lambda argv: (False, rows, "x"), tally)
    assert tally.failed == 1 and tally.unexpected == []
    line = run.result(tally, {})
    assert (line["correct"], line["attempted"], line["failed"]) == (True, 1, 0)
    # a raise is not the known defect
    run_pass((spec,), 0, lambda argv: 1 / 0, tally)
    assert tally.failed == 2 and len(tally.unexpected) == 1
    line = run.result(tally, {})
    assert (line["correct"], line["attempted"], line["failed"]) == (False, 2, 1)
    assert spec.label in KNOWN_DEFECTS


def test_reference_values_are_checked():
    spec = Spec("thm1", "thm2_sqrt")
    rows = list(GOOD["thm1_thm2_sqrt"])
    assert check_report(spec, True, rows) == []
    rows[1] = rows[1]._replace(value=1.99)
    assert [q for q, _ in check_report(spec, True, rows)] == ["lipschitz_modulus"]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()

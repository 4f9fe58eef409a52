"""Outside-in tracer: spans around qchardy's layer boundaries, installed from
the benchmark's own files without editing the package.

Each target is a public function or method of one qchardy module.  A module
function is replaced at every lookup site, that is in every qchardy module
namespace that holds the same function object (``from .x import y`` gives the
importing module its own copy of the name).  A method is replaced on its class.

Every call of a wrapped target records one span: name, start, end, the span
that was open when it started (its parent), a count of work units and whether
it raised.  Spans stay in memory; ``write_csv`` writes them out when the run
ends.  The benchmark runs single-threaded, so the children of a span are
disjoint and its self time is its duration minus the sum of its children's.
"""

from __future__ import annotations

import csv
import importlib
import inspect
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from workloads import UNDETERMINED


@dataclass(frozen=True)
class Target:
    """One traced function.

    ``work_arg`` names the parameter whose size (``np.size``) is the span's
    work count; ``work_value`` names one whose value is; ``work_result`` maps
    the return value to the count; ``count_integrand`` counts the nodes at
    which the ``fn`` argument is evaluated.
    """

    span: str
    module: str
    attr: str
    work_arg: str | None = None
    work_value: str | None = None
    work_result: Callable | None = None
    count_integrand: bool = False

    @property
    def layer(self):
        return self.span.split(".", 1)[0]


def _is_undetermined(estimate):
    return int(estimate.classification == UNDETERMINED)


TARGETS = (
    Target("extension.ba_eval", "qchardy.extension", "BAExtension.__call__",
           work_arg="z"),
    Target("extension.map_eval", "qchardy.extension", "DiscQCMap.__call__",
           work_arg="z"),
    Target("extension.differential", "qchardy.extension",
           "DiscQCMap.differential", work_arg="z"),
    Target("extension.invert", "qchardy.extension", "invert"),
    Target("quadrature.circle_mean", "qchardy.quadrature", "circle_mean",
           count_integrand=True),
    Target("functionals.integral_mean", "qchardy.functionals", "integral_mean"),
    Target("functionals.hardy_norm", "qchardy.functionals", "hardy_norm",
           work_result=_is_undetermined),
    Target("functionals.boundary_lp_norm", "qchardy.functionals",
           "boundary_lp_norm"),
    Target("functionals.maximal_lp", "qchardy.functionals", "maximal_lp"),
    Target("functionals.area_integral", "qchardy.functionals", "area_integral"),
    Target("functionals.average_derivative", "qchardy.functionals",
           "average_derivative", work_value="mc_samples"),
    Target("carleson.operator_bound_proxy", "qchardy.carleson",
           "operator_bound_proxy"),
    Target("carleson.kernel_ratio", "qchardy.carleson", "kernel_ratio"),
    Target("carleson.measure_ball", "qchardy.carleson",
           "DiscPushforward.measure_ball"),
    Target("boundary.lipschitz_modulus_inverse", "qchardy.boundary",
           "lipschitz_modulus_inverse"),
    Target("geometry.ball_sample", "qchardy.geometry", "ball_sample"),
    Target("functions.composite_eval", "qchardy.functions",
           "QuasiregularMap.__call__", work_arg="z"),
    Target("cli.run", "qchardy.cli", "run"),
)


def _argument_getter(func, name):
    """(args, kwargs) -> value of parameter ``name``, default included."""
    params = list(inspect.signature(func).parameters.values())
    index = [p.name for p in params].index(name)
    default = params[index].default

    def get(args, kwargs):
        if len(args) > index:
            return args[index]
        return kwargs.get(name, default)

    return get


class Tracer:
    """Records spans for the targets while installed.

    Use as a context manager: entering installs the wrappers, leaving restores
    every original, also when the traced code raises.
    """

    def __init__(self, targets=TARGETS, package="qchardy"):
        self.targets = tuple(targets)
        self.package = package
        self.names = [t.span for t in self.targets]
        # one row per span: [name index, parent row, start, end, work, raised]
        self.spans = []
        self._stack = []
        self._patched = []  # (owner, attribute, original)

    # -- installation -------------------------------------------------------

    def _modules(self):
        prefix = self.package + "."
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(prefix))]

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        for name in {t.module for t in self.targets}:
            importlib.import_module(name)
        modules = self._modules()
        try:
            for index, target in enumerate(self.targets):
                owner = importlib.import_module(target.module)
                *cls_path, attr = target.attr.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr]
                wrapper = self._wrap(index, target, original)
                if cls_path:
                    self._patch(owner, attr, original, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, original, wrapper)
        except BaseException:
            self.uninstall()
            raise
        return self

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, index, target, func):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        get_size = (_argument_getter(func, target.work_arg)
                    if target.work_arg else None)
        get_value = (_argument_getter(func, target.work_value)
                     if target.work_value else None)
        fn_index = (list(inspect.signature(func).parameters).index("fn")
                    if target.count_integrand else None)
        work_result = target.work_result

        def traced(*args, **kwargs):
            row = [index, stack[-1] if stack else -1, 0.0, 0.0, 0, 0]
            if get_size is not None:
                row[4] = int(np.size(get_size(args, kwargs)))
            elif get_value is not None:
                row[4] = int(get_value(args, kwargs))
            elif fn_index is not None:
                args, kwargs = _count_nodes(args, kwargs, fn_index, row)
            span_id = len(spans)
            spans.append(row)
            stack.append(span_id)
            row[2] = clock()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                row[5] = 1
                raise
            finally:
                row[3] = clock()
                stack.pop()
            if work_result is not None:
                row[4] = work_result(result)
            return result

        traced.__wrapped__ = func
        traced.__qualname__ = getattr(func, "__qualname__", target.attr)
        traced.bench_target = target.span
        return traced

    # -- results ------------------------------------------------------------

    def arrays(self):
        """Spans as numpy columns: name, parent, start, end, work, raised."""
        rows = np.asarray(self.spans, dtype=float).reshape(-1, 6)
        return {
            "name": rows[:, 0].astype(int),
            "parent": rows[:, 1].astype(int),
            "start": rows[:, 2],
            "end": rows[:, 3],
            "work": rows[:, 4],
            "raised": rows[:, 5].astype(bool),
        }

    def write_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "name", "parent", "start", "end", "work",
                          "raised"])
            for span_id, (name, parent, start, end, work, raised) in \
                    enumerate(self.spans):
                out.writerow([span_id, self.names[name], parent, repr(start),
                              repr(end), work, raised])


def _count_nodes(args, kwargs, fn_index, row):
    """Replace the integrand by one that adds its node count to the span."""
    fn = args[fn_index] if len(args) > fn_index else kwargs["fn"]

    def counted(theta):
        row[4] += int(np.size(theta))
        return fn(theta)

    if len(args) > fn_index:
        args = args[:fn_index] + (counted,) + args[fn_index + 1:]
    else:
        kwargs = dict(kwargs, fn=counted)
    return args, kwargs


def self_times(parent, duration):
    """Duration minus the time covered by direct children, per span."""
    parent = np.asarray(parent, dtype=int)
    duration = np.asarray(duration, dtype=float)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=duration.size)
    return duration - covered


LAYERS = ("extension", "quadrature", "functionals", "carleson", "boundary",
          "geometry", "functions", "cli")


def layer_metrics(tracer, passes):
    """Per-layer metrics from the recorded spans, per pass of the workload.

    Returns {name: (value, unit)}.  Counts and times are divided by the
    number of traced passes; ratios are not.
    """
    cols = tracer.arrays()
    names, parent, work = cols["name"], cols["parent"], cols["work"]
    duration = cols["end"] - cols["start"]
    own = self_times(parent, duration)
    ids = {name: i for i, name in enumerate(tracer.names)}
    parent_name = np.where(parent >= 0, names[np.maximum(parent, 0)], -1)

    def of(span):
        return names == ids[span]

    def calls(span):
        return float(np.count_nonzero(of(span)))

    def total(span):
        return float(duration[of(span)].sum())

    def self_s(span):
        return float(own[of(span)].sum())

    def units(span):
        return float(work[of(span)].sum())

    def children_per_call(parent_span, child_span):
        """Direct child spans of each parent span, in span order."""
        mask = of(child_span) & (parent_name == ids[parent_span])
        counts = np.bincount(parent[mask], minlength=names.size)
        return counts[of(parent_span)]

    def ratio(num, den):
        return num / den if den else 0.0

    per = 1.0 / passes
    ba_points = units("extension.ba_eval")
    diff_points = units("extension.differential")
    invert_calls = calls("extension.invert")
    ball_calls = calls("carleson.measure_ball")
    m = {
        "extension.ba_eval.calls": (calls("extension.ba_eval") * per, "count"),
        "extension.ba_eval.points": (ba_points * per, "count"),
        "extension.ba_eval.self_s": (self_s("extension.ba_eval") * per, "s"),
        "extension.ba_eval.us_per_point": (
            1e6 * ratio(self_s("extension.ba_eval"), ba_points), "us"),
        "extension.ba_eval.points_per_call": (
            ratio(ba_points, calls("extension.ba_eval")), "count"),
        "extension.map_eval.points": (units("extension.map_eval") * per,
                                      "count"),
        "extension.differential.points": (diff_points * per, "count"),
        "extension.differential.total_s": (
            total("extension.differential") * per, "s"),
        "extension.differential.self_s": (
            self_s("extension.differential") * per, "s"),
        "extension.differential.us_per_point": (
            1e6 * ratio(total("extension.differential"), diff_points), "us"),
        "extension.invert.calls": (invert_calls * per, "count"),
        "extension.invert.total_s": (total("extension.invert") * per, "s"),
        "extension.invert.map_calls_per_call": (ratio(
            children_per_call("extension.invert", "extension.map_eval").sum(),
            invert_calls), "count"),
        "extension.invert.failures": (
            float(np.count_nonzero(of("extension.invert") & cols["raised"]))
            * per, "count"),
        "quadrature.circle_mean.calls": (
            calls("quadrature.circle_mean") * per, "count"),
        "quadrature.circle_mean.nodes": (
            units("quadrature.circle_mean") * per, "count"),
        "quadrature.circle_mean.self_s": (
            self_s("quadrature.circle_mean") * per, "s"),
        "functionals.integral_mean.calls": (
            calls("functionals.integral_mean") * per, "count"),
        "functionals.integral_mean.escalations": (float(np.count_nonzero(
            children_per_call("functionals.integral_mean",
                              "quadrature.circle_mean") > 1)) * per, "count"),
        "functionals.hardy_norm.calls": (
            calls("functionals.hardy_norm") * per, "count"),
        "functionals.hardy_norm.total_s": (
            total("functionals.hardy_norm") * per, "s"),
        "functionals.hardy_norm.undetermined": (
            units("functionals.hardy_norm") * per, "count"),
        "functionals.boundary_lp_norm.total_s": (
            total("functionals.boundary_lp_norm") * per, "s"),
        "functionals.maximal_lp.total_s": (
            total("functionals.maximal_lp") * per, "s"),
        "functionals.maximal_lp.self_s": (
            self_s("functionals.maximal_lp") * per, "s"),
        "functionals.area_integral.total_s": (
            total("functionals.area_integral") * per, "s"),
        "functionals.average_derivative.calls": (
            calls("functionals.average_derivative") * per, "count"),
        "functionals.average_derivative.samples": (
            units("functionals.average_derivative") * per, "count"),
        "functionals.average_derivative.total_s": (
            total("functionals.average_derivative") * per, "s"),
        "carleson.operator_bound_proxy.total_s": (
            total("carleson.operator_bound_proxy") * per, "s"),
        "carleson.kernel_ratio.calls": (
            calls("carleson.kernel_ratio") * per, "count"),
        "carleson.measure_ball.calls": (ball_calls * per, "count"),
        "carleson.measure_ball.total_s": (
            total("carleson.measure_ball") * per, "s"),
        "carleson.measure_ball.self_s": (
            self_s("carleson.measure_ball") * per, "s"),
        "carleson.measure_ball.attempts_per_call": (ratio(
            children_per_call("carleson.measure_ball",
                              "extension.map_eval").sum(), ball_calls),
            "count"),
        "boundary.lipschitz_modulus_inverse.total_s": (
            total("boundary.lipschitz_modulus_inverse") * per, "s"),
        "geometry.ball_sample.total_s": (
            total("geometry.ball_sample") * per, "s"),
        "functions.composite_eval.points": (
            units("functions.composite_eval") * per, "count"),
        "functions.composite_eval.self_s": (
            self_s("functions.composite_eval") * per, "s"),
    }
    layer_of = np.array([t.layer for t in tracer.targets])
    for layer in LAYERS:
        mask = np.isin(names, np.flatnonzero(layer_of == layer))
        m[f"layer.{layer}.self_s"] = (float(own[mask].sum()) * per, "s")
    m["trace.spans"] = (names.size * per, "count")
    return m

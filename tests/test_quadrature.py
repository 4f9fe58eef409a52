import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qchardy import quadrature
from qchardy.quadrature import (
    TWO_PI,
    _legendre_tail,
    circle_mean,
    circle_means,
    gauss_legendre,
    wrap_angle,
)

# (1/2pi) int |1 - e^{it}|^{-2s} dt = Gamma(1 - 2s) / Gamma(1 - s)^2, at s = 1/4
_MEAN_ROOT_KERNEL = math.gamma(0.5) / math.gamma(0.75) ** 2


def _graded_edges(length, scale):
    """Reference edges of a graded half: widths double away from 0 from
    min(scale, length), one term at a time."""
    edges = [0.0]
    w = min(scale, length)
    pos = w
    while pos < length:
        edges.append(pos)
        w *= 2.0
        pos += w
    edges.append(length)
    return edges


def _loop_circle_mean(fn, marks=(), order=16):
    """Reference: the graded rule of one circle built mark by mark and edge
    by edge in Python, as circle_mean was before circles came in batches."""
    scales = {}
    for t, s in marks or ((0.0, np.pi / 16),):
        t = wrap_angle(t)
        scales[t] = min(float(s), scales.get(t, np.inf))
    angles = sorted(scales)
    x, w = gauss_legendre(order)
    lo, hi, mark, away = [], [], [], []
    for t0, t1 in zip(angles, angles[1:] + angles[:1]):
        h = 0.5 * ((t1 - t0) % TWO_PI or TWO_PI)
        for t, sign in ((t0, 1.0), (t1, -1.0)):
            edges = _graded_edges(h, scales[t])
            lo += edges[:-1]
            hi += edges[1:]
            mark += [t] * (len(edges) - 1)
            away += [sign] * (len(edges) - 1)
    lo = np.array(lo)
    half = 0.5 * (np.array(hi) - lo)
    nodes = (np.array(mark)[:, None]
             + np.array(away)[:, None] * ((lo + half)[:, None] + half[:, None] * x))
    vals = fn((nodes - TWO_PI * np.round(nodes / TWO_PI)).ravel())
    vals = vals.reshape(nodes.shape)
    total = float(np.sum(half * (vals @ w)))
    tail = np.abs(vals @ _legendre_tail(order)).sum(axis=1)
    err = float(np.sum(2.0 * half * tail))
    return total / TWO_PI, err / TWO_PI


# marked angles: anywhere, at +-pi and beyond, and at 0; scales from 1e-13 to
# 30, so some exceed their arc of at most 2 pi
_ANGLES = st.one_of(st.floats(-7.0, 7.0),
                    st.sampled_from([0.0, np.pi, -np.pi, 3 * np.pi, 1e-9]))
_SCALES = st.builds(lambda e, m: m * 10.0 ** e, st.integers(-13, 1),
                    st.floats(1.0, 3.0))


@st.composite
def _one_circle_marks(draw):
    """Marks of one circle: none, one, or several, some repeated at another
    scale."""
    marks = draw(st.lists(st.tuples(_ANGLES, _SCALES), max_size=5))
    for t, _ in draw(st.lists(st.sampled_from(marks), max_size=3)) if marks else ():
        marks.append((t, draw(_SCALES)))
    return marks


class TestWrapAngle:
    @given(st.floats(-50.0, 50.0))
    def test_range_and_congruence(self, t):
        w = wrap_angle(t)
        assert -np.pi < w <= np.pi
        assert abs((w - t) / (2 * np.pi) - round((w - t) / (2 * np.pi))) < 1e-9

    def test_pi_maps_to_pi(self):
        assert wrap_angle(np.pi) == np.pi
        assert wrap_angle(-np.pi) == np.pi
        assert wrap_angle(3 * np.pi) == np.pi

    def test_vectorized(self):
        out = wrap_angle(np.array([0.0, 2 * np.pi, -2 * np.pi]))
        assert np.allclose(out, 0.0)


class TestGaussLegendre:
    def test_nodes_cached_and_exact(self):
        x, w = gauss_legendre(8)
        assert gauss_legendre(8) is not None
        # order-8 rule is exact through degree 15
        assert abs(np.sum(w * x ** 14) - 2.0 / 15.0) < 1e-14
        assert abs(np.sum(w) - 2.0) < 1e-14


class TestCircleMeans:
    @given(st.lists(_one_circle_marks(), min_size=1, max_size=4),
           st.sampled_from([12, 16]), st.sampled_from([1, 300, 8192]))
    def test_each_circle_is_the_loop_rule_bitwise(self, marks, order, budget):
        # the integrand differs by circle; each circle's mean and error are
        # those of the one-circle loop, whatever the batch it is summed in
        def fn(t, c):
            return 1.0 / (1.25 + np.cos(t - c)) + np.abs(np.sin(t)) ** -0.25

        with mock.patch.object(quadrature, "_NODES_PER_CALL", budget):
            got = list(circle_means(fn, marks, order))
        assert got == [_loop_circle_mean(lambda t, c=c: fn(t, c), m, order)
                       for c, m in enumerate(marks)]
        if order == 16:
            assert circle_mean(lambda t: fn(t, 0), marks[0]) == got[0]

    def test_calls_fn_once_per_batch(self):
        seen = []

        def fn(t, c):
            seen.append(np.unique(c).tolist())
            return np.ones_like(t)

        marks = [((0.0, 1e-10),)] * 6
        with mock.patch.object(quadrature, "_NODES_PER_CALL", 3000):
            means = circle_means(fn, marks)
            assert next(means) == pytest.approx((1.0, 0.0), abs=1e-12)
            # a batch is evaluated when its first mean is asked for
            assert seen == [[0, 1]]
            list(means)
        # 70 panels of 16 nodes a circle: two circles fill 2,240 of 3,000
        assert seen == [[0, 1], [2, 3], [4, 5]]


class TestCircleMean:
    def test_constant(self):
        val, err = circle_mean(lambda t: np.ones_like(t))
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_trig_mean(self):
        val, _ = circle_mean(lambda t: np.cos(t) ** 2)
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_singular_at_marked_angle(self):
        # mean of |2 sin((t - a)/2)|^{-1/2}, independent of the marked angle a
        for a in (0.0, 1.7, np.pi):
            val, _ = circle_mean(
                lambda t, a=a: np.abs(2 * np.sin((t - a) / 2.0)) ** -0.5,
                ((a, 1e-10),))
            assert val == pytest.approx(_MEAN_ROOT_KERNEL, rel=1e-5)

    def test_two_singular_angles(self):
        fn = lambda t: (np.abs(2 * np.sin(t / 2)) ** -0.5
                        + np.abs(2 * np.sin((t - 2.0) / 2)) ** -0.5)
        one, _ = circle_mean(lambda t: np.abs(2 * np.sin(t / 2)) ** -0.5,
                             ((0.0, 1e-10),))
        both, _ = circle_mean(fn, ((0.0, 1e-10), (2.0, 1e-10)))
        assert both == pytest.approx(2 * one, rel=1e-8)

    def test_error_estimate_is_conservative(self):
        val, err = circle_mean(lambda t: np.abs(2 * np.sin(t / 2)) ** -0.5,
                               ((0.0, 1e-10),))
        exact = _MEAN_ROOT_KERNEL
        assert abs(val - exact) <= max(10 * err, 1e-6 * exact)
        assert val == pytest.approx(exact, rel=1e-5)

    def test_calls_fn_once(self):
        shapes = []

        def fn(t):
            shapes.append(t.shape)
            return np.cos(t) ** 2

        for marks in ((), ((0.0, 1e-10),),
                      ((0.0, 1e-10), (0.3, 1e-3), (-2.0, 1e-6), (np.pi, 1e-4))):
            shapes.clear()
            val, _ = circle_mean(fn, marks)
            assert len(shapes) == 1 and len(shapes[0]) == 1
            assert val == pytest.approx(0.5, abs=1e-12)

    def test_nodes_reach_each_mark_within_its_scale(self):
        marks = ((0.0, 1e-10), (3.1, 1e-6), (-np.pi + 1e-7, 1e-9), (1.0, 1e-4))
        seen = []

        def fn(t):
            seen.append(t)
            return np.ones_like(t)

        circle_mean(fn, marks)
        nodes = seen[0]
        assert np.all(np.abs(nodes) <= np.pi)
        for t, scale in marks:
            gap = np.abs(wrap_angle(nodes - t))
            assert 0.0 < gap.min() < scale
        # the node closest to the mark at 0 is exact to the last bits, not
        # rounded to a multiple of ulp(pi)
        x, _ = gauss_legendre(16)
        assert nodes[nodes > 0].min() == pytest.approx(5e-11 * (1 + x[0]),
                                                       rel=1e-12, abs=0.0)

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qchardy.quadrature import (
    circle_mean,
    gauss_legendre,
    wrap_angle,
)

# (1/2pi) int |1 - e^{it}|^{-2s} dt = Gamma(1 - 2s) / Gamma(1 - s)^2, at s = 1/4
_MEAN_ROOT_KERNEL = math.gamma(0.5) / math.gamma(0.75) ** 2


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

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qchardy.geometry import HyperbolicBall, ball_sample, cone_halfwidth


def cone_contains(vertex, aperture, z):
    """Reference membership oracle of the open cone
    {z : |z - vertex| < aperture (1 - |z|)}; rejects points outside the open
    disc."""
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(z) >= 1.0):
        raise ValueError("cone_contains requires |z| < 1")
    inside = np.abs(z - vertex) < aperture * (1.0 - np.abs(z))
    if inside.ndim == 0:
        return bool(inside)
    return inside


class TestConeHalfwidth:
    def test_contains_basic(self):
        assert cone_contains(1.0, 2.0, 0.5)
        assert cone_contains(1.0, 2.0, 0.0)
        assert not cone_contains(1.0, 2.0, -0.5)

    def test_rejects_boundary_points(self):
        with pytest.raises(ValueError):
            cone_contains(1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            cone_contains(1.0, 2.0, np.array([0.3, 1.2j]))

    def test_aperture_validation(self):
        for c in (1.0, 0.5, np.nan):
            with pytest.raises(ValueError, match="aperture"):
                cone_halfwidth(c, 0.5)

    @given(st.floats(0.01, 0.999), st.floats(1.1, 5.0), st.floats(0.1, 3.0))
    def test_monotone_in_aperture(self, d, c, dc):
        assert cone_halfwidth(c, d) <= cone_halfwidth(c + dc, d)

    def test_halfwidth_matches_membership(self):
        for d in (0.5, 0.9, 0.99):
            half = cone_halfwidth(2.0, d)
            inside = d * np.exp(1j * (np.pi / 2 + 0.999 * half))
            outside = d * np.exp(1j * (np.pi / 2 + 1.001 * half))
            assert cone_contains(1j, 2.0, inside)
            assert not cone_contains(1j, 2.0, outside)

    def test_whole_circle_near_the_centre(self):
        # aperture (1 - d) >= 1 + d, so d <= 1/3 at aperture 2: the whole
        # circle |z| = d lies in the cone
        assert cone_halfwidth(2.0, 0.2) == np.pi
        assert cone_halfwidth(2.0, 0.34) < np.pi


class TestHyperbolicBall:
    def test_radius_and_validation(self):
        ball = HyperbolicBall(center=0.5, ratio=0.5)
        assert abs(ball.radius - 0.25) < 1e-12
        with pytest.raises(ValueError):
            HyperbolicBall(center=1.0)
        with pytest.raises(ValueError):
            HyperbolicBall(center=0.5, ratio=1.0)

    def test_ball_stays_in_disc(self):
        for c in (0.0, 0.5, 0.9j, -0.99):
            ball = HyperbolicBall(center=c, ratio=0.9)
            assert abs(ball.center) + ball.radius < 1.0

    def test_sample_inside_ball(self):
        ball = HyperbolicBall(center=0.3 + 0.4j, ratio=0.5)
        pts = ball_sample(ball, 5000, np.random.default_rng(1))
        assert np.all(np.abs(pts - ball.center) <= ball.radius + 1e-15)
        assert np.all(np.abs(pts) < 1.0)

    def test_sample_is_uniform(self):
        # first and second moments of a uniform disc distribution
        ball = HyperbolicBall(center=0.2, ratio=0.5)
        pts = ball_sample(ball, 50_000, np.random.default_rng(3))
        assert abs(np.mean(pts) - ball.center) < 0.003
        r2 = np.mean(np.abs(pts - ball.center) ** 2)
        assert abs(r2 - ball.radius ** 2 / 2.0) < 1e-4

    def test_sample_deterministic_in_seed(self):
        ball = HyperbolicBall(center=0.1j, ratio=0.4)
        a = ball_sample(ball, 64, np.random.default_rng(11))
        b = ball_sample(ball, 64, np.random.default_rng(11))
        assert np.array_equal(a, b)

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qchardy.geometry import (
    Cone,
    HyperbolicBall,
    ball_sample,
    cone_angular_halfwidth,
    cone_sample,
)


def cone_contains(cone, z):
    """Reference membership oracle of the open cone; rejects points outside
    the open disc."""
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(z) >= 1.0):
        raise ValueError("cone_contains requires |z| < 1")
    inside = np.abs(z - cone.vertex) < cone.aperture * (1.0 - np.abs(z))
    if inside.ndim == 0:
        return bool(inside)
    return inside


interior_points = st.builds(
    lambda r, t: r * np.exp(1j * t),
    st.floats(0.0, 0.999), st.floats(-np.pi, np.pi),
)


class TestCone:
    def test_contains_basic(self):
        cone = Cone(vertex=1.0 + 0j, aperture=2.0)
        assert cone_contains(cone, 0.5)
        assert cone_contains(cone, 0.0)
        assert not cone_contains(cone, -0.5)

    def test_rejects_boundary_points(self):
        cone = Cone(vertex=1.0 + 0j)
        with pytest.raises(ValueError):
            cone_contains(cone, 1.0)
        with pytest.raises(ValueError):
            cone_contains(cone, np.array([0.3, 1.2j]))

    def test_aperture_validation(self):
        with pytest.raises(ValueError):
            Cone(vertex=1.0 + 0j, aperture=1.0)
        with pytest.raises(ValueError):
            Cone(vertex=0.5 + 0j)

    @given(interior_points, st.floats(1.1, 5.0), st.floats(0.1, 3.0))
    def test_monotone_in_aperture(self, z, c, dc):
        small = Cone(vertex=1j, aperture=c)
        big = Cone(vertex=1j, aperture=c + dc)
        if cone_contains(small, z):
            assert cone_contains(big, z)

    def test_angular_halfwidth_matches_membership(self):
        cone = Cone(vertex=1j, aperture=2.0)
        for d in (0.5, 0.9, 0.99):
            half = cone_angular_halfwidth(cone, d)
            inside = d * np.exp(1j * (np.pi / 2 + 0.999 * half))
            outside = d * np.exp(1j * (np.pi / 2 + 1.001 * half))
            assert cone_contains(cone, inside)
            assert not cone_contains(cone, outside)

    def test_sample_lies_in_cone(self):
        cone = Cone(vertex=np.exp(0.7j), aperture=2.5)
        pts = cone_sample(cone, [0.5, 0.75, 0.9, 0.99], rays_per_depth=7)
        assert pts.shape == (28,)
        assert np.all(cone_contains(cone, pts))

    def test_sample_single_ray_is_radial(self):
        cone = Cone(vertex=1.0 + 0j)
        pts = cone_sample(cone, [0.5, 0.9], rays_per_depth=1)
        assert np.allclose(pts.imag, 0.0)
        assert np.allclose(pts.real, [0.5, 0.9])

    def test_sample_input_validation(self):
        cone = Cone(vertex=1.0 + 0j)
        with pytest.raises(ValueError):
            cone_sample(cone, [], 4)
        with pytest.raises(ValueError):
            cone_sample(cone, [0.9, 0.5], 4)
        with pytest.raises(ValueError):
            cone_sample(cone, [0.0, 0.5], 4)


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

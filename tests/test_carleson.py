from collections import Counter

import numpy as np
import pytest

from qchardy.boundary import lipschitz_modulus_inverse
from qchardy.carleson import (
    LEBESGUE,
    WEIGHTED,
    BoundaryPushforward,
    DiscPushforward,
    bergman_carleson_constant,
    boundary_carleson_constant,
    kernel_ratio,
    luecking_constant,
    make_ball_family,
    operator_bound_proxy,
)
from qchardy.extension import make_disc_map
from qchardy.functionals import hardy_norm
from qchardy.functions import compose, hardy_kernel
from qchardy.geometry import Arc, HyperbolicBall


class TestBoundaryPushforward:
    @pytest.mark.parametrize("label", ["identity", "moebius(0.5)", "thm2_sqrt",
                                       "power(2)"])
    def test_total_mass_one(self, label, catalog_maps):
        mu = BoundaryPushforward(catalog_maps[label])
        assert mu.total_mass() == pytest.approx(1.0, abs=1e-12)

    def test_additive_over_split(self, thm2_map):
        mu = BoundaryPushforward(thm2_map)
        whole = mu.measure_interval(0.2, 1.4)
        split = mu.measure_interval(0.2, 0.9) + mu.measure_interval(0.9, 1.4)
        assert whole == pytest.approx(split, abs=1e-14)

    def test_interval_across_branch_cut(self, thm2_map):
        mu = BoundaryPushforward(thm2_map)
        val = mu.measure_interval(np.pi - 0.3, np.pi + 0.3)
        pieces = (mu.measure_interval(np.pi - 0.3, np.pi)
                  + mu.measure_interval(-np.pi, -np.pi + 0.3))
        assert val == pytest.approx(pieces, abs=1e-14)

    def test_identity_gives_normalized_length(self, identity_map):
        mu = BoundaryPushforward(identity_map)
        arc = Arc(center_angle=0.5, half_width=0.25)
        assert mu.measure_arc(arc) == pytest.approx(0.5 / (2 * np.pi), abs=1e-14)

    def test_sqrt_map_interval_closed_form(self, thm2_map):
        # preimage of [0, s] under alpha(t) = sqrt(pi t) is [0, s^2/pi]
        mu = BoundaryPushforward(thm2_map)
        s = 1.2
        assert mu.measure_interval(0.0, s) == pytest.approx(
            s * s / np.pi / (2 * np.pi), abs=1e-12)

    def test_validation(self, identity_map):
        mu = BoundaryPushforward(identity_map)
        with pytest.raises(ValueError):
            mu.measure_interval(1.0, 0.5)
        with pytest.raises(ValueError):
            mu.measure_interval(0.0, 7.0)


class TestBoundaryCarleson:
    def test_matches_lipschitz_modulus(self, thm2_map, pow2_map):
        for phi in (thm2_map, pow2_map):
            mu = BoundaryPushforward(phi)
            assert boundary_carleson_constant(mu, 8) == \
                lipschitz_modulus_inverse(phi.boundary, 8)

    def test_identity_all_ones(self, identity_map):
        consts = boundary_carleson_constant(BoundaryPushforward(identity_map), 6)
        assert np.allclose(consts, 1.0, atol=1e-12)


class TestDiscPushforward:
    def test_identity_lebesgue_mass(self, identity_map):
        mu = DiscPushforward(identity_map, seed=3)
        ball = HyperbolicBall(center=0.5, ratio=0.5)
        mass, err = mu.measure_ball(ball, n=20000)
        assert mass == pytest.approx(ball.area, rel=0.05)
        assert err < 0.2 * mass

    def test_deterministic(self, thm2_map):
        mu = DiscPushforward(thm2_map, seed=11)
        ball = HyperbolicBall(center=0.75 * 1j, ratio=0.5)
        assert mu.measure_ball(ball, n=2048) == mu.measure_ball(ball, n=2048)

    def test_monotone_in_ball(self, thm2_map):
        mu = DiscPushforward(thm2_map, seed=0)
        small = HyperbolicBall(center=0.5, ratio=0.25)
        big = HyperbolicBall(center=0.5, ratio=0.5)
        m_small, e_small = mu.measure_ball(small, n=8192)
        m_big, e_big = mu.measure_ball(big, n=8192)
        assert m_small <= m_big + 3 * (e_small + e_big)

    def test_weighted_identity_against_quadrature(self, identity_map):
        # identity symbol: mu(B) = int_B (1-|z|) dm for p = 2
        from scipy.integrate import dblquad
        ball = HyperbolicBall(center=0.5, ratio=0.5)
        exact, _ = dblquad(
            lambda y, x: (1.0 - np.hypot(x, y))
            if np.hypot(x - 0.5, y) < ball.radius else 0.0,
            0.5 - ball.radius, 0.5 + ball.radius,
            -ball.radius, ball.radius)
        mu = DiscPushforward(identity_map, density=WEIGHTED, p=2.0, seed=5)
        mass, err = mu.measure_ball(ball, n=20000)
        assert mass == pytest.approx(exact, rel=0.05)


class TestBallFamily:
    def test_family_layout(self):
        fam = make_ball_family(range(1, 4), angles=8)
        assert len(fam) == 24
        ks = sorted({k for k, _ in fam})
        assert ks == [1, 2, 3]
        for k, ball in fam:
            assert abs(ball.center) == pytest.approx(1 - 2.0 ** -k)
            assert ball.ratio == 0.5


class TestSweeps:
    def test_bergman_identity_near_one(self, identity_map):
        mu = DiscPushforward(identity_map, seed=42)
        sweep = bergman_carleson_constant(
            mu, family=make_ball_family(range(1, 9), angles=8), n=2048)
        assert abs(sweep.sup - 1.0) <= max(4 * sweep.stderr_max, 0.08)

    def test_bergman_requires_lebesgue(self, identity_map):
        mu = DiscPushforward(identity_map, density=WEIGHTED)
        with pytest.raises(ValueError):
            bergman_carleson_constant(mu)

    def test_luecking_requires_weighted(self, identity_map):
        mu = DiscPushforward(identity_map)
        with pytest.raises(ValueError):
            luecking_constant(mu)
        mu2 = DiscPushforward(identity_map, density=WEIGHTED, p=1.0)
        with pytest.raises(ValueError):
            luecking_constant(mu2)

    def test_bergman_growth_separates_maps(self, thm2_map, pow2_map):
        fam = make_ball_family(range(1, 9), angles=4)
        good = bergman_carleson_constant(DiscPushforward(thm2_map, seed=42),
                                         family=fam, n=1024)
        bad = bergman_carleson_constant(DiscPushforward(pow2_map, seed=42),
                                        family=fam, n=1024)
        g_growth = good.per_ring[8] / good.per_ring[4]
        b_growth = bad.per_ring[8] / bad.per_ring[4]
        assert g_growth < 2.0
        assert b_growth > 3.0


class TestKernelRatio:
    def test_identity_exact(self, identity_map):
        for w in (0.5, 0.9, 0.99):
            assert kernel_ratio(identity_map, w) == pytest.approx(1.0, abs=1e-8)

    def test_rotation_invariance_identity(self, identity_map):
        a = kernel_ratio(identity_map, 0.9)
        b = kernel_ratio(identity_map, 0.9 * np.exp(2.1j))
        assert a == pytest.approx(b, abs=1e-8)

    def test_validation(self, identity_map):
        with pytest.raises(ValueError):
            kernel_ratio(identity_map, 1.0)

    def test_sqrt_map_bounded(self, thm2_map):
        vals = [kernel_ratio(thm2_map, 1 - 2.0 ** -k) for k in range(2, 11)]
        assert max(vals) / vals[0] < 2.0

    def test_power2_grows(self, pow2_map):
        vals = [kernel_ratio(pow2_map, 1 - 2.0 ** -k) for k in (4, 8, 12)]
        assert vals[1] > 2 * vals[0]
        assert vals[2] > 2 * vals[1]


class TestOperatorProxy:
    def test_identity_ratio_one(self, identity_map):
        proxy = operator_bound_proxy(identity_map, 2.0, k_max=6, radial_depth=16)
        assert proxy.sup == pytest.approx(1.0, abs=1e-3)
        assert proxy.bounded()

    def test_sqrt_map_bounded(self, thm2_map):
        proxy = operator_bound_proxy(thm2_map, 2.0, k_max=8, radial_depth=16)
        assert proxy.bounded()
        assert np.isfinite(proxy.sup)

    def test_power2_unbounded(self, pow2_map):
        proxy = operator_bound_proxy(pow2_map, 2.0, k_max=8, radial_depth=16)
        assert not proxy.bounded()
        assert proxy.ratios[-1] > 2 * proxy.ratios[-3]

    @pytest.mark.parametrize("spec", ["thm2_sqrt", "power:2"])
    def test_ratios_equal_the_direct_loop(self, spec):
        phi = make_disc_map(spec)
        proxy = operator_bound_proxy(phi, 2.0, k_max=4, radial_depth=12)
        ref = []
        for w in proxy.ws:
            g = hardy_kernel(w, 2.0)
            num = hardy_norm(compose(g, phi), 2.0, k_max=12).value ** 2.0
            den = hardy_norm(g, 2.0, k_max=12).value ** 2.0
            ref.append(num / den)
        assert proxy.ratios == tuple(ref)

    @pytest.mark.parametrize("spec", ["thm2_sqrt", "power:2"])
    def test_each_batch_reaches_the_map_once(self, spec):
        phi = make_disc_map(spec)
        ba = phi.interior
        batches = Counter()

        def counting(z):
            batches[(z.shape, z.tobytes())] += 1
            return ba(z)

        phi.interior = counting
        operator_bound_proxy(phi, 2.0, k_max=4, radial_depth=12)
        assert phi.interior is counting
        assert batches and max(batches.values()) == 1

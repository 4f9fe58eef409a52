from collections import Counter

import numpy as np
import pytest

from qchardy import carleson
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


def _moebius_preimage_area(a, ball):
    """Area of the disc T(B), T(w) = (w + a) / (1 + a w) the inverse of
    moebius:a: its center is the image of the point symmetric to T's pole
    -1/a in the rim of B."""
    def t(w):
        return (w + a) / (1.0 + a * w)

    c, r = ball.center, ball.radius
    sym = c + r * r / np.conj(-1.0 / a - c)
    return np.pi * abs(t(c + r) - t(sym)) ** 2


def _cli_sweep(spec, density):
    mu = DiscPushforward(make_disc_map(spec), density=density, p=2.0)
    sweep = bergman_carleson_constant if density == LEBESGUE else luecking_constant
    return sweep(mu, family=make_ball_family(range(1, 11), angles=8))


class TestDiscPushforward:
    def test_identity_lebesgue_mass(self, identity_map):
        ball = HyperbolicBall(center=0.5, ratio=0.5)
        mass, err = DiscPushforward(identity_map).measure_ball(ball)
        assert mass == pytest.approx(ball.area, rel=1e-13)
        assert err < 1e-13 * mass

    @pytest.mark.parametrize("spec, rel", [("identity", 1e-10),
                                           ("moebius:0.5", 1e-10),
                                           ("moebius:0.99", 1e-3)])
    def test_lebesgue_mass_is_the_preimage_area(self, spec, rel):
        mu = DiscPushforward(make_disc_map(spec))
        a = float(spec.split(":")[1]) if ":" in spec else 0.0
        for _, ball in make_ball_family(range(1, 11), angles=8):
            exact = _moebius_preimage_area(a, ball) if a else ball.area
            assert mu.measure_ball(ball)[0] == pytest.approx(exact, rel=rel)

    def test_deterministic(self, thm2_map):
        ball = HyperbolicBall(center=0.75 * 1j, ratio=0.5)
        assert DiscPushforward(thm2_map).measure_ball(ball) == \
            DiscPushforward(make_disc_map("thm2_sqrt")).measure_ball(ball)

    def test_monotone_in_ball(self, thm2_map):
        mu = DiscPushforward(thm2_map)
        small = HyperbolicBall(center=0.5, ratio=0.25)
        big = HyperbolicBall(center=0.5, ratio=0.5)
        assert mu.measure_ball(small)[0] < mu.measure_ball(big)[0]

    def test_weighted_identity_against_quadrature(self, identity_map):
        # identity symbol, p = 2: mu(B) = int_B (1-|z|) dm, and the circle
        # |z| = r meets the ball D(c, R) in an arc of angle 2 arccos(...)
        from scipy.integrate import quad
        ball = HyperbolicBall(center=0.5, ratio=0.5)
        c, r_b = 0.5, ball.radius

        def arc_angle(r):
            return 2.0 * np.arccos(np.clip((r * r + c * c - r_b * r_b)
                                           / (2.0 * c * r), -1.0, 1.0))

        exact, _ = quad(lambda r: (1.0 - r) * r * arc_angle(r), c - r_b,
                        c + r_b, epsabs=0.0, epsrel=1e-13)
        mu = DiscPushforward(identity_map, density=WEIGHTED, p=2.0)
        mass, _ = mu.measure_ball(ball)
        assert mass == pytest.approx(exact, rel=1e-7)  # measured 1.4e-8

    def test_error_is_the_distance_to_the_half_angle_rule(self, thm2_map,
                                                           monkeypatch):
        mu = DiscPushforward(thm2_map, density=WEIGHTED, p=2.0)
        ball = HyperbolicBall(center=0.9 * np.exp(0.3j), ratio=0.5)
        mass, err = mu.measure_ball(ball)
        nodes, weights = carleson._BALL_RULE
        monkeypatch.setattr(carleson, "_BALL_RULE",
                            (nodes[:, ::2], 2.0 * weights[:, ::2]))
        coarse, _ = mu.measure_ball(ball)
        assert err > 0
        assert err == pytest.approx(abs(mass - coarse), rel=1e-9)

    @pytest.mark.parametrize("spec, density", [("thm2_sqrt", LEBESGUE),
                                               ("power:2", LEBESGUE),
                                               ("thm2_sqrt", WEIGHTED)])
    def test_ring_maxima_against_a_finer_rule(self, spec, density, monkeypatch):
        sweep = _cli_sweep(spec, density)
        monkeypatch.setattr(carleson, "_BALL_RULE", carleson._polar_rule(16, 32))
        ref = _cli_sweep(spec, density)
        assert sweep.per_ring.keys() == ref.per_ring.keys()
        for k, val in ref.per_ring.items():
            assert sweep.per_ring[k] == pytest.approx(val, rel=5e-3)


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
        sweep = bergman_carleson_constant(
            DiscPushforward(identity_map),
            family=make_ball_family(range(1, 9), angles=8))
        assert sweep.sup == pytest.approx(1.0, abs=1e-12)
        assert sweep.error_max < 1e-12

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
        good = bergman_carleson_constant(DiscPushforward(thm2_map), family=fam)
        bad = bergman_carleson_constant(DiscPushforward(pow2_map), family=fam)
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

import numpy as np
import pytest

from qchardy import carleson
from qchardy.boundary import lipschitz_modulus_inverse
from qchardy.carleson import (
    LEBESGUE,
    WEIGHTED,
    DiscPushforward,
    bergman_carleson_constant,
    kernel_carleson,
    kernel_ratio,
    luecking_constant,
    make_ball_family,
    operator_bound_proxy,
)
from qchardy.extension import invert, make_disc_map, norm_and_jacobian
from qchardy.functionals import hardy_norm
from qchardy.functions import compose, hardy_kernel
from qchardy.geometry import HyperbolicBall
from qchardy.quadrature import (BALL_RULE, TWO_PI, WORK, _polar_rule,
                                circle_means, node_batches, wrap_angle)
from qchardy.tail import CONVERGED, DIVERGING, UNDETERMINED, classify_tail


def _batched_masses(mu, balls):
    """Reference (mass, error) pairs of the balls, computed as a sweep did
    before DiscPushforward._masses took whole families: the centers
    inverted in one run and their jets passed on, the nodes inverted one
    node_batches batch of 64 balls per run, and each ball summed alone."""
    nodes, weights = BALL_RULE
    zcs, (_, dzs, dzbs) = invert(mu.phi, np.array([ball.center for ball in balls]))
    out = []
    for first, stop in node_batches([nodes.size] * len(balls)):
        block = balls[first:stop]
        radius = np.array([ball.radius for ball in block])[:, None, None]
        center = np.array([ball.center for ball in block])[:, None, None]
        zc, dz, dzb = (a[first:stop, None, None] for a in (zcs, dzs, dzbs))
        dw = radius * nodes
        seed = zc + ((np.conj(dz) * dw - dzb * np.conj(dw))
                     / norm_and_jacobian(dz, dzb)[1])
        z, (_, dz, dzb) = invert(mu.phi, center + dw, z0=seed)
        op, jac = norm_and_jacobian(dz, dzb)
        with np.errstate(over="ignore", invalid="ignore"):
            rho = (1.0 if mu.density == LEBESGUE
                   else op ** mu.p * (1.0 - np.abs(z)) ** (mu.p - 1.0))
        for ball, vals in zip(block, weights * rho / jac):
            mass = ball.radius ** 2 * float(np.sum(vals))
            coarse = ball.radius ** 2 * 2.0 * float(np.sum(vals[:, ::2]))
            out.append((mass, abs(mass - coarse)))
    return out


def _pushforward_mass(h, a, b):
    """Normalized length |h^{-1}([a, b])| / (2 pi) of the preimage arc."""
    return float(h.inverse(np.asarray(b)) - h.inverse(np.asarray(a))) / (2 * np.pi)


class TestBoundaryPushforward:
    """The boundary pushforward of normalized arc length, read off the
    closed-form inverses that the boundary Carleson constant uses."""

    @pytest.mark.parametrize("label", ["identity", "moebius(0.5)", "thm2_sqrt",
                                       "power(2)"])
    def test_total_mass_one(self, label, catalog_maps):
        h = catalog_maps[label].boundary
        assert _pushforward_mass(h, -np.pi, np.pi) == pytest.approx(1.0, abs=1e-12)

    def test_sqrt_map_interval_closed_form(self, thm2_map):
        # preimage of [0, s] under alpha(t) = sqrt(pi t) is [0, s^2/pi]
        s = 1.2
        assert _pushforward_mass(thm2_map.boundary, 0.0, s) == pytest.approx(
            s * s / np.pi / (2 * np.pi), abs=1e-12)


class TestBoundaryCarleson:
    """The boundary Carleson constant at depth d is the sup over dyadic arcs
    I of mu(I) / (|I| / 2 pi), which lipschitz_modulus_inverse computes."""

    def test_matches_lipschitz_modulus(self, thm2_map, pow2_map):
        for phi in (thm2_map, pow2_map):
            h = phi.boundary
            consts = []
            for d in range(1, 9):
                edges = np.linspace(-np.pi, np.pi, 2 ** (d + 1) + 1)
                width = np.pi * 2.0 ** (-d) / (2 * np.pi)
                consts.append(max(_pushforward_mass(h, a, b) / width
                                  for a, b in zip(edges[:-1], edges[1:])))
            assert np.allclose(lipschitz_modulus_inverse(h, 8), consts,
                               rtol=1e-12, atol=0.0)

    def test_identity_all_ones(self, identity_map):
        consts = lipschitz_modulus_inverse(identity_map.boundary, 6)
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
        nodes, weights = carleson.BALL_RULE
        monkeypatch.setattr(carleson, "BALL_RULE",
                            (nodes[:, ::2], 2.0 * weights[:, ::2]))
        coarse, _ = mu.measure_ball(ball)
        assert err > 0
        assert err == pytest.approx(abs(mass - coarse), rel=1e-9)

    @pytest.mark.parametrize("spec, density", [("thm2_sqrt", LEBESGUE),
                                               ("power:2", LEBESGUE),
                                               ("thm2_sqrt", WEIGHTED)])
    def test_ring_maxima_against_a_finer_rule(self, spec, density, monkeypatch):
        sweep = _cli_sweep(spec, density)
        monkeypatch.setattr(carleson, "BALL_RULE", _polar_rule(16, 32))
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

    @pytest.mark.parametrize("angles", [8, 5])
    def test_rings_match_the_scalar_loop(self, angles):
        # the loop make_ball_family ran, one wrap_angle and np.exp a ball
        want = []
        for k in range(1, 17):
            rad = 1.0 - 2.0 ** -k
            for j in range(angles):
                t = wrap_angle(-np.pi + TWO_PI * j / angles)
                want.append((k, HyperbolicBall(center=rad * np.exp(1j * t))))
        got = make_ball_family(range(1, 17), angles)
        assert [k for k, _ in got] == [k for k, _ in want]
        for attribute in ("center", "radius", "area"):
            assert (np.array([getattr(b, attribute) for _, b in got]).tobytes()
                    == np.array([getattr(b, attribute) for _, b in want]).tobytes())


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
            bergman_carleson_constant(mu, make_ball_family(range(1, 3), 4))

    def test_luecking_requires_weighted(self, identity_map):
        fam = make_ball_family(range(1, 3), 4)
        mu = DiscPushforward(identity_map)
        with pytest.raises(ValueError):
            luecking_constant(mu, fam)
        mu2 = DiscPushforward(identity_map, density=WEIGHTED, p=1.0)
        with pytest.raises(ValueError):
            luecking_constant(mu2, fam)

    def test_bergman_growth_separates_maps(self, thm2_map, pow2_map):
        fam = make_ball_family(range(1, 9), angles=4)
        good = bergman_carleson_constant(DiscPushforward(thm2_map), family=fam)
        bad = bergman_carleson_constant(DiscPushforward(pow2_map), family=fam)
        g_growth = good.per_ring[8] / good.per_ring[4]
        b_growth = bad.per_ring[8] / bad.per_ring[4]
        assert g_growth < 2.0
        assert b_growth > 3.0

    @pytest.mark.parametrize("spec, density", [("thm2_sqrt", LEBESGUE),
                                               ("thm2_sqrt", WEIGHTED),
                                               ("power:2", LEBESGUE),
                                               ("moebius:0.5", LEBESGUE)])
    def test_blocked_sweep_matches_one_ball_calls(self, spec, density,
                                                  monkeypatch):
        mu = DiscPushforward(make_disc_map(spec), density=density, p=2.0)
        if density == LEBESGUE:
            tester, normalize = bergman_carleson_constant, lambda b: b.area
        else:
            tester, normalize = luecking_constant, lambda b: b.radius ** 3.0
        lanes = []

        def counting(phi, w, **kwargs):
            lanes.append(np.size(w))
            return invert(phi, w, **kwargs)

        # rings 1-10 (80 balls) and the one-ring family that a sweep's
        # escalation reads: one Newton run of centers, one of nodes
        for family, runs in ((make_ball_family(range(1, 11), angles=8),
                              [80, 10240]),
                             (make_ball_family([11], angles=8), [8, 1024])):
            per_ring, ring_error, worst = {}, {}, 0.0
            for k, ball in family:
                mass, err = mu.measure_ball(ball)
                norm = normalize(ball)
                worst = max(worst, err / norm)
                if mass / norm > per_ring.get(k, -np.inf):
                    per_ring[k], ring_error[k] = mass / norm, err / norm
            lanes.clear()
            with monkeypatch.context() as m:
                m.setattr(carleson, "invert", counting)
                sweep = tester(mu, family)
            assert lanes == runs
            assert sweep.per_ring == per_ring
            assert sweep.ring_error == ring_error
            assert sweep.error_max == worst

    @pytest.mark.parametrize("spec, density, p", [("thm2_sqrt", LEBESGUE, 2.0),
                                                  ("thm2_sqrt", WEIGHTED, 2.0),
                                                  ("thm2_sqrt", WEIGHTED, 3.0),
                                                  ("power:2", LEBESGUE, 2.0),
                                                  ("moebius:0.5", LEBESGUE, 2.0)])
    def test_masses_are_bitwise_the_batched_reference(self, spec, density, p):
        # rings 1-10 hold 80 balls, more than the reference's batch of 64
        mu = DiscPushforward(make_disc_map(spec), density=density, p=p)
        if density == LEBESGUE:
            tester, normalize = bergman_carleson_constant, lambda b: b.area
        else:
            tester, normalize = luecking_constant, lambda b: b.radius ** (1.0 + p)

        def bits(*values):
            return [np.float64(v).tobytes() for v in values]

        for family in (make_ball_family(range(1, 11), angles=8),
                       make_ball_family([11], angles=8)):
            balls = [ball for _, ball in family]
            ref_mass, ref_error = zip(*_batched_masses(mu, balls))
            mass, error = mu._masses(balls)
            assert bits(*mass) == bits(*ref_mass)
            assert bits(*error) == bits(*ref_error)
            per_ring, ring_error, worst = {}, {}, 0.0
            for (k, ball), m, e in zip(family, ref_mass, ref_error):
                norm = normalize(ball)
                worst = max(worst, e / norm)
                if m / norm > per_ring.get(k, -np.inf):
                    per_ring[k], ring_error[k] = m / norm, e / norm
            sweep = tester(mu, family)
            assert list(sweep.per_ring) == list(per_ring)
            assert bits(*sweep.per_ring.values()) == bits(*per_ring.values())
            assert bits(*sweep.ring_error.values()) == bits(*ring_error.values())
            assert bits(sweep.error_max) == bits(worst)


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


def _per_circle_kernel_terms(phi, ws):
    """The former _kernel_terms: every direction pulled back and every
    circle's nodes mapped on their own."""
    wb = np.conj(np.asarray(ws, dtype=complex))

    def fn(t, circle):
        return np.abs(1.0 - wb[circle] * phi.boundary.map_point(t)) ** -2.0

    marks = [((float(phi.boundary.inverse(np.asarray(np.angle(w)))), 1e-12),)
             if w != 0 else () for w in ws]
    even = phi.symmetric and not wb.imag.any()
    return [((1.0 - abs(w) ** 2) * val, (1.0 - abs(w) ** 2) * err, w)
            for w, (val, err) in zip(ws, circle_means(fn, marks, even=even))]


class TestKernelTerms:
    MAPS = ["identity", "thm2_sqrt", "power:2", "moebius:0.5", "moebius:-0.9"]
    REAL = [1.0 - 2.0 ** -k for k in range(1, 17)]

    def _mapped(self, monkeypatch, phi):
        """Sizes of the node arrays that phi's boundary map is called on."""
        sizes = []
        map_point = phi.boundary.map_point

        def counted(t):
            sizes.append(np.size(t))
            return map_point(t)
        monkeypatch.setattr(phi.boundary, "map_point", counted)
        return sizes

    @pytest.mark.parametrize("spec", MAPS)
    def test_real_ws_map_one_circle_a_batch(self, monkeypatch, spec):
        # one shared mark: each batch maps the nodes of one circle
        phi = make_disc_map(spec)
        former = _per_circle_kernel_terms(phi, self.REAL)
        sizes = self._mapped(monkeypatch, phi)
        before = WORK["circle_panels"]
        assert list(carleson._kernel_terms(phi, self.REAL)) == former
        panels = WORK["circle_panels"] - before
        assert len(sizes) > 1 and len(set(sizes)) == 1
        assert sizes[0] * len(self.REAL) == 16 * panels

    @pytest.mark.parametrize("spec", MAPS)
    @pytest.mark.parametrize("ws", [
        [0.9 * np.exp(1j * t) for t in np.linspace(-3.0, 3.0, 12)],
        [0.5, -0.5, 0.0, 0.9, -0.99, 0.9]], ids=["complex", "mixed"])
    def test_distinct_marks_map_every_node(self, monkeypatch, spec, ws):
        phi = make_disc_map(spec)
        former = _per_circle_kernel_terms(phi, ws)
        sizes = self._mapped(monkeypatch, phi)
        before = WORK["circle_panels"]
        assert list(carleson._kernel_terms(phi, ws)) == former
        panels = WORK["circle_panels"] - before
        assert sum(sizes) == 16 * panels  # every node mapped


class TestRingTails:
    def test_ring_error_is_that_of_the_largest_ball(self, thm2_map):
        mu = DiscPushforward(thm2_map)
        family = make_ball_family(range(3, 5), angles=4)
        sweep = bergman_carleson_constant(mu, family)
        for k in (3, 4):
            balls = [ball for j, ball in family if j == k]
            best = max((mu.measure_ball(ball) for ball in balls),
                       key=lambda mass_err: mass_err[0])
            area = balls[0].area
            assert sweep.per_ring[k] == best[0] / area
            assert sweep.ring_error[k] == best[1] / area
        assert list(sweep.ring_error) == [3, 4]

    def test_moebius_0999_rings_are_not_diverging(self):
        # rho = 9.26, 6.48, 4.08 at ring 10: still above 1, but its changes
        # shrink toward an Aitken limit far below 1, so undetermined
        sweep = bergman_carleson_constant(
            DiscPushforward(make_disc_map("moebius:0.999")),
            make_ball_family(range(1, 11), angles=8))
        ratios = list(sweep.per_ring.values())
        d = np.diff(ratios)
        assert d[-3:] / d[-4:-1] == pytest.approx([9.26, 6.48, 4.08], abs=0.01)
        verdict, reason = classify_tail(ratios, list(sweep.ring_error.values()))
        assert verdict == UNDETERMINED and "Aitken" not in reason


class TestKernelCarleson:
    @pytest.mark.parametrize("a", [0.5, 0.99, 0.999])
    def test_moebius_closed_form(self, a):
        # the pushforward of arclength under a disc automorphism is the
        # Poisson measure at phi(0) = -a, and (1 - w^2) |1 - w zeta|^-2 is
        # the Poisson kernel at w, so the ratio is the Poisson integral of
        # P_w at -a: (1 - a^2 w^2) / (1 + a w)^2
        phi = make_disc_map(f"moebius:{a}")
        test = kernel_carleson(phi, 16)
        ratios, errors, w = (np.asarray(c) for c in zip(*test.samples))
        exact = (1.0 - a * a * w * w) / (1.0 + a * w) ** 2
        err = np.abs(ratios - exact)
        assert len(w) == 16
        assert np.all(err <= 1e-11 * exact)
        assert np.all(errors >= err)
        assert test.value == max(ratios)
        # the first 16 are one batched stage, each bitwise a one-point call
        assert list(ratios) == [kernel_ratio(phi, x) for x in w]

    @pytest.mark.parametrize("spec", ["identity", "thm2_sqrt", "power:0.5",
                                      "power:1.05", "power:2", "moebius:0.5",
                                      "moebius:0.99", "moebius:0.999"])
    def test_within_the_radial_proxy(self, spec):
        # the kernel ratio is the radial proxy's boundary limit; where the
        # radial sup is reached inside the disc (thm2_sqrt at w_1) it reads
        # up to 2.3% lower
        phi = make_disc_map(spec)
        ratio = (kernel_carleson(phi, 10).value
                 / operator_bound_proxy(phi, 2.0, k_max=10).sup)
        assert 0.975 <= ratio <= 1.0 + 1e-6

    def test_reads_deeper_while_undetermined(self, thm2_map):
        test = kernel_carleson(thm2_map, 2)
        verdict, reason, k = test.classification, test.reason, test.at
        ratios, errors, _ = zip(*test.samples)
        assert k == len(ratios) > 2 and verdict == CONVERGED
        assert (verdict, reason) == classify_tail(ratios, errors)
        assert test.value == max(ratios[:2])
        assert test.samples == kernel_carleson(thm2_map, k).samples


class TestOperatorProxy:
    def test_moebius_proxy_decreasing_reads_bounded(self, moebius_map):
        # past k = 11 the ratios fall, faster at each step (rho about 1.9):
        # the sup is already in hand, so the tail is converged
        proxy = operator_bound_proxy(moebius_map, 2.0, k_max=16)
        d = np.diff(proxy.ratios)
        assert np.all(d[-3:] < 0)
        assert d[-1] / d[-2] == pytest.approx(1.9, abs=0.1)
        assert classify_tail(proxy.ratios, proxy.errors) == (
            CONVERGED, "last 3 increments <= 0")
        assert proxy.bounded()

    def test_errors_carry_the_norm_errors(self, thm2_map):
        proxy = operator_bound_proxy(thm2_map, 2.0, k_max=4)
        w = proxy.ws[-1]
        g = hardy_kernel(w, 2.0)
        num = hardy_norm(compose(g, thm2_map), 2.0)
        den = hardy_norm(g, 2.0)
        rel = 2.0 * (num.error / num.value + den.error / den.value)
        assert proxy.errors[-1] == pytest.approx(proxy.ratios[-1] * rel, rel=1e-12)
        assert 0 < proxy.errors[-1] < 1e-6 * proxy.ratios[-1]


    def test_identity_ratio_one(self, identity_map):
        proxy = operator_bound_proxy(identity_map, 2.0, k_max=6)
        assert proxy.sup == pytest.approx(1.0, abs=1e-3)
        assert proxy.bounded()

    def test_sqrt_map_bounded(self, thm2_map):
        proxy = operator_bound_proxy(thm2_map, 2.0, k_max=8)
        assert proxy.bounded()
        assert np.isfinite(proxy.sup)

    def test_power2_unbounded(self, pow2_map):
        proxy = operator_bound_proxy(pow2_map, 2.0, k_max=8)
        assert not proxy.bounded()
        assert classify_tail(proxy.ratios, proxy.errors)[0] == DIVERGING
        assert proxy.ratios[-1] > 2 * proxy.ratios[-3]

    @pytest.mark.parametrize("spec", ["thm2_sqrt", "power:2"])
    def test_ratios_approach_the_kernel_ratio(self, spec):
        # the proxy integrates Beurling-Ahlfors composites inside the disc,
        # kernel_ratio only the boundary map, and the first tends to the
        # second as the radial schedule reaches the circle: at 24 radii the
        # two agree within 2.9e-6 relative for k <= 4, except at k = 1 on
        # thm2_sqrt, whose radial sup is reached at an interior radius, 2.30%
        # above the boundary limit
        phi = make_disc_map(spec)
        proxy = operator_bound_proxy(phi, 2.0, k_max=4)
        kernel = np.array([kernel_ratio(phi, w) for w in proxy.ws])
        rel = np.array(proxy.ratios) / kernel - 1.0
        if spec == "thm2_sqrt":
            assert rel[0] == pytest.approx(0.023, abs=1e-3)
            rel = rel[1:]
        assert np.all(np.abs(rel) <= 1e-5)

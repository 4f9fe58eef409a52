from itertools import islice

import numpy as np
import pytest

from qchardy import functionals
from qchardy.extension import make_disc_map
from qchardy.functionals import (
    CONVERGED,
    DIVERGING,
    UNDETERMINED,
    _xi_grid,
    area_integral,
    average_derivative,
    boundary_lp_norm,
    classify_tail,
    hardy_norm,
    integral_mean,
    maximal_lp,
    nt_maximal,
    radial_schedule,
)
from qchardy.functions import (
    AnalyticFunction,
    cauchy_kernel,
    compose,
    hardy_kernel,
)
from qchardy.geometry import Cone, cone_angular_halfwidth
from qchardy.quadrature import TWO_PI, circle_mean, gauss_legendre


def _constant(c):
    return AnalyticFunction(lambda z: np.full_like(z, c), np.zeros_like)


# f(z) = z
_IDENTITY = AnalyticFunction(lambda z: z, np.ones_like)


def _five_angles(r, scale):
    """Reference marks on |z| = r for a kernel singular at 0 composed with a
    BA symbol whose cusp is at 0: angle 0 at the given scale, and the four
    kinks sin t = +-(1 - r^2)/2r at 0.1 (1 - r) where they exist."""
    marks = [(0.0, scale)]
    v = (1.0 - r) * (1.0 + r) / (2.0 * r)
    if v < 1.0:
        s = np.arcsin(v)
        marks += [(t, 0.1 * (1.0 - r)) for t in (s, -s, np.pi - s, s - np.pi)]
    return marks


def _nt_maximal_loop(f, xi, aperture=2.0, budget=96):
    """Reference: the maximal function at one vertex, one call of f per depth."""
    cone = Cone(vertex=xi, aperture=aperture)
    n_depths = 12
    level = max(0, int(np.floor(np.log2(max(budget, n_depths) / n_depths))))
    t0 = float(np.angle(xi))
    best = 0.0
    ks = np.arange(-2 ** level, 2 ** level + 1)
    for j in range(1, n_depths + 1):
        d = 1.0 - 2.0 ** -j
        half = cone_angular_halfwidth(cone, d) * (1.0 - 1e-9)
        z = d * np.exp(1j * (t0 + half * ks / 2.0 ** level))
        best = max(best, float(np.max(np.abs(f(z)))))
    return best


class TestClassifyMeans:
    """classify_tail on synthetic sequences like those hardy_norm and
    area_integral classify: means along r_k = 1 - 2^-k and partial sums."""

    def test_flat_sequence_converged(self):
        assert classify_tail([1.0] * 10, 0.0)[0] == CONVERGED

    def test_decaying_converged(self):
        # increments halve: rho = 0.5
        verdict, reason = classify_tail(2.0 - 2.0 ** -np.arange(10), 0.0)
        assert verdict == CONVERGED and "0.5, 0.5, 0.5" in reason

    def test_geometric_growth_diverging(self):
        assert classify_tail(2.0 ** np.arange(12), 0.0)[0] == DIVERGING

    def test_log_growth_diverging(self):
        # equal increments, as log(1/(1-r_k)) = k log 2 gives: rho = 1
        assert classify_tail(np.arange(1, 25, dtype=float), 0.0)[0] == DIVERGING

    def test_power_growth_diverging(self):
        # m_k = k^2: rho = (2k + 1)/(2k - 1) falls toward 1 with shrinking steps
        k = np.arange(1, 25, dtype=float)
        verdict, reason = classify_tail(k ** 2, 0.0)
        assert verdict == DIVERGING and "Aitken" in reason

    def test_nonfinite_diverging(self):
        assert classify_tail([1.0, 2.0, np.inf], 0.0) == (DIVERGING,
                                                         "non-finite term")

    def test_zero_tail_converged(self):
        assert classify_tail([0.0] * 6, 0.0)[0] == CONVERGED

    def test_short_noisy_sequence_undetermined(self):
        assert classify_tail([1.0, 1.5, 1.0, 1.5], 0.0)[0] == UNDETERMINED
        assert classify_tail([1.0, 2.0, 3.0], 0.0)[0] == UNDETERMINED

    def test_flat_with_rounding_noise(self):
        rng = np.random.default_rng(3)
        m = 2.0 * (1.0 + 4e-16 * rng.standard_normal(12))
        # without errors the noise reads as a tail of its own
        assert classify_tail(m, 0.0)[0] != CONVERGED
        verdict, reason = classify_tail(m, 4 * np.finfo(float).eps * m)
        assert verdict == CONVERGED and "within error" in reason

    def test_decreasing_converged(self):
        # a decreasing sup is settled even though |rho| > 1
        m = 1.0 - 0.1 * 1.9 ** np.arange(8)
        assert classify_tail(m, 0.0) == (CONVERGED, "last 3 increments <= 0")

    def test_rho_falling_faster_each_step_undetermined(self):
        # rho = 4, 3, 1.5: each change larger than the last
        d = np.cumprod([1.0, 2.0, 4.0, 3.0, 1.5])
        assert classify_tail(np.cumsum(d), 0.0)[0] == UNDETERMINED


class TestIntegralMean:
    def test_at_origin(self):
        g = hardy_kernel(0.5, 2.0)
        val, err = integral_mean(g, 0.0, 2.0)
        assert val == pytest.approx(1.0) and err == 0.0

    def test_constant(self):
        val, _ = integral_mean(_constant(3.0), 0.7, 2.0)
        assert val == pytest.approx(9.0, rel=1e-10)

    def test_monomial_mean(self):
        # mean of |z|^2 on the circle of radius r is r^2
        val, _ = integral_mean(_IDENTITY, 0.6, 2.0)
        assert val == pytest.approx(0.36, rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            integral_mean(_IDENTITY, 1.0, 2.0)

    def test_cauchy_mean_against_adaptive_quadrature(self):
        # oracle: |1 - r e^{it}|^2 = (1-r)^2 + 4 r sin^2(t/2)
        from scipy.integrate import quad
        g = cauchy_kernel()
        for r in (0.9, 0.999, 1 - 1e-6):
            val, _ = integral_mean(g, r, 1.0)
            exact = quad(
                lambda t, r=r: ((1 - r) ** 2 + 4 * r * np.sin(t / 2) ** 2) ** -0.5,
                0, np.pi, limit=500)[0] / np.pi
            assert val == pytest.approx(exact, rel=1e-6)

    def test_cauchy_mean_log_asymptotic(self):
        # pi M_1(r) = log(8/d) + O(d log(1/d)) with d = 1-r; the remainder is
        # about (d/2)(log(8/d) - 1), e.g. 0.028 at d = 1e-2. Checked against
        # the two-term asymptotic within 1%
        eps = 1e-6
        val, _ = integral_mean(cauchy_kernel(), 1 - eps, 1.0)
        assert val == pytest.approx(np.log(8.0 / eps) / np.pi, rel=0.01)

    def test_composite_means_against_order_48_reference(self, thm2_map,
                                                        pow2_map):
        # every mean along the schedule within 1e-9 of an order-48 rule at
        # the five angles, and never more than its own error estimate off
        cases = ((thm2_map, ((cauchy_kernel(), 1.0), (hardy_kernel(0.9, 2.0), 2.0))),
                 (pow2_map, ((hardy_kernel(0.99, 2.0), 2.0),)))
        for phi, kernels in cases:
            for r in radial_schedule():
                images = {}

                def image(t, phi=phi, r=r, images=images):
                    key = t.tobytes()
                    if key not in images:
                        images[key] = phi(r * np.exp(1j * t))
                    return images[key]

                for g, p in kernels:
                    ref, _ = circle_mean(lambda t: np.abs(g(image(t))) ** p,
                                         _five_angles(r, 1e-10), order=48)
                    val, err = integral_mean(compose(g, phi), r, p)
                    assert abs(val - ref) <= 1e-9 * ref, (g.label, r)
                    assert err >= abs(val - ref), (g.label, r)


class TestHardyNorm:
    def test_kernel_norm_closed_form(self):
        # ||(1 - wbar z)^{-2/p}||^p = 1/(1 - |w|^2) for p in {1, 2}
        for p in (1.0, 2.0):
            for w in (0.5, 0.9):
                est = hardy_norm(hardy_kernel(w, p), p)
                assert est.classification == CONVERGED
                assert est.value ** p * (1 - w * w) == pytest.approx(1.0, rel=1e-4)

    def test_cauchy_diverges_in_h1(self):
        est = hardy_norm(cauchy_kernel(), 1.0)
        assert est.classification == DIVERGING

    def test_cauchy_h1_rho_tends_to_one_from_above(self):
        # log growth: rho - 1 is about 1.2e-6, then 6.4e-7, at the last radii,
        # a tail that must read diverging although rho heads toward 1
        est = hardy_norm(cauchy_kernel(), 1.0)
        d = np.diff([m for _, m in est.samples])
        rho = d[1:] / d[:-1]
        assert np.all((rho[-3:] > 1.0) & (rho[-3:] < 1.0 + 3e-6))
        assert np.all(np.diff(rho[-3:]) < 0)
        assert est.classification == DIVERGING and "Aitken" in est.reason
        assert est.why == (est.reason, 24)

    def test_swallowed_error_has_a_reason(self, monkeypatch):
        calls = []

        def failing(f, r, p):
            calls.append(r)
            if len(calls) == 3:
                raise FloatingPointError("overflow")
            return 1.0, 0.0

        monkeypatch.setattr(functionals, "integral_mean", failing)
        est = hardy_norm(cauchy_kernel(), 1.0)
        assert est.classification == UNDETERMINED and np.isnan(est.value)
        assert est.reason == "FloatingPointError at k = 3: overflow"
        assert len(est.samples) == 2

    def test_cauchy_converges_in_h_half(self):
        est = hardy_norm(cauchy_kernel(), 0.5)
        assert est.classification == CONVERGED
        assert np.isfinite(est.value)

    def test_means_nondecreasing_in_radius(self):
        est = hardy_norm(hardy_kernel(0.8, 2.0), 2.0)
        means = [m for _, m in est.samples]
        assert np.all(np.diff(means) >= -1e-12)

    def test_composite_with_identity_matches_analytic(self, identity_map):
        g = hardy_kernel(0.7, 2.0)
        direct = hardy_norm(g, 2.0)
        composed = hardy_norm(compose(g, identity_map), 2.0)
        assert composed.value == pytest.approx(direct.value, rel=1e-8)
        assert composed.classification == direct.classification

    def test_scale_equivariance(self):
        g = hardy_kernel(0.6, 2.0)
        g3 = AnalyticFunction(lambda z: 3.0 * g(z), lambda z: 3.0 * g.deriv(z),
                              singular_angles=g.singular_angles)
        assert hardy_norm(g3, 2.0).value == pytest.approx(
            3.0 * hardy_norm(g, 2.0).value, rel=1e-10)

    def test_sqrt_composite_converges_where_analytic_diverges(self, thm2_map):
        g = cauchy_kernel()
        f = compose(g, thm2_map)
        assert hardy_norm(g, 1.0).classification == DIVERGING
        est = hardy_norm(f, 1.0)
        assert est.classification == CONVERGED
        assert np.isfinite(est.value)

    def test_radial_schedule(self):
        r = radial_schedule(5)
        assert np.allclose(r, [0.5, 0.75, 0.875, 0.9375, 0.96875])


class TestBoundaryNorm:
    def test_constant(self, identity_map):
        f = compose(_constant(2.0), identity_map)
        assert boundary_lp_norm(f, 2.0) == pytest.approx(2.0, rel=1e-10)

    def test_divergent_trace_flagged_infinite(self, identity_map):
        f = compose(cauchy_kernel(), identity_map)
        assert boundary_lp_norm(f, 1.0) == np.inf

    def test_log_divergence_at_p2_flagged_infinite(self, thm2_map):
        # the graded means grow by the same amount per decade of scale
        # (rho = 1); the quadrature error estimate at these scales exceeds
        # that growth, so only the rounding floor exposes it
        f = compose(cauchy_kernel(), thm2_map)
        assert boundary_lp_norm(f, 2.0) == np.inf

    def test_slow_convergence_is_finite(self):
        # Cauchy o power:0.8: the means settle with rho = 10^(-1/5)
        f = compose(cauchy_kernel(), make_disc_map("power:0.8"))
        assert np.isfinite(boundary_lp_norm(f, 1.0))

    def test_undetermined_tail_is_nan(self, identity_map, monkeypatch):
        monkeypatch.setattr(functionals, "classify_tail",
                            lambda seq, err: (UNDETERMINED, "stub"))
        assert np.isnan(boundary_lp_norm(compose(_constant(2.0), identity_map),
                                         2.0))

    def test_sqrt_composite_oracle(self, thm2_map):
        # change of variables s = sqrt(pi t) turns the boundary integral into
        # (1/pi^2) int_0^pi s / sin(s/2) ds; frozen high-precision value
        f = compose(cauchy_kernel(), thm2_map)
        val = boundary_lp_norm(f, 1.0)
        assert val == pytest.approx(0.7424537454215444, rel=1e-4)

    def test_matches_radial_limit_for_bounded_composite(self, thm2_map):
        f = compose(hardy_kernel(0.9, 2.0), thm2_map)
        bnorm = boundary_lp_norm(f, 2.0)
        mean, _ = integral_mean(f, 1 - 2.0 ** -22, 2.0)
        assert bnorm == pytest.approx(mean ** 0.5, rel=1e-3)


class TestMaximal:
    def test_constant(self):
        f = _constant(1.5)
        assert nt_maximal(f, 1.0 + 0j) == pytest.approx(1.5)
        assert maximal_lp(f, 2.0) == pytest.approx(1.5, rel=1e-10)

    def test_monotone_in_budget(self):
        g = cauchy_kernel()
        xi = np.exp(0.3j)
        vals = [nt_maximal(g, xi, budget=b) for b in (24, 96, 384)]
        assert vals[0] <= vals[1] <= vals[2]

    def test_dominates_point_values(self):
        g = hardy_kernel(0.9, 2.0)
        xi = 0.9 / 0.9  # vertex at angle 0
        m = nt_maximal(g, 1.0 + 0j, budget=96)
        assert m >= abs(complex(g(np.array([0.9375 + 0j]))[0]))

    def test_maximal_dominates_boundary_norm(self, thm2_map):
        f = compose(hardy_kernel(0.9, 2.0), thm2_map)
        assert maximal_lp(f, 2.0, grid_n=64) >= boundary_lp_norm(f, 2.0)

    @pytest.mark.parametrize("spec", ["thm2_sqrt", "power:2"])
    def test_batched_equals_the_per_angle_loop(self, spec):
        f = compose(hardy_kernel(0.9, 2.0), make_disc_map(spec))
        angles, weights = _xi_grid(32, f.singular_pullback_angles())
        loop = np.array([_nt_maximal_loop(f, np.exp(1j * t)) for t in angles])
        assert np.array_equal(nt_maximal(f, np.exp(1j * angles)), loop)
        ref = float((np.sum(weights * loop ** 2.0) / TWO_PI) ** 0.5)
        assert maximal_lp(f, 2.0, grid_n=32) == ref

    def test_vertex_off_the_circle(self):
        with pytest.raises(ValueError, match="unit circle"):
            nt_maximal(_constant(1.0), np.array([1.0, 0.5j]))


class TestAreaIntegral:
    def test_monomial_closed_form(self):
        # int_D |1|^2 (1-|z|) dm = 2 pi (1/2 - 1/3) = pi/3 for f = z
        est = area_integral(_IDENTITY, 2.0)
        assert est.classification == CONVERGED
        # truncation at radius 1 - 2^{-k_max} leaves an O(2^{-2 k_max}) deficit
        assert est.value == pytest.approx(np.pi / 3, rel=1e-6)

    def test_kernel_converges(self):
        est = area_integral(hardy_kernel(0.9, 2.0), 2.0)
        assert est.classification == CONVERGED

    def test_cauchy_derivative_diverges(self):
        # |g'| = |1-z|^{-2} makes the p = 2, q = 1 integral diverge
        est = area_integral(cauchy_kernel(), 2.0, k_max=16)
        assert est.classification == DIVERGING

    def test_kinked_composite_against_reference(self, thm2_map):
        # the same radial rule with order-48 circle means at the five angles
        f = compose(hardy_kernel(0.9, 2.0), thm2_map)
        k_max = 3
        x, wq = gauss_legendre(8)
        edges = np.concatenate([[0.0], radial_schedule(k_max)])
        ref = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            for xi, wi in zip(x, wq):
                r = 0.5 * (a + b) + 0.5 * (b - a) * xi
                m, _ = circle_mean(
                    lambda t, r=r: f.differential(r * np.exp(1j * t))[0] ** 2,
                    _five_angles(r, 1e-9), order=48)
                ref += 0.5 * (b - a) * wi * m * (1.0 - r) * r * TWO_PI
        est = area_integral(f, 2.0, k_max=k_max)
        assert est.value == pytest.approx(ref, rel=1e-7)

    def test_undetermined_tail_reads_each_shell_once(self, monkeypatch):
        # moebius(0.99) is undetermined at 12 shells and converged at 13
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return circle_mean(*args, **kwargs)

        f = compose(hardy_kernel(0.9, 2.0), make_disc_map("moebius:0.99"))
        twelve = list(islice(functionals._area_truncations(f, 2.0), 12))
        monkeypatch.setattr(functionals, "circle_mean", counted)
        est = area_integral(f, 2.0, k_max=12)
        verdict, _ = classify_tail([t[1] for t in twelve],
                                   [t[2] for t in twelve])
        assert verdict == UNDETERMINED
        assert est.classification == CONVERGED
        assert len(est.samples) == 13 and len(calls) == 13 * 8
        assert est.samples[:12] == tuple((t[0], t[1]) for t in twelve)
        assert (est.value, est.error) == (twelve[-1][1], twelve[-1][3])

    def test_analytic_kind_matches_full_for_identity(self, identity_map):
        # |Df| of g o identity is |g'|, the integrand of g itself
        g = hardy_kernel(0.8, 2.0)
        full = area_integral(compose(g, identity_map), 2.0, k_max=8)
        analytic = area_integral(g, 2.0, k_max=8)
        assert full.value == pytest.approx(analytic.value, rel=1e-9)


class TestAverageDerivative:
    def test_linear_map_exact(self):
        est = average_derivative(_IDENTITY, 0.2 + 0.1j, mc_samples=500)
        assert est.value == pytest.approx(1.0, abs=1e-14)
        assert est.stderr == pytest.approx(0.0, abs=1e-14)
        assert est.excluded_fraction == 0.0

    def test_scale_equivariance(self):
        g = hardy_kernel(0.6, 2.0)
        g3 = AnalyticFunction(lambda z: 3.0 * g(z), lambda z: 3.0 * g.deriv(z))
        a1 = average_derivative(g, 0.3, mc_samples=2000, seed=9)
        a3 = average_derivative(g3, 0.3, mc_samples=2000, seed=9)
        assert a3.value == pytest.approx(3.0 * a1.value, rel=1e-12)

    def test_conformal_matches_derivative(self, moebius_map):
        f = AnalyticFunction(moebius_map.interior, moebius_map.complex_derivative)
        for z in (0.0, 0.4j, -0.6):
            est = average_derivative(f, z, mc_samples=10 ** 5, seed=1)
            target = abs(complex(moebius_map.complex_derivative(
                np.array([complex(z)]))[0]))
            assert abs(est.value - target) <= 2 * est.stderr

    def test_deterministic_given_seed(self):
        g = hardy_kernel(0.6, 2.0)
        a = average_derivative(g, 0.2, mc_samples=1000, seed=4)
        b = average_derivative(g, 0.2, mc_samples=1000, seed=4)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            average_derivative(_IDENTITY, 1.0)
        with pytest.raises(TypeError):
            average_derivative(lambda z: z, 0.0)


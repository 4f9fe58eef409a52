import warnings
from dataclasses import replace
from itertools import count, islice

import numpy as np
import pytest

from qchardy import functionals, quadrature, tail
from qchardy.extension import invert, make_disc_map
from qchardy.functionals import (
    CONVERGED,
    DIVERGING,
    RADIAL_DEPTH,
    _xi_grid,
    area_integral,
    average_derivative,
    ball_average_derivative,
    boundary_lp,
    boundary_lp_norm,
    hardy_norm,
    integral_mean,
    maximal_lp,
    maximal_lps,
    nt_maximal,
    radial_schedule,
)
from qchardy.functions import (
    AnalyticFunction,
    cauchy_kernel,
    compose,
    hardy_kernel,
)
from qchardy.geometry import cone_halfwidth
from qchardy.quadrature import TWO_PI, circle_mean, circle_means, gauss_legendre
from qchardy.tail import (TAIL_CAP, UNDETERMINED, classify_tail, read_tail,
                          read_value)


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


def _fixed_scale_marks(f, r, scale):
    """The earlier grading marks for a composite on |z| = r, kept as the
    reference rule: its singular angles at a fixed scale (1e-10 for Hardy
    means, 1e-9 for area shells) and its symbol's kinks at 0.1 (1 - r)."""
    marks = [(t, scale) for t in f.singular_angles]
    return marks + [(t, 0.1 * (1.0 - r)) for t in f.phi.kink_angles(r)]


def _mean(fn, marks, order):
    """circle_mean at another panel order: one circle of circle_means."""
    return next(circle_means(lambda t, _: fn(t), [marks], order))


def _nt_maximal_loop(f, xi, aperture=2.0):
    """Reference: the maximal function at one vertex, one call of f per depth
    on 17 rays."""
    t0 = float(np.angle(xi))
    best = 0.0
    ks = np.arange(-8, 9)
    for j in range(1, 13):
        d = 1.0 - 2.0 ** -j
        half = cone_halfwidth(aperture, d) * (1.0 - 1e-9)
        z = d * np.exp(1j * (t0 + half * ks / 8.0))
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

    def test_nan_term_undetermined(self):
        # a NaN (inf times 0, say) says nothing of growth, even beside an inf
        for seq in ([1.0, 2.0, np.nan], [np.nan, 2.0, np.inf, 4.0, 5.0]):
            assert classify_tail(seq, 0.0) == (UNDETERMINED, "NaN term")

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


def _counted_terms(value, asked, fail_at=None):
    """Terms (value(k), 0) for k = 1, 2, ..., each index appended to asked
    when the term is computed; term fail_at raises RuntimeError."""
    for k in count(1):
        asked.append(k)
        if k == fail_at:
            raise RuntimeError(f"term {k} failed")
        yield value(k), 0.0


def _alternating(k):
    return 1.0 + 0.5 * (k % 2 == 0)


@pytest.fixture
def lengths(monkeypatch):
    """The number of terms read_tail's verdicts are read on, in order."""
    seen = []

    def counted(seq, err):
        seen.append(len(seq))
        return classify_tail(seq, err)

    monkeypatch.setattr(tail, "classify_tail", counted)
    return seen


class TestReadTail:
    """read_tail on synthetic counting sequences: the first batch, then one
    more term per undetermined verdict, up to TAIL_CAP."""

    def test_decided_reads_the_first_batch(self, lengths):
        asked = []
        r = read_tail(_counted_terms(lambda k: 2.0 - 2.0 ** -k, asked), 6)
        read, verdict, reason, k = r.samples, r.classification, r.reason, r.at
        assert verdict == CONVERGED and "0.5, 0.5, 0.5" in reason
        assert asked == [1, 2, 3, 4, 5, 6] and lengths == [6] and k == 6
        assert [t[0] for t in read] == [2.0 - 2.0 ** -k for k in asked]

    def test_undetermined_reads_one_more_until_decided(self, lengths):
        # alternating through k = 7, flat after: decided at k = 9
        asked = []
        r = read_tail(_counted_terms(
            lambda k: _alternating(k) if k <= 7 else 1.0, asked), 4)
        read, verdict, why = r.samples, r.classification, (r.reason, r.at)
        assert (verdict, why) == (CONVERGED, ("last 3 increments <= 0", 9))
        assert lengths == [4, 5, 6, 7, 8, 9] and asked == list(range(1, 10))
        assert len(read) == 9

    def test_undetermined_stops_at_the_cap(self, lengths):
        asked = []
        r = read_tail(_counted_terms(_alternating, asked), 4)
        read, verdict, k = r.samples, r.classification, r.at
        assert verdict == UNDETERMINED and k == len(read) == TAIL_CAP
        assert lengths == list(range(4, TAIL_CAP + 1))
        assert asked == list(range(1, TAIL_CAP + 1))

    @pytest.mark.parametrize("n", [3, 7])
    def test_finite_sequence_is_read_to_its_end(self, lengths, n):
        # undetermined to the end of n alternating terms: a batch of 3, then
        # one more a verdict while terms remain, and never a term past n
        asked = []
        r = read_tail(islice(_counted_terms(_alternating, asked), n), 3)
        assert r.classification == UNDETERMINED and r.at == len(r.samples) == n
        assert asked == list(range(1, n + 1))
        assert lengths == list(range(3, n + 1))

    def test_empty_sequence_reads_nan(self):
        r = read_tail(iter(()), 0)
        assert (r.classification, r.at, r.samples) == (UNDETERMINED, 0, ())
        assert np.isnan(r.value) and np.isnan(r.error)

    def test_first_batch_past_the_cap_is_read_whole(self):
        asked = []
        r = read_tail(_counted_terms(_alternating, asked), TAIL_CAP + 4)
        read, verdict, k = r.samples, r.classification, r.at
        assert verdict == UNDETERMINED
        assert k == len(read) == len(asked) == TAIL_CAP + 4

    @pytest.mark.parametrize("fail_at, k", [(3, 5), (5, 5), (8, 8)])
    def test_runtime_error_is_an_undetermined_verdict(self, fail_at, k):
        # in the first batch of 5 the verdict is at 5; past it, at the term
        asked = []
        r = read_tail(_counted_terms(_alternating, asked, fail_at), 5)
        read, verdict, why = r.samples, r.classification, (r.reason, r.at)
        assert (verdict, why) == (UNDETERMINED, (f"term {fail_at} failed", k))
        assert asked == list(range(1, fail_at + 1))
        assert len(read) == fail_at - 1

    @pytest.mark.parametrize("nan_at, k", [(3, 5), (5, 5), (8, 8)])
    def test_nan_term_stops_the_reading(self, nan_at, k):
        # no later term can decide a tail with a NaN term: in the first
        # batch of 5 the reading stops at 5; past it, at the NaN term
        asked = []
        r = read_tail(_counted_terms(
            lambda j: np.nan if j == nan_at else _alternating(j), asked), 5)
        read, verdict, why = r.samples, r.classification, (r.reason, r.at)
        assert (verdict, why) == (UNDETERMINED, ("NaN term", k))
        assert asked == list(range(1, k + 1)) and len(read) == k


class TestReadValue:
    def test_finite_converged_infinite_diverging_nan_undetermined(self):
        values = (0.0, 2.5, np.inf, -np.inf, np.nan)
        assert [read_value(v).classification for v in values] == [
            CONVERGED, CONVERGED, DIVERGING, DIVERGING, UNDETERMINED]
        # no tail was read: no index of a last term, and no terms
        assert {(read_value(v).at, read_value(v).samples) for v in values} == {
            (None, ())}


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
                    ref, _ = _mean(lambda t: np.abs(g(image(t))) ** p,
                                   _five_angles(r, 1e-10), order=48)
                    val, err = integral_mean(compose(g, phi), r, p)
                    assert abs(val - ref) <= 1e-9 * ref, (p, r)
                    assert err >= abs(val - ref), (p, r)

    @pytest.mark.parametrize("spec", ["thm2_sqrt", "power:2", "power:0.3"])
    def test_mark_scale_against_the_fixed_scale_rule(self, spec):
        # the thm2 and thm3 kernels along the radial schedule: every mean
        # within 1e-9 of the fixed-scale rule, every error estimate within 2x
        # of its; measured worst 4.8e-11 and 0.91-1.31x.  Cauchy o power:2
        # from k = 11 is rounding-limited: 1 - |phi(r)| is about 0.1 4^-k,
        # so |1 - phi| carries a relative rounding of about 10 eps 4^k, 1e-8
        # at k = 11, and both rules only resolve the mean to their error
        # estimates; there the means differ by at most 0.067 of the
        # fixed-scale rule's estimate, and the estimates by 0.40-1.61x
        phi = make_disc_map(spec)
        for g, p in ((cauchy_kernel(), 1.0), (hardy_kernel(0.9, 2.0), 2.0)):
            f = compose(g, phi)
            for k, r in enumerate(radial_schedule(), 1):
                val, err = integral_mean(f, r, p)
                ref, ref_err = circle_mean(
                    lambda t, r=r: np.abs(f(r * np.exp(1j * t))) ** p,
                    _fixed_scale_marks(f, r, 1e-10))
                if spec == "power:2" and p == 1.0 and k >= 11:
                    assert abs(val - ref) <= 0.1 * ref_err, k
                    assert 0.25 <= err / ref_err <= 4.0, k
                else:
                    assert abs(val - ref) <= 1e-9 * ref, (p, k)
                    assert 0.5 <= err / ref_err <= 2.0, (p, k)


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
        d = np.diff([m for m, _, _ in est.samples])
        rho = d[1:] / d[:-1]
        assert np.all((rho[-3:] > 1.0) & (rho[-3:] < 1.0 + 3e-6))
        assert np.all(np.diff(rho[-3:]) < 0)
        assert est.classification == DIVERGING and "Aitken" in est.reason
        assert est.at == 24

    @pytest.mark.parametrize("budget, k", [(1, 3),
                                           (quadrature._NODES_PER_CALL, 1)],
                             ids=["alone", "batched"])
    def test_swallowed_error_has_a_reason(self, monkeypatch, budget, k):
        # f fails on the circle r_3 = 0.875, and the norm reads by
        # read_tail's one rule: undetermined, NaN, the error as its reason,
        # at the first batch's end, with the means of the batches before the
        # one it strikes: circles 1-2 one circle a call, none when circles
        # 1-3 share a call
        g = cauchy_kernel()

        def failing(z):
            if np.any(np.abs(np.abs(z) - 0.875) < 1e-12):
                raise RuntimeError("overflow")
            return g(z)

        monkeypatch.setattr(quadrature, "_NODES_PER_CALL", budget)
        est = hardy_norm(AnalyticFunction(failing, g.deriv, g.singular_angles,
                                          real=True), 1.0)
        assert est.classification == UNDETERMINED
        assert np.isnan(est.value) and np.isnan(est.error)
        assert (est.reason, est.at) == ("overflow", RADIAL_DEPTH)
        assert est.samples == hardy_norm(g, 1.0).samples[:k - 1]

    def test_cauchy_converges_in_h_half(self):
        est = hardy_norm(cauchy_kernel(), 0.5)
        assert est.classification == CONVERGED
        assert np.isfinite(est.value)

    def test_means_nondecreasing_in_radius(self):
        est = hardy_norm(hardy_kernel(0.8, 2.0), 2.0)
        means = [m for m, _, _ in est.samples]
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
        monkeypatch.setattr(tail, "classify_tail",
                            lambda seq, err: (UNDETERMINED, "stub"))
        assert np.isnan(boundary_lp_norm(compose(_constant(2.0), identity_map),
                                         2.0))

    def test_sqrt_composite_oracle(self, thm2_map):
        # change of variables s = sqrt(pi t) turns the boundary integral into
        # (1/pi^2) int_0^pi s / sin(s/2) ds; frozen high-precision value
        f = compose(cauchy_kernel(), thm2_map)
        val = boundary_lp_norm(f, 1.0)
        assert val == pytest.approx(0.7424537454215444, rel=1e-4)

    def test_non_finite_samples_read_nan(self, identity_map):
        # 2 on the left half of the circle, inf on the right: the composite
        # is NaN there, which says nothing about growth
        def half_infinite(z):
            return np.where(z.real > 0.0, np.inf, 2.0) + 0j

        g = AnalyticFunction(half_infinite, np.zeros_like,
                             singular_angles=(0.5 * np.pi, -0.5 * np.pi))
        reading = boundary_lp(compose(g, identity_map), 2.0)
        assert reading.classification == UNDETERMINED
        assert np.isnan(reading.value) and reading.reason == "NaN term"

    @pytest.mark.parametrize("p", [100.0, 1000.0])
    def test_an_overflowing_power_reads_diverging(self, thm2_map, p):
        # |f|^p overflows where f is finite: inf, not a NaN sample.
        # The error estimate of an infinite mean is NaN, with no warning
        reading = boundary_lp(compose(cauchy_kernel(), thm2_map), p)
        assert (reading.value, reading.classification) == (np.inf, DIVERGING)

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

    def test_dominates_point_values(self):
        g = hardy_kernel(0.9, 2.0)
        xi = 0.9 / 0.9  # vertex at angle 0
        m = nt_maximal(g, 1.0 + 0j)
        assert m >= abs(complex(g(np.array([0.9375 + 0j]))[0]))

    def test_maximal_dominates_boundary_norm(self, thm2_map):
        f = compose(hardy_kernel(0.9, 2.0), thm2_map)
        assert maximal_lp(f, 2.0, grid_n=64) >= boundary_lp_norm(f, 2.0)

    @pytest.mark.parametrize("spec", ["thm2_sqrt", "power:2"])
    def test_batched_equals_the_per_angle_loop(self, spec):
        f = compose(hardy_kernel(0.9, 2.0), make_disc_map(spec))
        angles, weights = _xi_grid(32, f.singular_angles)
        loop = np.array([_nt_maximal_loop(f, np.exp(1j * t)) for t in angles])
        assert np.array_equal(nt_maximal(f, np.exp(1j * angles)), loop)
        ref = float((np.sum(weights * loop ** 2.0) / TWO_PI) ** 0.5)
        assert maximal_lp(f, 2.0, grid_n=32) == ref

    def test_grids_share_one_cone_evaluation(self, monkeypatch, thm2_map):
        f = compose(hardy_kernel(0.9, 2.0), thm2_map)
        alone = [maximal_lp(f, 2.0, 2.0, grid_n=n) for n in (32, 64)]
        vertices = []

        def counted(f, xi, aperture):
            vertices.append(np.size(xi))
            return nt_maximal(f, xi, aperture)

        monkeypatch.setattr(functionals, "nt_maximal", counted)
        assert maximal_lps(f, 2.0, 2.0, (32, 64)) == alone
        # the 38 cluster vertices at the singular angle, in both grids, are
        # evaluated once, and of the union only the vertices in [0, pi]
        grids = [_xi_grid(n, f.singular_angles)[0] for n in (32, 64)]
        union = np.union1d(*grids)
        assert len(union) == sum(map(len, grids)) - 38
        assert vertices == [np.count_nonzero(union >= 0)] == [67]

    def test_vertex_off_the_circle(self):
        with pytest.raises(ValueError, match="unit circle"):
            nt_maximal(_constant(1.0), np.array([1.0, 0.5j]))


def _shell_stage_truncations(f, p):
    """functionals._area_truncations as it ran with one circle_means stage
    per shell, the singular angles pulled back once per circle: the
    reference for the bitwise check of area_integral's batched stage."""
    q = p - 1.0
    x, wq = gauss_legendre(8)
    total = toterr = a = 0.0
    for k in count(1):
        b = 1.0 - 2.0 ** -k
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        radii = mid + half * x
        shell, before = 0.0, toterr

        def fn(theta, circle):
            return f.differential(radii[circle] * np.exp(1j * theta))[0] ** p

        marks = [[(t, 1e-3 * (1.0 - r)) for t in f.singular_angles]
                 + [(t, 0.1 * (1.0 - r)) for t in f.phi.kink_angles(r)]
                 for r in radii]
        means = circle_means(fn, marks, order=12, even=f.real)
        with np.errstate(over="ignore", invalid="ignore"):
            for r, wi, (m, e) in zip(radii, wq, means):
                shell += half * wi * m * (1.0 - r) ** q * r * TWO_PI
                toterr += half * wi * e * (1.0 - r) ** q * r * TWO_PI
        if shell >= np.finfo(float).tiny:
            total += shell
        else:
            total = toterr = np.nan
        yield total, toterr - before, b, toterr
        a = b


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


class TestAreaIntegral:
    @pytest.mark.parametrize("spec", ["thm2_sqrt", "moebius:0.5"])
    def test_derivative_magnitude_is_the_differentials_norm(self, rng, spec):
        # the former form took |Df| from the differential, Jacobian and all
        f = compose(hardy_kernel(0.9, 2.0), make_disc_map(spec))
        z = np.sqrt(rng.uniform(0.0, 0.999, 500)) * np.exp(
            1j * rng.uniform(-np.pi, np.pi, 500))
        assert _bits(functionals._deriv_magnitude(f, z)) == _bits(
            f.differential(z)[0])

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
                m, _ = _mean(
                    lambda t, r=r: f.differential(r * np.exp(1j * t))[0] ** 2,
                    _five_angles(r, 1e-9), order=48)
                ref += 0.5 * (b - a) * wi * m * (1.0 - r) * r * TWO_PI
        est = area_integral(f, 2.0, k_max=k_max)
        assert est.value == pytest.approx(ref, rel=1e-7)

    @pytest.mark.parametrize("spec", ["thm2_sqrt", "power:2", "power:0.3"])
    def test_mark_scale_against_the_fixed_scale_rule(self, spec):
        # the order-12 means at the 8 Gauss radii of shells 2-12 within 1e-9
        # of the fixed-scale rule and their error estimates within 2x of its
        # (measured worst 2.2e-10 and 0.999-1.000x).  On shell 1, r < 1/2,
        # the marks are 5e-4 to 1e-3 wide and the circle is smooth on that
        # scale; neither rule resolves those means beyond its estimate, 1e-6
        # to 4e-5 of the mean, so they differ by up to 3.4e-7, but by at most
        # 0.016 of either estimate.  The sum over all shells stays within
        # 1e-9 (measured worst 7.2e-10)
        f = compose(hardy_kernel(0.9, 2.0), make_disc_map(spec))
        x, wq = gauss_legendre(8)
        edges = np.concatenate([[0.0], radial_schedule(12)])
        total = ref_total = 0.0
        for k, (a, b) in enumerate(zip(edges[:-1], edges[1:]), 1):
            for xi, wi in zip(x, wq):
                r = 0.5 * (a + b) + 0.5 * (b - a) * xi

                def fn(t, r=r):
                    return f.differential(r * np.exp(1j * t))[0] ** 2

                val, err = _mean(fn, functionals._circle_marks(f, [r])[0], order=12)
                ref, ref_err = _mean(fn, _fixed_scale_marks(f, r, 1e-9), order=12)
                if k == 1:
                    assert abs(val - ref) <= 0.1 * min(err, ref_err), r
                else:
                    assert abs(val - ref) <= 1e-9 * ref, r
                    assert 0.5 <= err / ref_err <= 2.0, r
                weight = 0.5 * (b - a) * wi * (1.0 - r) * r
                total += weight * val
                ref_total += weight * ref
        assert abs(total - ref_total) <= 1e-9 * ref_total

    @pytest.mark.parametrize("spec, p, shells", [
        ("thm2_sqrt", 2.0, 12), ("power:2", 2.0, 12), ("moebius:0.5", 2.0, 12),
        ("moebius:0.99", 2.0, 13), ("thm2_sqrt", 200.0, 12),
        ("thm2_sqrt", 1000.0, 12)])
    def test_one_stage_changes_no_bit(self, spec, p, shells):
        # thm3's composite; moebius(0.99) reads shell 13 in a stage of its
        # own, at p = 200 every shell underflows to a NaN truncation, and at
        # p = 1000 inf |Df|^p meets a weight that underflows to 0
        f = compose(hardy_kernel(0.9, p), make_disc_map(spec))
        want = read_tail(_shell_stage_truncations(f, p), 12)
        want = replace(want, error=want.samples[11][3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the stage prints no RuntimeWarning
            got = area_integral(f, p)
        assert len(got.samples) == shells
        assert _bits(got.samples) == _bits(want.samples)
        assert _bits([got.value, got.error]) == _bits([want.value, want.error])
        assert (got.at, got.reason) == (want.at, want.reason)

    def test_undetermined_tail_reads_each_shell_once(self, monkeypatch):
        # moebius(0.99) is undetermined at 12 shells and converged at 13:
        # one circle_means stage of the first 12 shells' 96 circles, then
        # one of 8 circles for shell 13
        stages = []

        def counted(fn, marks, order, even):
            stages.append(len(marks))
            return circle_means(fn, marks, order, even)

        f = compose(hardy_kernel(0.9, 2.0), make_disc_map("moebius:0.99"))
        twelve = list(islice(functionals._area_truncations(f, 2.0, 12), 12))
        monkeypatch.setattr(functionals, "circle_means", counted)
        est = area_integral(f, 2.0, k_max=12)
        verdict, _ = classify_tail([t[0] for t in twelve],
                                   [t[1] for t in twelve])
        assert verdict == UNDETERMINED
        assert est.classification == CONVERGED
        assert len(est.samples) == 13 and stages == [96, 8]
        assert est.samples[:12] == tuple(twelve)
        assert (est.value, est.error) == (twelve[-1][0], twelve[-1][3])

    def test_an_underflowed_shell_reads_undetermined(self, thm2_map):
        # thm3's composite: |Df| is about 0.01, so at p = 200 every shell sum
        # underflows to 0, which once read converged at 0.  No catalog
        # composite is constant, so a sum below the smallest normal double
        # is underflow, not evidence
        f = compose(hardy_kernel(0.9, 200.0), thm2_map)
        est = area_integral(f, 200.0)
        assert est.classification == UNDETERMINED and np.isnan(est.value)
        assert (est.reason, est.at) == ("NaN term", 12)
        # at the default p = 2 no shell underflows, and the value is the
        # one thm3 reported before the underflow rule
        f = compose(hardy_kernel(0.9, 2.0), thm2_map)
        est = area_integral(f, 2.0)
        assert est.classification == CONVERGED
        assert all(s[0] >= np.finfo(float).tiny for s in est.samples)
        assert est.value == pytest.approx(6.128342893393029, rel=1e-12)

    def test_analytic_kind_matches_full_for_identity(self, identity_map):
        # |Df| of g o identity is |g'|, the integrand of g itself
        g = hardy_kernel(0.8, 2.0)
        full = area_integral(compose(g, identity_map), 2.0, k_max=8)
        analytic = area_integral(g, 2.0, k_max=8)
        assert full.value == pytest.approx(analytic.value, rel=1e-9)


class TestStages:
    """A stage of circles (or cone depths) batched into few calls of f,
    against one circle (or depth) per call: the same bits."""

    @staticmethod
    def _counted_composite(spec):
        """Kernel o spec, and the list of node counts of its analytic
        part's calls (values and derivatives)."""
        g = hardy_kernel(0.9, 2.0)
        calls = []

        def counted(fn):
            def inner(z):
                calls.append(z.size)
                return fn(z)
            return inner

        h = AnalyticFunction(counted(g), counted(g.deriv), g.singular_angles)
        return compose(h, make_disc_map(spec)), calls

    @pytest.mark.parametrize("spec", ["thm2_sqrt", "moebius:0.5"])
    def test_one_circle_per_call_changes_no_bit(self, monkeypatch, spec):
        f, calls = self._counted_composite(spec)
        xi = np.exp(1j * _xi_grid(32, f.singular_angles)[0])
        stages = {"hardy": lambda: hardy_norm(f, 2.0),
                  "area": lambda: area_integral(f, 2.0, k_max=4),
                  "boundary": lambda: boundary_lp(f, 2.0),
                  "cone": lambda: nt_maximal(f, xi).tolist()}

        def run():
            """{stage: (result, calls of f)}."""
            out = {}
            for name, stage in stages.items():
                calls.clear()
                out[name] = stage(), len(calls)
            return out

        batched = run()
        # 32 nodes: below any two circles or depths, so one a call, while
        # each line-map call of a BA evaluation still takes 5 or 8 panels
        monkeypatch.setattr(quadrature, "_NODES_PER_CALL", 32)
        alone = run()
        for name in stages:
            assert alone[name][0] == batched[name][0], name
        # one call per circle or depth: 24 Hardy circles, 8 per area shell,
        # 5 boundary scales, 12 cone depths; the batches take fewer
        shells = len(batched["area"][0].samples)
        assert {name: n for name, (_, n) in alone.items()} == {
            "hardy": 24, "area": 8 * shells, "boundary": 5, "cone": 12}
        assert batched["hardy"][1] < 24 and batched["cone"][1] < 12

    def test_node_batches(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_NODES_PER_CALL", 10)
        batches = quadrature.node_batches
        assert batches([4, 4, 4, 30, 1, 9, 10]) == [(0, 2), (2, 3), (3, 4),
                                                    (4, 6), (6, 7)]
        assert batches([30]) == [(0, 1)]


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


# a (2, 3) grid of disc points, and of the angles of boundary vertices
_GRID = np.array([[0.1 + 0.2j, -0.5, 0.3j], [0.7, -0.1j, 0.2 - 0.6j]])
_ANGLES = np.array([[0.0, 0.5, -1.0], [2.0, -2.5, 3.0]])


def _arrays(result):
    """The arrays of a result, its nested tuples flattened."""
    if isinstance(result, tuple):
        return [a for part in result for a in _arrays(part)]
    return [result]


def _shaped_call(name):
    """(evaluation, (2, 3) input) of an evaluator that takes a point or an
    array of points."""
    ba = make_disc_map("thm2_sqrt")
    if name == "ba_call":
        return ba, _GRID
    if name.startswith("invert"):
        phi = make_disc_map(name.split(" ")[1])
        return lambda w: invert(phi, w), _GRID
    if name == "nt_maximal":
        f = compose(hardy_kernel(0.9, 2.0), ba)
        return lambda xi: nt_maximal(f, xi), np.exp(1j * _ANGLES)
    g = hardy_kernel(0.6, 2.0)
    return lambda z: ball_average_derivative(g, z), _GRID


@pytest.mark.parametrize("name", [
    "ba_call", "invert thm2_sqrt", "invert moebius:0.5", "nt_maximal",
    "ball_average_derivative"])
def test_results_take_the_shape_of_the_input(name):
    call, grid = _shaped_call(name)
    flat = _arrays(call(grid.ravel()))
    for got, want in zip(_arrays(call(grid)), flat, strict=True):
        assert isinstance(got, np.ndarray) and got.shape == grid.shape
        assert got.tobytes() == want.tobytes()
    for k, point in enumerate(grid.ravel()):
        for got, want in zip(_arrays(call(point)), flat, strict=True):
            # a point gives 0-d arrays, bitwise the entries of the batch
            assert isinstance(got, np.ndarray) and got.shape == ()
            assert got.tobytes() == want[k].tobytes()


class TestBallAverageDerivative:
    _EPS = np.finfo(float).eps

    @pytest.mark.parametrize("a, rel", [(0.5, 1e-10), (0.9, 1e-6),
                                        (0.99, 1e-5)])
    def test_error_covers_the_deviation_on_moebius_maps(self, a, rel):
        phi = make_disc_map(f"moebius:{a}")
        f = AnalyticFunction(phi.interior, phi.complex_derivative)
        ring = np.exp(2j * np.pi * np.arange(16) / 16)
        z = np.concatenate([[0j], np.outer([0.2, 0.4, 0.6, 0.8], ring).ravel(),
                            0.999 * ring])
        value, error = ball_average_derivative(f, z)
        target = np.abs(phi.complex_derivative(z))
        assert np.all(np.abs(value - target) <= error)
        assert np.all(error <= rel * target)

    def test_origin_of_the_cli_map(self, moebius_map):
        f = AnalyticFunction(moebius_map.interior, moebius_map.complex_derivative)
        value, error = ball_average_derivative(f, 0.0)
        assert abs(value - 0.75) <= min(error, 1e-11 * 0.75)

    def test_identity_and_linear_map_are_exact(self):
        value, error = ball_average_derivative(_IDENTITY, [0.0, 0.5j, -0.999])
        assert np.all(value == 1.0)
        assert np.all(error == 128 * self._EPS)
        linear = AnalyticFunction(lambda z: 3.0 * z, lambda z: np.full_like(z, 3.0))
        value, error = ball_average_derivative(linear, 0.2 + 0.1j)
        assert abs(value - 3.0) <= np.spacing(3.0)
        assert error == pytest.approx(128 * self._EPS * value, rel=1e-9)

    def test_scale_equivariance(self):
        g = hardy_kernel(0.6, 2.0)
        g3 = AnalyticFunction(lambda z: 3.0 * g(z), lambda z: 3.0 * g.deriv(z))
        a1, e1 = ball_average_derivative(g, 0.3)
        a3, e3 = ball_average_derivative(g3, 0.3)
        assert a3 == pytest.approx(3.0 * a1, rel=1e-14)
        assert e3 == pytest.approx(3.0 * e1, rel=1e-4)

    def test_one_derivative_call_for_every_ball(self, moebius_map):
        sizes = []

        def deriv(z):
            sizes.append(z.size)
            return moebius_map.complex_derivative(z)

        f = AnalyticFunction(moebius_map.interior, deriv)
        z = np.linspace(-0.8, 0.8, 9) * np.exp(0.4j)
        value, error = ball_average_derivative(f, z)
        assert sizes == [9 * 8 * 16]
        assert value.shape == error.shape == z.shape
        for k, zk in enumerate(z):
            assert ball_average_derivative(f, zk) == (value[k], error[k])

    def test_a_critical_point_in_the_ball_shows_in_the_error(self):
        # log|f'| = log 2|z| is not harmonic at 0: its ring means grow with r
        square = AnalyticFunction(lambda z: z * z, lambda z: 2.0 * z)
        value, error = ball_average_derivative(square, 0.0)
        assert error > value > 0.0

    def test_validation(self):
        with pytest.raises(RuntimeError, match="not finite"):
            ball_average_derivative(_constant(2.0), 0.3)
        with pytest.raises(ValueError):
            ball_average_derivative(_IDENTITY, 1.0)
        with pytest.raises(TypeError):
            ball_average_derivative(lambda z: z, 0.0)

import numpy as np
import pytest

from qchardy import extension
from qchardy.boundary import BoundaryHomeo, make_map
from qchardy.extension import (
    _FRACTIONS,
    _GL_ORDER,
    _GRADE_PANELS,
    _KAPPA,
    _PANELS,
    BAExtension,
    DiscQCMap,
    _line_integral,
    ba_extend,
    cone_image_aperture,
    identity_disc_map,
    invert,
    make_disc_map,
    moebius_disc_map,
)
from qchardy.functionals import radial_schedule
from qchardy.geometry import HyperbolicBall
from qchardy.quadrature import gauss_legendre


def _seed_line_integral(fn, a, b):
    """Reference rule: every interval on 14 graded panels each side of c."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    c = np.clip(0.0, a, b)
    left = c[:, None] + (a - c)[:, None] * _FRACTIONS[::-1][None, :]
    right = c[:, None] + (b - c)[:, None] * _FRACTIONS[None, :]
    edges = np.concatenate([left, right], axis=1)
    x, w = gauss_legendre(_GL_ORDER)
    half = 0.5 * np.diff(edges, axis=1)
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
    nodes = mid[:, :, None] + half[:, :, None] * x[None, None, :]
    vals = fn(nodes.ravel()).reshape(nodes.shape)
    return np.einsum("mp,mpq,q->m", half, vals, w)


def _one_shot_line_integral(fn, a, b):
    """Reference rule: the live panels of _line_integral, all evaluated in
    one call of fn."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    c = np.clip(0.0, a, b)

    def side(end):
        length = (end - c)[:, None]
        near = np.abs(c)[:, None] < _KAPPA * np.abs(length) * _FRACTIONS
        f = np.where(near, _FRACTIONS, 0.0)
        f[:, -1] = 1.0
        return c[:, None] + length * f

    edges = np.concatenate([side(a)[:, ::-1], side(b)], axis=1)
    row, panel = np.nonzero(np.diff(edges, axis=1) != 0.0)
    lo, hi = edges[row, panel], edges[row, panel + 1]
    half = 0.5 * (hi - lo)
    x, w = gauss_legendre(_GL_ORDER)
    vals = fn((0.5 * (hi + lo)[:, None] + half[:, None] * x).ravel())
    panel_sums = half * np.einsum("pk,k->p", vals.reshape(-1, _GL_ORDER), w)
    return np.bincount(row, weights=panel_sums, minlength=a.size)


def _random_intervals(n=10000, seed=11):
    """[x - y, x] and [x, x + y] over twenty-two decades of position and
    length: far from 0, touching it, and around it."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) * 10.0 ** rng.uniform(-9, 2, n)
    y = 10.0 ** rng.uniform(-9, 2, n)
    return np.concatenate([x - y, x]), np.concatenate([x, x + y])


class _Counting:
    """Integrand that records every batch of nodes it is called on."""

    def __init__(self):
        self.batches = []

    def __call__(self, x):
        self.batches.append(np.array(x))
        return np.sin(x)

    @property
    def evaluations(self):
        return sum(batch.size for batch in self.batches)


class TestLineIntegral:
    def test_reach_from_bernstein_ellipse(self):
        # a singularity _KAPPA panel widths beyond the panel's end lies on
        # the Bernstein ellipse where rho^(-2n) is machine epsilon
        u = 1.0 + 2.0 * _KAPPA
        rho = u + np.sqrt(u * u - 1.0)
        assert rho ** (-2 * _GL_ORDER) == pytest.approx(np.finfo(float).eps, rel=1e-9)
        assert _KAPPA == pytest.approx(0.678, abs=1e-3)

    @pytest.mark.parametrize("spec", ["thm2_sqrt", "power:2", "power:0.3", "identity"])
    def test_matches_seed_rule(self, spec):
        h = BAExtension(make_map(spec)).line_map
        a, b = _random_intervals()
        got = _line_integral(h, a, b)
        ref = _seed_line_integral(h, a, b)
        scale = (b - a) * np.maximum(np.abs(h(a)), np.abs(h(b)))
        assert np.all(np.abs(got - ref) <= 1e-11 * scale)

    @pytest.mark.parametrize("a, b, panels", [
        (1.0, 2.0, 1),
        (-3.0, -2.5, 1),
        (0.0, 1.0, _GRADE_PANELS),
        (-1e-3, 0.0, _GRADE_PANELS),
        (-1.0, 2.0, 2 * _GRADE_PANELS),
        (0.5, 0.5, 0),
    ])
    def test_evaluations_per_interval(self, a, b, panels):
        # an empty interval makes no call at all
        fn = _Counting()
        _line_integral(fn, a, b)
        assert len(fn.batches) == (1 if panels else 0)
        assert fn.evaluations == panels * _GL_ORDER

    def test_batch_evaluates_no_zero_width_panel(self):
        fn, ref = _Counting(), _Counting()
        a, b = _random_intervals(n=2000)
        _line_integral(fn, a, b)
        _one_shot_line_integral(ref, a, b)
        assert len(fn.batches) >= 3
        assert all(batch.size <= _PANELS * _GL_ORDER for batch in fn.batches)
        # in order, the batches are the nodes of the one-shot rule
        nodes = np.concatenate(fn.batches)
        assert nodes.tobytes() == ref.batches[0].tobytes()
        assert np.all(np.ptp(nodes.reshape(-1, _GL_ORDER), axis=1) > 0.0)
        # fewer than half of the seed's 2 * _GRADE_PANELS panels an interval
        assert fn.evaluations < _GRADE_PANELS * _GL_ORDER * a.size

    @pytest.mark.parametrize("spec", ["thm2_sqrt", "power:2"])
    def test_chunks_change_no_bit(self, spec):
        h = BAExtension(make_map(spec)).line_map
        fn = _Counting()
        a, b = _random_intervals(n=500)
        _line_integral(fn, a, b)
        assert len(fn.batches) >= 3
        got = _line_integral(h, a, b)
        alone = np.concatenate([_line_integral(h, lo, hi) for lo, hi in zip(a, b)])
        assert got.tobytes() == alone.tobytes()
        assert got.tobytes() == _one_shot_line_integral(h, a, b).tobytes()

    def test_jet_of_a_chunked_batch_matches_its_halves(self, thm2_map, monkeypatch):
        # disc points near the cusp's image, 1 - |z| down to 2^-20
        theta = np.linspace(-0.5, 0.5, 64)
        z = (radial_schedule(20)[:, None] * np.exp(1j * theta)).ravel()
        batches = []

        def recording(fn, a, b):
            counter = _Counting()
            _line_integral(counter, a, b)
            batches.append(len(counter.batches))
            return _line_integral(fn, a, b)

        with monkeypatch.context() as m:
            m.setattr(extension, "_line_integral", recording)
            whole = thm2_map.jet(z)
        assert len(batches) == 2 and min(batches) >= 3
        half = z.size // 2
        parts = thm2_map.jet(z[:half]), thm2_map.jet(z[half:])
        for k in range(3):
            joined = np.concatenate([parts[0][k], parts[1][k]])
            assert whole[k].tobytes() == joined.tobytes()


class TestHalfplaneExtension:
    def test_identity_closed_form(self):
        # the averaged extension of h(x) = x is (x, y/2)
        ext = BAExtension(make_map("identity"))
        x = np.array([-2.0, 0.0, 0.7, 5.0])
        y = np.array([0.5, 1.0, 0.01, 3.0])
        u, v = ext.halfplane(x, y)
        assert np.allclose(u, x, atol=1e-10)
        assert np.allclose(v, y / 2.0, atol=1e-10)

    def test_affine_equivariance(self):
        # h(x) = 2x extends to (2x, y); built directly, bypassing the circle
        ext = BAExtension.__new__(BAExtension)
        ext.line_map = lambda x: 2.0 * np.asarray(x, dtype=float)
        u, v = ext.halfplane(np.array([0.3]), np.array([0.8]))
        assert abs(u[0] - 0.6) < 1e-10
        assert abs(v[0] - 0.8) < 1e-10

    def test_upper_halfplane_preserved(self):
        ext = BAExtension(make_map("thm2_sqrt"))
        rng = np.random.default_rng(5)
        x = rng.normal(size=40) * 3
        y = 10.0 ** rng.uniform(-4, 1, size=40)
        _, v = ext.halfplane(x, y)
        assert np.all(v > 0)


class TestDiscExtension:
    def test_boundary_agreement(self, thm2_map):
        # radial limits approach the boundary angle map
        t = np.linspace(-np.pi + 0.05, np.pi - 0.05, 64)
        z = (1.0 - 1e-6) * np.exp(1j * t)
        w = thm2_map(z)
        target = thm2_map.boundary_point(t)
        assert np.max(np.abs(w - target)) < 0.02

    def test_maps_into_disc(self, thm2_map, pow2_map):
        rng = np.random.default_rng(2)
        z = 0.999 * np.sqrt(rng.random(200)) * np.exp(2j * np.pi * rng.random(200))
        for phi in (thm2_map, pow2_map):
            assert np.all(np.abs(phi(z)) < 1.0)

    def test_identity_extension_radial_closed_form(self):
        # conjugating (x, y/2) through the Cayley map sends r to (1+3r)/(3+r)
        # on the real diameter
        phi = ba_extend(make_map("identity"))
        r = np.array([0.0, 0.25, 0.5, 0.9, 0.99])
        assert np.max(np.abs(phi(r + 0j) - (1 + 3 * r) / (3 + r))) < 1e-9

    @pytest.mark.parametrize("spec", ["thm2_sqrt", "power:2"])
    def test_seed_rule_along_radial_schedule(self, spec, monkeypatch):
        # beyond r = 1 - 2^-12 both rules carry the same rounding noise of
        # BAExtension.halfplane, so the deep bound is looser
        theta = np.linspace(-np.pi, np.pi, 401)
        z = (radial_schedule()[:, None] * np.exp(1j * theta)).ravel()
        with monkeypatch.context() as m:
            m.setattr(extension, "_line_integral", _seed_line_integral)
            ref = make_disc_map(spec)(z)
        rel = np.abs(make_disc_map(spec)(z) - ref) / (1.0 - np.abs(ref))
        rel = rel.reshape(-1, theta.size)
        assert np.max(rel[:12]) <= 1e-10
        assert np.max(rel) <= 1e-6

    def test_2d_input_matches_raveled_call(self, thm2_map):
        z = np.array([[0.1 + 0.2j, 0.5j, -0.3], [0.9, 0.2 - 0.7j, 0j]])
        w = thm2_map(z)
        assert w.shape == z.shape
        assert w.tobytes() == thm2_map(z.ravel()).tobytes()

    def test_extension_interior_point_stays_interior(self, thm2_map):
        w = complex(thm2_map(np.array([0j]))[0])
        assert abs(w) < 0.9


def _dilatation(phi, grid=16):
    """|Dphi|^2 / J on a grid x grid polar grid, and the count of points with
    J <= 0, which the ratios leave out."""
    r = (np.arange(grid) + 0.5) / (grid + 0.5)
    th = -np.pi + 2.0 * np.pi * (np.arange(grid) + 0.5) / grid
    op, jac = phi.differential((r[:, None] * np.exp(1j * th)[None, :]).ravel())
    bad = jac <= 0
    return op[~bad] ** 2 / jac[~bad], int(np.count_nonzero(bad))


class TestDilatation:
    def test_identity_extension(self):
        ratios, violations = _dilatation(ba_extend(make_map("identity")))
        assert violations == 0
        assert np.quantile(ratios, 0.99) == pytest.approx(2.0, rel=0.01)

    def test_moebius_extension_nearly_conformal(self):
        ratios, violations = _dilatation(ba_extend(make_map("moebius:0.5")))
        assert violations == 0
        assert np.quantile(ratios, 0.99) == pytest.approx(2.0, rel=0.05)

    def test_exact_conformal_members(self, identity_map, moebius_map):
        for phi in (identity_map, moebius_map):
            ratios, violations = _dilatation(phi)
            assert violations == 0
            assert np.median(ratios) == pytest.approx(1.0, abs=1e-12)

    def test_sqrt_extension(self, thm2_map):
        ratios, violations = _dilatation(thm2_map)
        assert violations == 0
        assert np.median(ratios) >= 1.0 - 1e-6
        assert np.quantile(ratios, 0.99) < 4.0

    def test_ratio_at_least_one(self, pow2_map):
        ratios, violations = _dilatation(pow2_map)
        assert violations == 0
        assert np.median(ratios) >= 1.0 - 1e-6


class TestInvert:
    @pytest.mark.parametrize("spec", ["identity", "moebius:0.5", "thm2_sqrt",
                                      "power:2"])
    def test_round_trip(self, spec, catalog_maps):
        label = {"identity": "identity", "moebius:0.5": "moebius(0.5)",
                 "thm2_sqrt": "thm2_sqrt", "power:2": "power(2)"}[spec]
        phi = catalog_maps[label]
        for w in (0.0, 0.3, -0.5j, 0.7 * np.exp(2.2j), 0.95):
            z = invert(phi, w)
            assert abs(complex(phi(np.array([z]))[0]) - w) < 1e-7
            assert abs(z) < 1.0

    def test_moebius_closed_form(self, moebius_map):
        # phi^{-1}(w) = (w + a)/(1 + a w)
        w = 0.4 - 0.2j
        z = invert(moebius_map, w)
        assert abs(z - (w + 0.5) / (1 + 0.5 * w)) < 1e-9


def _circular_distortion(phi, balls, n_boundary=24):
    """diam(phi^{-1}(B)) / (1 - |phi^{-1}(center)|) for each hyperbolic ball,
    from the preimages of 24 points just inside its rim."""
    ratios = []
    for ball in balls:
        thetas = 2.0 * np.pi * np.arange(n_boundary) / n_boundary
        rim = ball.center + ball.radius * 0.999 * np.exp(1j * thetas)
        pre = invert(phi, np.concatenate(([ball.center], rim)))
        diam = float(np.max(np.abs(pre[1:, None] - pre[None, 1:])))
        ratios.append(diam / (1.0 - abs(pre[0])))
    return ratios


class TestCircularDistortion:
    def test_conformal_band(self, moebius_map):
        balls = [HyperbolicBall(center=(1 - 2.0 ** -k) * np.exp(0.4j), ratio=0.5)
                 for k in range(1, 6)]
        ratios = _circular_distortion(moebius_map, balls)
        assert all(0.2 < r < 3.0 for r in ratios)

    def test_degenerate_ball_matches_derivative(self, moebius_map):
        # tiny ball: diam(phi^{-1}(B)) ~ 2 r_B |(phi^{-1})'(center)|
        ball = HyperbolicBall(center=0.5, ratio=0.05)
        zc = invert(moebius_map, 0.5)
        dphi = abs(complex(moebius_map.complex_derivative(np.array([zc]))[0]))
        expected = 2.0 * ball.radius * 0.999 / dphi / (1.0 - abs(zc))
        ratio = _circular_distortion(moebius_map, [ball])[0]
        assert ratio == pytest.approx(expected, rel=0.02)

    def test_qc_band(self, thm2_map):
        balls = [HyperbolicBall(center=(1 - 2.0 ** -k), ratio=0.5)
                 for k in range(1, 5)]
        ratios = _circular_distortion(thm2_map, balls)
        assert all(0.05 < r < 10.0 for r in ratios)


class TestConeImageAperture:
    def test_identity_recovers_aperture(self, identity_map):
        ap = cone_image_aperture(identity_map, 1.0 + 0j, c=2.0)
        assert ap == pytest.approx(2.0, rel=1e-6)

    def test_monotone_in_aperture(self, thm2_map):
        xi = np.exp(0.9j)
        a1 = cone_image_aperture(thm2_map, xi, c=1.5)
        a2 = cone_image_aperture(thm2_map, xi, c=3.0)
        assert a2 >= a1

    def test_stable_under_sample_doubling(self, thm2_map):
        xi = np.exp(1.3j)
        a1 = cone_image_aperture(thm2_map, xi, c=2.0, samples=96)
        a2 = cone_image_aperture(thm2_map, xi, c=2.0, samples=192)
        assert abs(a2 - a1) <= 0.1 * a1

    def test_validation(self, identity_map):
        with pytest.raises(ValueError):
            cone_image_aperture(identity_map, 1.0 + 0j, c=1.0)


class TestCatalogConstruction:
    def test_conformal_flags(self):
        assert identity_disc_map().complex_derivative is not None
        assert moebius_disc_map(0.3).complex_derivative is not None
        assert make_disc_map("thm2_sqrt").complex_derivative is None

    def test_make_disc_map_dispatch(self):
        assert make_disc_map("identity").label == "identity"
        assert make_disc_map("power:2").label == "ba[power(2)]"
        assert make_disc_map("thm2_sqrt").label == "ba[thm2_sqrt]"

    def test_moebius_without_parameter_is_a_value_error(self):
        with pytest.raises(ValueError, match="one parameter"):
            make_disc_map("moebius")

    def test_moebius_exact_interior(self):
        phi = moebius_disc_map(0.5)
        z = 0.3 + 0.2j
        assert abs(complex(phi(np.array([z]))[0]) - (z - 0.5) / (1 - 0.5 * z)) < 1e-15

    def test_wirtinger_conformal_exact(self, moebius_map):
        z = np.array([0.2 + 0.1j])
        dz, dzb = moebius_map.jet(z)[1:]
        assert abs(dzb[0]) == 0.0
        assert abs(dz[0] - 0.75 / (1 - 0.5 * z[0]) ** 2) < 1e-14

    def test_wirtinger_identity_extension_dilatation_two(self):
        phi = ba_extend(make_map("identity"))
        dz, dzb = phi.jet(np.array([0.4 + 0.3j, -0.2j, 0.7]))[1:]
        assert np.all(np.abs(dzb) < np.abs(dz))
        # dilatation of this extension is exactly 2: (|dz|+|dzb|)^2 = 2 J
        K = (np.abs(dz) + np.abs(dzb)) ** 2 / (np.abs(dz) ** 2 - np.abs(dzb) ** 2)
        assert np.allclose(K, 2.0, rtol=1e-9)

    def test_generic_map_has_no_jet(self, moebius_map):
        phi = DiscQCMap(moebius_map.boundary, moebius_map.interior)
        with pytest.raises(TypeError, match="no jet"):
            phi.jet(np.array([0.2 + 0.1j, -0.6j, 0.9]))


class TestKinkAngles:
    @staticmethod
    def _cayley(r, t):
        z = r * np.exp(1j * np.asarray(t))
        return 1j * (1.0 - z) / (1.0 + z)

    def test_window_end_on_the_cusp_along_the_schedule(self, thm2_map):
        # the averaging window [x - y, x + y] ends at the line map's cusp 0
        for r in radial_schedule():
            angles = thm2_map.kink_angles(r)
            assert len(set(angles)) == 4
            w = self._cayley(r, angles)
            assert np.allclose(np.abs(w.real), w.imag, rtol=1e-6, atol=0.0)

    def test_cusp_off_zero(self):
        # a cusp at angle c sits at tan(c/2) on the line
        c = 1.0
        h = BoundaryHomeo(lambda t: np.asarray(t, dtype=float),
                          lambda s: np.asarray(s, dtype=float), cusps=(c,))
        phi = ba_extend(h)
        for r, count in ((0.6, 2), (0.9, 4), (0.999, 4)):
            angles = phi.kink_angles(r)
            assert len(set(angles)) == count
            w = self._cayley(r, angles)
            assert np.allclose(np.abs(w.real - np.tan(c / 2)), w.imag,
                               rtol=1e-9, atol=0.0)

    def test_none_near_the_centre(self, thm2_map):
        # (1 - r^2) / 2r >= 1: every window [x - y, x + y] contains 0
        assert thm2_map.kink_angles(0.4) == ()

    def test_none_for_conformal_or_smooth_maps(self, identity_map, moebius_map):
        assert identity_map.kink_angles(0.9) == ()
        assert moebius_map.kink_angles(0.9) == ()
        assert ba_extend(make_map("moebius:0.5")).kink_angles(0.9) == ()
        assert make_map("power:2").cusps == (0.0,)


_ANGLES = -np.pi + 2.0 * np.pi * np.arange(401) / 401


def _fd_jet(phi, z):
    """Reference jet of phi: central finite differences, step 1e-5 (1 - |z|)."""
    h = 1e-5 * (1.0 - np.abs(z))
    fx = (phi(z + h) - phi(z - h)) / (2.0 * h)
    fy = (phi(z + 1j * h) - phi(z - 1j * h)) / (2.0 * h)
    return phi(z), 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


class _CountingBA(BAExtension):
    """BA extension that records the batch size of every jet and call."""

    def __init__(self, homeo):
        super().__init__(homeo)
        self.jets, self.calls = [], []

    def jet(self, z):
        self.jets.append(np.size(z))
        return super().jet(z)

    def __call__(self, z):
        self.calls.append(np.size(z))
        return super().__call__(z)


def _counting_map(spec):
    h = make_map(spec)
    return DiscQCMap(h, _CountingBA(h))


class TestJet:
    @pytest.mark.parametrize("spec", ["thm2_sqrt", "power:2"])
    def test_value_is_the_call_bitwise(self, spec):
        phi = make_disc_map(spec)
        for r in (0.3, 0.9, 1.0 - 2.0 ** -20):
            z = r * np.exp(1j * _ANGLES)
            assert np.array_equal(phi.jet(z)[0], phi(z))

    @pytest.mark.parametrize("spec", ["thm2_sqrt", "power:2"])
    @pytest.mark.parametrize("r", [0.5, 0.9])
    def test_closed_form_matches_finite_differences(self, spec, r):
        phi = make_disc_map(spec)
        z = r * np.exp(1j * _ANGLES)
        _, dz, dzb = phi.jet(z)
        _, fz, fzb = _fd_jet(phi, z)
        scale = np.abs(fz) + np.abs(fzb)
        assert np.max(np.abs(dz - fz) / scale) < 1e-6
        assert np.max(np.abs(dzb - fzb) / scale) < 1e-6

    @pytest.mark.parametrize("spec", ["thm2_sqrt", "power:2"])
    def test_jacobian_positive_near_the_boundary(self, spec):
        phi = make_disc_map(spec)
        z = (1.0 - 2.0 ** -20) * np.exp(1j * _ANGLES)
        _, jac = phi.differential(z)
        assert np.all(jac > 0)

    def test_shape_follows_input(self, thm2_map):
        z = np.array([[0.1 + 0.2j, -0.5, 0.3j], [0.7, -0.1j, 0.2 - 0.6j]])
        flat = thm2_map.jet(z.ravel())
        for got, want in zip(thm2_map.jet(z), flat):
            assert got.shape == z.shape
            assert np.array_equal(got.ravel(), want)


class TestBatchedInvert:
    _TARGETS = np.array([0.0, 0.3, -0.5j, 0.7 * np.exp(2.2j), 0.95,
                         0.999 * np.exp(-0.4j)])

    @pytest.mark.parametrize("spec", ["thm2_sqrt", "power:2"])
    def test_matches_scalar_calls(self, spec):
        phi = make_disc_map(spec)
        batch = invert(phi, self._TARGETS)
        assert batch.shape == self._TARGETS.shape
        scalar = np.array([invert(phi, w) for w in self._TARGETS])
        assert np.all(np.abs(phi(batch) - self._TARGETS) < 1e-11)
        assert np.allclose(batch, scalar, rtol=0.0, atol=1e-9)

    def test_one_jet_call_per_iteration(self):
        phi = _counting_map("thm2_sqrt")
        iterations = []
        for w in self._TARGETS:
            phi.interior.jets.clear()
            invert(phi, w)
            iterations.append(len(phi.interior.jets))
        phi.interior.jets.clear()
        invert(phi, self._TARGETS)
        # call k runs on the lanes that need more than k iterations
        expected = [sum(n > k for n in iterations) for k in range(max(iterations))]
        assert phi.interior.jets == expected
        assert phi.interior.calls == []

    def test_non_convergence_raises(self, thm2_map):
        with pytest.raises(RuntimeError, match="did not converge"):
            invert(thm2_map, np.array([0.3, 0.6j]), max_iter=1)


class TestInitialGuesses:
    # a point of the ball D(-0.75, 0.125) that thm2_sqrt's default guess,
    # |w| times the boundary preimage of w's direction, does not reach
    _NODE = -0.8086 + 0.1097j

    def test_linearised_seed_converges(self, thm2_map):
        zc = invert(thm2_map, -0.75)
        _, dz, dzb = thm2_map.jet(zc)
        dw = self._NODE + 0.75
        jac = abs(dz) ** 2 - abs(dzb) ** 2
        seed = zc + (np.conj(dz) * dw - dzb * np.conj(dw)) / jac
        z = invert(thm2_map, self._NODE, z0=seed)
        assert abs(thm2_map(z) - self._NODE) < 1e-11

    def test_converged_guesses_take_one_jet_call(self):
        phi = _counting_map("thm2_sqrt")
        targets = TestBatchedInvert._TARGETS
        z = invert(phi, targets)
        phi.interior.jets.clear()
        again = invert(phi, targets, z0=z)
        assert phi.interior.jets == [targets.size]
        assert np.array_equal(again, z)

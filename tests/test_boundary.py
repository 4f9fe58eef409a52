import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dataclasses import replace
from itertools import count

from qchardy.tail import CONVERGED, DIVERGING, UNDETERMINED, read_tail
from qchardy.boundary import (
    BoundaryHomeo,
    dyadic_edges,
    is_lipschitz_inverse,
    lipschitz_modulus_inverse,
    lipschitz_reading,
    lipschitz_tail,
)
from qchardy.extension import make_disc_map, parse_map_spec

CATALOG = ("identity", "thm2_sqrt", "power:2", "power:0.75", "moebius:0.5",
           "moebius:-0.7")

angles = st.floats(-np.pi, np.pi)

NESTED_MAPS = ("identity", "thm2_sqrt", "power:0.3", "power:2", "moebius:0.99",
               "moebius:-0.99")


def _swept_modulus(h, depth):
    """The former depth-d modulus: h^{-1} on the depth-d edges, swept alone."""
    pre = h.inverse(dyadic_edges(depth))
    return float(np.max(np.diff(pre)) / (np.pi * 2.0 ** (-depth)))


def _swept_reading(h, depth):
    """The former lipschitz_reading: one full sweep per depth read, each
    modulus known to its rounding 4 eps 2^d m_d."""
    moduli = (_swept_modulus(h, d) for d in count(1))
    reading = read_tail(((m, 4 * np.finfo(float).eps * 2.0 ** d * m)
                         for d, m in enumerate(moduli, 1)), depth)
    return replace(reading, error=0.0)


def _angle_map_derivative(spec, t):
    """Closed-form alpha'(t) of a catalog map, the reference for its forward."""
    name, parameters = parse_map_spec(spec)
    if name == "identity":
        return np.ones_like(t)
    if name == "moebius":
        a, = parameters
        return (1.0 - a * a) / (1.0 - 2.0 * a * np.cos(t) + a * a)
    gamma = parameters[0] if parameters else 0.5
    return gamma * (np.abs(t) / np.pi) ** (gamma - 1.0)


class TestCatalog:
    def test_sqrt_map_values(self):
        h = make_disc_map("thm2_sqrt").boundary
        assert abs(h(np.pi / 4) - np.pi / 2) < 1e-14
        assert abs(h(np.pi) - np.pi) < 1e-14
        assert abs(h(-np.pi / 4) + np.pi / 2) < 1e-14

    def test_power_map_values(self):
        h = make_disc_map("power:2").boundary
        assert abs(h(np.pi / 2) - np.pi / 4) < 1e-14
        half = make_disc_map("power:0.5").boundary
        t = np.linspace(-np.pi, np.pi, 101)
        assert np.allclose(half(t), make_disc_map("thm2_sqrt").boundary(t))

    def test_power2_inverse_is_sqrt_map(self):
        t = np.linspace(-np.pi, np.pi, 101)
        assert np.allclose(make_disc_map("power:2").boundary.inverse(t),
                           make_disc_map("thm2_sqrt").boundary(t))

    def test_moebius_matches_disc_automorphism(self):
        a = 0.5
        h = make_disc_map(f"moebius:{a}").boundary
        t = np.linspace(-3.0, 3.0, 41)
        z = np.exp(1j * t)
        expected = np.angle((z - a) / (1.0 - a * z))
        assert np.allclose(h(t), expected, atol=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_disc_map("power:0")
        with pytest.raises(ValueError):
            make_disc_map("power:-1")
        with pytest.raises(ValueError):
            make_disc_map("moebius:1.0")
        with pytest.raises(ValueError):
            make_disc_map("nosuchmap")
        with pytest.raises(ValueError):
            parse_map_spec("weird")

    @pytest.mark.parametrize("spec", [
        "identity:5", "thm2_sqrt:0.3", "power", "moebius:0.5,0.2",
        "power:nan", "moebius:inf", "power:-inf"])
    def test_entry_needs_its_count_of_finite_parameters(self, spec):
        with pytest.raises(ValueError):
            parse_map_spec(spec)

    @pytest.mark.parametrize("spec, parameter", [
        ("power:2,", "''"), ("power:abc", "'abc'"), ("moebius:0.5x", "'0.5x'"),
        ("identity:", "''"), ("thm2_sqrt:", "''"), ("power:", "''")])
    def test_unparsable_parameter_names_the_map(self, spec, parameter):
        with pytest.raises(ValueError, match=re.escape(
                f"map {spec!r} has a parameter {parameter} that is not a number")):
            parse_map_spec(spec)

    def test_parse_map_spec(self):
        assert parse_map_spec("power:2") == ("power", (2.0,))
        assert parse_map_spec("identity") == ("identity", ())

    @pytest.mark.parametrize("spec", CATALOG)
    def test_endpoints_fixed(self, spec):
        h = make_disc_map(spec).boundary
        assert abs(h(np.pi) - np.pi) < 1e-12
        assert abs(h(-np.pi) + np.pi) < 1e-12

    @pytest.mark.parametrize("spec", CATALOG)
    def test_inverse_round_trip(self, spec):
        h = make_disc_map(spec).boundary
        t = np.linspace(-np.pi, np.pi, 1025)
        assert np.max(np.abs(h.inverse(h(t)) - t)) < 1e-10
        assert np.max(np.abs(h(h.inverse(t)) - t)) < 1e-10

    @pytest.mark.parametrize("spec", CATALOG)
    def test_derivative_matches_fd(self, spec):
        h = make_disc_map(spec).boundary
        t = np.linspace(-2.8, 2.8, 57)
        t = t[np.abs(t) > 0.05]
        eps = 1e-6
        fd = (h(t + eps) - h(t - eps)) / (2 * eps)
        assert np.max(np.abs(_angle_map_derivative(spec, t) - fd)
                      / np.abs(fd)) < 1e-7

    def test_monotonicity_validation(self):
        with pytest.raises(ValueError):
            BoundaryHomeo(lambda t: -np.asarray(t, dtype=float),
                          lambda s: -np.asarray(s, dtype=float))
        with pytest.raises(ValueError):
            BoundaryHomeo(lambda t: 0.5 * np.asarray(t, dtype=float),
                          lambda s: 2.0 * np.asarray(s, dtype=float))

    @pytest.mark.parametrize("a", [-0.9998, -0.9999, -0.99999])
    def test_a_steep_moebius_end_is_fixed_by_its_inverse(self, a):
        # the slope (1 - a)/(1 + a) at +-pi amplifies the rounding of pi past
        # 1e-12; the inverse, flat there, fixes +-pi to 1e-12
        h = make_disc_map(f"moebius:{a}").boundary
        ends = np.array([-np.pi, np.pi])
        assert np.max(np.abs(h(ends) - ends)) > 1e-12
        assert np.max(np.abs(h.inverse(ends) - ends)) <= 1e-12

    def test_a_map_that_misses_pi_is_rejected(self):
        # strictly increasing, but neither it nor its inverse fixes +-pi
        with pytest.raises(ValueError, match="angle map must fix -pi and pi"):
            BoundaryHomeo(lambda t: 0.999999 * np.asarray(t, dtype=float),
                          lambda s: np.asarray(s, dtype=float) / 0.999999)

    @given(angles)
    def test_lifted_periodicity(self, t):
        # the Moebius angle map is a lift: defined on the whole line and
        # commuting with t -> t + 2 pi
        h = make_disc_map("moebius:0.3").boundary
        assert abs(h(t + 2 * np.pi) - (h(t) + 2 * np.pi)) < 1e-10

    def test_map_point_on_circle(self):
        h = make_disc_map("thm2_sqrt").boundary
        z = h.map_point(np.linspace(-np.pi, np.pi, 33))
        assert np.allclose(np.abs(z), 1.0)


class TestDyadicEstimators:
    def test_dyadic_edges(self):
        e = dyadic_edges(3)
        assert len(e) == 17
        assert abs(e[1] - e[0] - np.pi / 8) < 1e-14

    def test_identity_modulus_is_one(self):
        moduli = lipschitz_modulus_inverse(make_disc_map("identity").boundary, 8)
        assert np.allclose(moduli, 1.0, atol=1e-12)
        assert is_lipschitz_inverse(moduli)

    def test_sqrt_map_modulus_tends_to_two(self):
        moduli = lipschitz_modulus_inverse(make_disc_map("thm2_sqrt").boundary, 10)
        # the worst dyadic arc ends at angle pi * 2^{-d}; its preimage length
        # over its length tends to 2 from below
        assert moduli[-1] == pytest.approx(2.0, rel=0.02)
        assert np.all(np.diff(moduli) >= -1e-12)
        assert is_lipschitz_inverse(moduli)

    def test_power2_modulus_closed_form(self):
        moduli = lipschitz_modulus_inverse(make_disc_map("power:2").boundary, 10)
        for d in (6, 8, 10):
            assert moduli[d - 1] == pytest.approx(2.0 ** (d / 2.0), rel=1e-12)
        assert not is_lipschitz_inverse(moduli)

    def test_classification_rules(self):
        assert is_lipschitz_inverse([1.0, 1.0, 1.0, 1.0])
        assert lipschitz_tail([1.0, 2.0, 4.0, 8.0, 16.0])[0] == DIVERGING
        assert not is_lipschitz_inverse([1.0, 2.0, 4.0, 8.0, 16.0])
        # too short to decide, hence not Lipschitz in the boolean view
        assert lipschitz_tail([1.0, 1.5, 1.75])[0] == UNDETERMINED
        assert not is_lipschitz_inverse([1.0, 1.5, 1.75])
        with pytest.raises(ValueError):
            lipschitz_modulus_inverse(make_disc_map("identity").boundary, 0)

    @pytest.mark.parametrize("spec", NESTED_MAPS)
    def test_nested_moduli_are_the_per_depth_sweeps_bitwise(self, spec):
        # every 2^(16-d)-th depth-16 edge is a depth-d edge, bit for bit
        h = make_disc_map(spec).boundary
        swept = [_swept_modulus(h, d) for d in range(1, 17)]
        for depth in (1, 2, 10, 16):
            assert lipschitz_modulus_inverse(h, depth) == swept[:depth]

    @pytest.mark.parametrize("spec", NESTED_MAPS)
    def test_deeper_depths_add_midpoints_bitwise(self, spec):
        # read from depth 1, every depth past it is refined by midpoints
        h = make_disc_map(spec).boundary
        reading = lipschitz_reading(h, lipschitz_modulus_inverse(h, 1))
        assert reading == _swept_reading(h, 1)
        assert reading.at > 1

    @pytest.mark.parametrize("spec, at", [("moebius:0.99", 11),
                                          ("moebius:0.999", 14)])
    def test_deepened_readings_are_the_swept_ones(self, spec, at):
        h = make_disc_map(spec).boundary
        reading = lipschitz_reading(h, lipschitz_modulus_inverse(h, 10))
        former = _swept_reading(h, 10)
        assert (reading.value, reading.classification, reading.at) == (
            former.value, CONVERGED, at)
        assert reading == former

    def test_rounding_floor_grows_with_depth(self):
        # a flat modulus with noise of a few ulps times 2^d reads converged
        moduli = lipschitz_modulus_inverse(make_disc_map("identity").boundary, 16)
        assert lipschitz_tail(moduli) == (CONVERGED,
                                          "last 3 increments within error of 0")

    @pytest.mark.parametrize("spec, depth", [("moebius:0.99", 11),
                                             ("moebius:0.999", 14)])
    def test_moebius_moduli_settle_deeper(self, spec, depth):
        # the inverse of moebius(a) is (1+a)/(1-a)-Lipschitz, but its moduli
        # keep growing until the arcs resolve the map's length scale 1 - a
        moduli = lipschitz_modulus_inverse(make_disc_map(spec).boundary, 16)
        verdicts = [lipschitz_tail(moduli[:d])[0] for d in range(10, 17)]
        assert DIVERGING not in verdicts
        assert verdicts.index(CONVERGED) + 10 == depth
        assert set(verdicts[:depth - 10]) <= {UNDETERMINED}

    def test_moebius_0999_rho_falls_faster_each_step(self):
        # rho = 1.92, 1.83, 1.66 at depth 10: above 1 but falling faster at
        # every step, which is undetermined, not diverging
        moduli = lipschitz_modulus_inverse(make_disc_map("moebius:0.999").boundary, 10)
        d = np.diff(moduli)
        assert d[-3:] / d[-4:-1] == pytest.approx([1.92, 1.83, 1.66], abs=0.005)
        assert lipschitz_tail(moduli)[0] == UNDETERMINED

    def test_moebius_is_lipschitz(self):
        moduli = lipschitz_modulus_inverse(make_disc_map("moebius:0.5").boundary, 8)
        assert is_lipschitz_inverse(moduli)
        # sup of (phi^{-1})' = (1+a)/(1-a) = 3 bounds every dyadic modulus
        assert max(moduli) <= 3.0 + 1e-12


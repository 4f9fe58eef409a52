import numpy as np
import pytest

from qchardy.functions import (
    AnalyticFunction,
    cauchy_kernel,
    compose,
    hardy_kernel,
)


class TestBasicFunctions:
    """AnalyticFunction hands its callables complex arrays, whatever the input."""

    def test_constant(self):
        f = AnalyticFunction(lambda z: np.full(z.shape, 2 - 1j),
                             lambda z: np.zeros(z.shape, dtype=z.dtype))
        z = [0j, 0.5, -0.3j]
        assert np.all(f(z) == 2 - 1j)
        assert f.deriv(z).dtype == complex and np.all(f.deriv(z) == 0)

    def test_monomial(self):
        f = AnalyticFunction(lambda z: z ** 3, lambda z: 3 * z ** 2)
        assert abs(complex(f(np.array([0.5j]))[0]) - (0.5j) ** 3) < 1e-15
        assert abs(complex(f.deriv(np.array([0.5]))[0]) - 3 * 0.25) < 1e-15
        assert f(np.array([-1.0])).dtype == complex

class TestHardyKernel:
    def test_values(self):
        g = hardy_kernel(0.9, 2.0)
        assert abs(complex(g(np.array([0j]))[0]) - 1.0) < 1e-15
        assert abs(complex(g(np.array([0.9 + 0j]))[0]) - 1.0 / 0.19) < 1e-12

    def test_zero_center_is_constant(self):
        g = hardy_kernel(0.0, 1.0)
        assert g.singular_angles == ()
        assert np.all(g(np.array([0.5j, -0.2])) == 1.0)

    def test_singularity_metadata(self):
        g = hardy_kernel(0.5j, 1.0)
        (angle,) = g.singular_angles
        assert angle == pytest.approx(np.pi / 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            hardy_kernel(1.0, 2.0)
        with pytest.raises(ValueError):
            hardy_kernel(0.5, 0.0)

    def test_deriv_matches_fd(self):
        g = hardy_kernel(0.7 * np.exp(0.3j), 1.5)
        z = np.array([0.2 + 0.4j, -0.6, 0.1j])
        eps = 1e-6
        fd = (g(z + eps) - g(z - eps)) / (2 * eps)
        assert np.max(np.abs(g.deriv(z) - fd) / np.abs(fd)) < 1e-7


class TestCauchyKernel:
    def test_values(self):
        g = cauchy_kernel()
        assert abs(complex(g(np.array([0j]))[0]) - 1.0) < 1e-15
        assert abs(complex(g(np.array([-1.0 + 0j]))[0]) - 0.5) < 1e-15

    def test_boundary_modulus_identity(self):
        # |1 - e^{it}| = 2 |sin(t/2)| on the circle
        g = cauchy_kernel()
        t = np.linspace(0.01, np.pi, 50)
        vals = np.abs(g(np.exp(1j * t)))
        assert np.allclose(vals, 1.0 / (2 * np.sin(t / 2)), rtol=1e-12)


class TestComposite:
    def test_identity_symbol_is_transparent(self, identity_map):
        g = hardy_kernel(0.6, 2.0)
        f = compose(g, identity_map)
        z = np.array([0.3 + 0.2j, -0.5j])
        assert np.allclose(f(z), g(z))
        op, jac = f.differential(z)
        assert np.allclose(op, np.abs(g.deriv(z)), rtol=1e-12)
        assert np.allclose(jac, np.abs(g.deriv(z)) ** 2, rtol=1e-12)

    def test_boundary_trace_formula(self, thm2_map):
        f = compose(cauchy_kernel(), thm2_map)
        t = np.array([0.5, -1.2, 2.0])
        alpha = np.sign(t) * np.sqrt(np.pi * np.abs(t))
        expected = 1.0 / (1.0 - np.exp(1j * alpha))
        assert np.allclose(f.boundary_trace(t), expected, rtol=1e-12)

    def test_boundary_trace_singularity_is_nan(self, thm2_map):
        f = compose(cauchy_kernel(), thm2_map)
        val = f.boundary_trace(np.array([0.0]))
        assert np.isnan(np.abs(val)).all()

    def test_a_symbol_rounding_onto_the_pole_reads_nan_there(self):
        # phi returns exactly 1 at the origin, the Cauchy kernel's pole; the
        # composite is NaN there alone, for an array and for a point
        class Phi:
            def __call__(self, z):
                return np.where(z == 0, 1.0 + 0j, 0.5 * z)

        f = compose(cauchy_kernel(), Phi())
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = f(np.array([0j, 0.5, -0.5j]))
            point = f(0j)
        assert np.isnan(np.abs(vals[0])) and np.isfinite(vals[1:]).all()
        assert np.shape(point) == () and np.isnan(np.abs(point))

    def test_singular_pullback(self, pow2_map):
        # pole direction angle 0 pulls back through alpha^{-1}; for power(2)
        # the inverse is the square-root map so the pullback of 0 stays 0
        f = compose(cauchy_kernel(), pow2_map)
        assert f.singular_angles == (0.0,)
        g = hardy_kernel(0.9 * np.exp(0.5j), 2.0)
        f2 = compose(g, pow2_map)
        (a,) = f2.singular_angles
        assert a == pytest.approx(np.sqrt(np.pi * 0.5))

    def test_chain_rule_conformal(self, moebius_map):
        # for an analytic g and conformal phi: Jf = |g'(phi)|^2 |phi'|^2
        g = hardy_kernel(0.5, 2.0)
        f = compose(g, moebius_map)
        z = np.array([0.2 + 0.3j, -0.4, 0.1j])
        phi_z = moebius_map(z)
        dphi = moebius_map.complex_derivative(z)
        expected = np.abs(g.deriv(phi_z) * dphi) ** 2
        assert np.allclose(f.differential(z)[1], expected, rtol=1e-12)

    def test_dilatation_invariant_under_postcomposition(self, thm2_map):
        # |Df|^2 / Jf equals |Dphi|^2 / Jphi wherever g' != 0
        g = hardy_kernel(0.5, 2.0)
        f = compose(g, thm2_map)
        z = np.array([0.3 + 0.1j, -0.2 + 0.5j])
        op_f, jac_f = f.differential(z)
        op_p, jac_p = thm2_map.differential(z)
        assert np.allclose(op_f ** 2 / jac_f, op_p ** 2 / jac_p, rtol=1e-9)

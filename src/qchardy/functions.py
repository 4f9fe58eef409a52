"""Analytic test functions on the disc and their quasiregular composites.

Each analytic function carries the boundary angles of its singularities, used
to grade quadratures.
"""

from __future__ import annotations

import numpy as np

from .extension import norm_and_jacobian


class AnalyticFunction:
    """Analytic function with evaluation, derivative and grading metadata.

    ``singular_angles`` lists the boundary angles where |f| blows up (for
    kernels with a pole off the closed disc, the angle of nearest approach is
    listed so quadratures still grade there).
    """

    def __init__(self, eval_fn, deriv_fn, singular_angles=()):
        self._eval = eval_fn
        self._deriv = deriv_fn
        self.singular_angles = tuple(singular_angles)

    def __call__(self, z):
        return self._eval(np.asarray(z, dtype=complex))

    def deriv(self, z):
        return self._deriv(np.asarray(z, dtype=complex))


def hardy_kernel(w, p):
    """g(z) = (1 - conj(w) z)^(-2/p), the extremal kernel at w for exponent p.

    The base 1 - conj(w) z has positive real part on the disc, so the principal
    branch is unambiguous.  Bounded on the closed disc (|w| < 1), hence a
    member of every Hardy class; the near-singularity at w/|w|, of width
    1 - |w|, is recorded for quadrature grading.
    """
    w = complex(w)
    p = float(p)
    if abs(w) >= 1:
        raise ValueError("hardy_kernel needs |w| < 1")
    if p <= 0:
        raise ValueError("hardy_kernel needs p > 0")
    s = 2.0 / p
    wb = np.conj(w)
    sing = () if w == 0 else (float(np.angle(w)),)
    return AnalyticFunction(
        lambda z: (1.0 - wb * z) ** (-s),
        lambda z: s * wb * (1.0 - wb * z) ** (-s - 1.0),
        singular_angles=sing,
    )


def cauchy_kernel():
    """g(z) = 1/(1 - z): boundary singularity at angle 0 with exponent 1;
    in H^p exactly for p < 1."""
    return AnalyticFunction(
        lambda z: 1.0 / (1.0 - z),
        lambda z: 1.0 / (1.0 - z) ** 2,
        singular_angles=(0.0,),
    )


def _nan_where_not_finite(v):
    """v with NaN wherever it is not finite, rebuilt only if some value is."""
    return v if np.isfinite(v).all() else np.where(np.isfinite(v), v, np.nan)


class QuasiregularMap:
    """Composite f = g o phi with chain-rule differential.

    Df = g'(phi) . Dphi, so |Df| = |g'(phi)| |Dphi| (operator norms) and
    Jf = |g'(phi)|^2 Jphi.  A value of g o phi that is not finite reads NaN:
    every catalog g is finite on the open disc and no quadrature node lies
    on a singular pullback, so only phi rounding onto one puts it there.
    """

    def __init__(self, g, phi):
        self.g = g
        self.phi = phi

    def __call__(self, z):
        return _nan_where_not_finite(self.g(self.phi(z)))

    def boundary_trace(self, t):
        """f(e^{it}) = g(phi(e^{it})), NaN where it is not finite."""
        zeta = self.phi.boundary.map_point(np.asarray(t, dtype=float))
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return _nan_where_not_finite(self.g(zeta))

    @property
    def singular_angles(self):
        """Boundary singular angles of g pulled back through the boundary map."""
        inv = self.phi.boundary.inverse
        return tuple(float(inv(np.asarray(a))) for a in self.g.singular_angles)

    def differential(self, z):
        """(|Df| operator norm, Jacobian Jf) at interior points z."""
        w, dz, dzb = self.phi.jet(np.asarray(z, dtype=complex))
        gp = np.abs(self.g.deriv(w))
        op, jac = norm_and_jacobian(dz, dzb)
        return gp * op, gp ** 2 * jac


def compose(g, phi):
    """The composition operator applied to g with quasiconformal symbol phi."""
    return QuasiregularMap(g, phi)

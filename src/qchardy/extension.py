"""Quasiconformal selfmaps of the disc.

A boundary homeomorphism is extended to the disc by the Beurling-Ahlfors
averaged extension, conjugated through the Cayley transform: the boundary
angle map is transported to a line homeomorphism via x = tan(t/2), extended to
the upper half-plane by interval averages, and pulled back to the disc.
Conformal members of the catalog (identity, Moebius) are also available with
exact interior evaluation as a control group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryHomeo, MapCatalogEntry, make_map, parse_map_spec
from .geometry import Cone, cone_sample
from .quadrature import gauss_legendre

# fractional panel edges graded toward the anchor endpoint (ratio 3, 14 panels)
_GRADE_RATIO = 3.0
_GRADE_PANELS = 14
_GL_ORDER = 12


def _fractions():
    f = _GRADE_RATIO ** -np.arange(_GRADE_PANELS - 1, -1.0, -1.0)
    return np.concatenate(([0.0], f))


def _reach():
    """kappa such that one _GL_ORDER-node panel of width w reaches double
    precision on an integrand whose only singularity lies kappa * w beyond
    its end.

    Gauss-Legendre converges like rho^(-2n) in the largest Bernstein ellipse
    free of singularities (Trefethen, ATAP ch. 19); a singularity at distance
    d from the end of a panel of width w sits on the ellipse with
    (rho + 1/rho) / 2 = 1 + 2d / w.
    """
    rho = np.finfo(float).eps ** (-0.5 / _GL_ORDER)
    return 0.25 * (rho + 1.0 / rho) - 0.5


_FRACTIONS = _fractions()
_KAPPA = _reach()


def _line_integral(fn, a, b):
    """Vectorized integral of fn over [a_i, b_i], graded toward s = 0.

    Panels shrink geometrically toward c, the point of [a, b] closest to 0,
    which is where the catalog line maps have their cusp.  An inner edge
    c + f (b - c) is kept only while 0 lies within _KAPPA times f |b - c| of
    [a, b], so an interval far from 0 is a single panel; zero-width panels,
    such as the side c -> a when c = a, are never evaluated.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    c = np.clip(0.0, a, b)

    def side(end):
        # edges c -> end; an inner edge not needed collapses onto c
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
    panel_sums = half * (vals.reshape(-1, _GL_ORDER) @ w)
    return np.bincount(row, weights=panel_sums, minlength=a.size)


class BAExtension:
    """Beurling-Ahlfors extension of a circle homeomorphism, via the half-plane."""

    def __init__(self, homeo):
        self.homeo = homeo

    def line_map(self, x):
        """Induced line homeomorphism h(x) = tan(alpha(2 atan x) / 2)."""
        x = np.asarray(x, dtype=float)
        return np.tan(0.5 * self.homeo(2.0 * np.arctan(x)))

    def halfplane(self, x, y):
        """Averaged extension (u, v) of the line map at (x, y), y > 0."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        i1 = _line_integral(self.line_map, x - y, x)
        i2 = _line_integral(self.line_map, x, x + y)
        u = (i1 + i2) / (2.0 * y)
        v = (i2 - i1) / (2.0 * y)
        return u, v

    def _disc(self, zf):
        """Half-plane point x + iy, its extension u + iv and phi at disc
        points zf (1-D)."""
        w = 1j * (1.0 - zf) / (1.0 + zf)
        u, v = self.halfplane(w.real, w.imag)
        phi_hp = u + 1j * v
        return w, u, v, phi_hp, (1j - phi_hp) / (1j + phi_hp)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        out = self._disc(z.ravel())[-1]
        if z.shape == ():
            return complex(out[0])
        return out.reshape(z.shape)

    def jet(self, z):
        """(phi, d_z phi, d_zbar phi) at z, each in the shape of z.

        The partials of the averaged extension are closed forms in the line
        map h at x - y, x and x + y (Beurling & Ahlfors 1956):
            u_x = (h(x+y) - h(x-y)) / 2y,  u_y = (h(x+y) + h(x-y)) / 2y - u/y,
            v_x = (h(x+y) - 2h(x) + h(x-y)) / 2y,  v_y = u_x - v/y,
        chained through the Cayley maps, whose derivatives are -2i/(1+z)^2
        and -2i/(i+F)^2.  phi is bitwise the value of a call at z.
        """
        z = np.asarray(z, dtype=complex)
        zf = z.ravel()
        w, u, v, phi_hp, phi = self._disc(zf)
        x, y = w.real, w.imag
        h_lo, h_mid, h_hi = self.line_map(np.concatenate([x - y, x, x + y])).reshape(3, -1)
        u_x = (h_hi - h_lo) / (2.0 * y)
        u_y = (h_hi + h_lo) / (2.0 * y) - u / y
        v_x = (h_hi - 2.0 * h_mid + h_lo) / (2.0 * y)
        v_y = u_x - v / y
        f_x, f_y = u_x + 1j * v_x, u_y + 1j * v_y
        outer = -2j / (1j + phi_hp) ** 2
        inner = -2j / (1.0 + zf) ** 2
        dz = outer * 0.5 * (f_x - 1j * f_y) * inner
        dzb = outer * 0.5 * (f_x + 1j * f_y) * np.conj(inner)
        return phi.reshape(z.shape), dz.reshape(z.shape), dzb.reshape(z.shape)


class DiscQCMap:
    """Quasiconformal selfmap of the disc with known boundary angle map."""

    def __init__(self, boundary, interior, label="", conformal=False,
                 complex_derivative=None):
        self.boundary = boundary
        self.interior = interior
        self.label = label or boundary.label
        self.conformal = conformal
        self.complex_derivative = complex_derivative

    def __call__(self, z):
        return self.interior(np.asarray(z, dtype=complex))

    def boundary_point(self, t):
        return self.boundary.map_point(t)

    def jet(self, z):
        """(phi, d_z phi, d_zbar phi) at z: exact for conformal maps, closed
        form for Beurling-Ahlfors extensions, otherwise central finite
        differences with step 1e-5 (1 - |z|)."""
        z = np.asarray(z, dtype=complex)
        if self.conformal and self.complex_derivative is not None:
            dz = self.complex_derivative(z)
            return self(z), dz, np.zeros_like(dz)
        if isinstance(self.interior, BAExtension):
            return self.interior.jet(z)
        h = 1e-5 * (1.0 - np.abs(z))
        fx = (self(z + h) - self(z - h)) / (2.0 * h)
        fy = (self(z + 1j * h) - self(z - 1j * h)) / (2.0 * h)
        return self(z), 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)

    def wirtinger(self, z):
        """(d_z phi, d_zbar phi) at z."""
        return self.jet(z)[1:]

    def differential(self, z):
        """(operator norm |Dphi|, Jacobian) at z."""
        return norm_and_jacobian(*self.wirtinger(z))


def norm_and_jacobian(dz, dzb):
    """(operator norm, Jacobian) of the differential with Wirtinger
    derivatives dz, dzb."""
    return np.abs(dz) + np.abs(dzb), np.abs(dz) ** 2 - np.abs(dzb) ** 2


def ba_extend(h):
    """Beurling-Ahlfors extension of a BoundaryHomeo to a DiscQCMap."""
    ext = BAExtension(h)
    return DiscQCMap(h, ext, label=f"ba[{h.label}]")


def identity_disc_map():
    from .boundary import identity_homeo
    return DiscQCMap(identity_homeo(), lambda z: np.asarray(z, dtype=complex),
                     label="identity", conformal=True,
                     complex_derivative=lambda z: np.ones_like(z))


def moebius_disc_map(a):
    from .boundary import moebius_homeo
    a = float(a)
    h = moebius_homeo(a)
    return DiscQCMap(
        h,
        lambda z, a=a: (z - a) / (1.0 - a * z),
        label=f"moebius({a:g})",
        conformal=True,
        complex_derivative=lambda z, a=a: (1.0 - a * a) / (1.0 - a * z) ** 2,
    )


def make_disc_map(entry):
    """Catalog DiscQCMap: conformal members exact, the rest via the extension."""
    if isinstance(entry, str):
        entry = parse_map_spec(entry)
    if entry.name == "identity":
        return identity_disc_map()
    if entry.name == "moebius":
        if len(entry.parameters) != 1:
            raise ValueError("moebius map takes exactly one parameter a")
        return moebius_disc_map(entry.parameters[0])
    return ba_extend(make_map(entry))


@dataclass(frozen=True)
class DilatationSummary:
    median: float
    p99: float
    violations: int
    n_points: int


def dilatation_estimate(phi, grid=16):
    """Distribution of |Dphi|^2 / J over a polar grid; p99 is the working K.

    Points with J <= 0 are counted as distortion violations and excluded from
    the quantiles.
    """
    r = (np.arange(grid) + 0.5) / (grid + 0.5)
    th = -np.pi + 2.0 * np.pi * (np.arange(grid) + 0.5) / grid
    z = (r[:, None] * np.exp(1j * th)[None, :]).ravel()
    op, jac = phi.differential(z)
    bad = jac <= 0
    ratios = (op[~bad] ** 2) / jac[~bad]
    if ratios.size == 0:
        raise RuntimeError("Jacobian non-positive at every grid point")
    return DilatationSummary(
        median=float(np.median(ratios)),
        p99=float(np.quantile(ratios, 0.99)),
        violations=int(np.count_nonzero(bad)),
        n_points=int(z.size),
    )


def _initial_guess(phi, w):
    """|w| times the boundary preimage of w's direction, kept inside the disc."""
    t0 = phi.boundary.inverse(np.angle(w))
    z = np.where(w != 0, np.abs(w) * np.exp(1j * t0), 0j)
    r = np.abs(z)
    return np.where(r >= 1, z * (1 - 1e-9) / np.maximum(r, 1), z)


def invert(phi, w, z0=None, tol=1e-11, max_iter=80):
    """Solve phi(z) = w for interior points by damped Newton iteration.

    w is a point or an array of points, one Newton lane each; z0 holds the
    initial guesses (default: from the boundary inverse angle and |w|).
    Every iteration makes one jet call on the lanes still running and takes
    their quasi-Newton steps from the Wirtinger derivatives.
    """
    targets = np.asarray(w, dtype=complex)
    ws = targets.ravel()
    z = _initial_guess(phi, ws) if z0 is None else np.broadcast_to(z0, targets.shape)
    z = np.array(z, dtype=complex).ravel()
    residual = np.full(ws.size, np.inf)
    running = np.arange(ws.size)
    for it in range(max_iter + 1):  # the last pass only checks the residual
        if running.size == 0:
            break
        val, dz, dzb = phi.jet(z[running])
        f = val - ws[running]
        residual[running] = np.abs(f)
        jac = np.abs(dz) ** 2 - np.abs(dzb) ** 2
        # a NaN residual or Jacobian keeps its lane running, to fail below
        go = ~((residual[running] < tol) | (jac <= 0)) & (it < max_iter)
        running, f, dz, dzb, jac = running[go], f[go], dz[go], dzb[go], jac[go]
        step = (np.conj(dz) * f - dzb * np.conj(f)) / jac
        znew = z[running] - step
        # halve the steps that leave the disc
        out = np.abs(znew) >= 1 - 1e-13
        while np.any(out):
            step[out] *= 0.5
            znew[out] = z[running[out]] - step[out]
            out &= (np.abs(znew) >= 1 - 1e-13) & (np.abs(step) >= 1e-16)
        z[running] = znew
    for t, r in zip(ws, residual):
        if not r < 1e-7:  # a NaN residual fails too
            raise RuntimeError(f"invert({phi.label}, {t}) did not converge "
                               f"(residual {r:.2e})")
    return complex(z[0]) if targets.ndim == 0 else z.reshape(targets.shape)


def circular_distortion_check(phi, balls, n_boundary=24):
    """diam(phi^{-1}(B)) / (1 - |phi^{-1}(center)|) for each hyperbolic ball."""
    ratios = []
    for ball in balls:
        thetas = 2.0 * np.pi * np.arange(n_boundary) / n_boundary
        rim = ball.center + ball.radius * 0.999 * np.exp(1j * thetas)
        pre = invert(phi, np.concatenate(([ball.center], rim)))
        diam = float(np.max(np.abs(pre[1:, None] - pre[None, 1:])))
        ratios.append(diam / (1.0 - abs(pre[0])))
    return ratios


def cone_image_aperture(phi, xi, c=2.0, samples=96):
    """Empirical aperture of the image of the cone at xi under phi:
    sup |phi(z) - phi(xi)| / (1 - |phi(z)|) over a cone sample lattice."""
    if c <= 1:
        raise ValueError("cone aperture must be > 1")
    n_depths = 12
    rays = max(3, int(samples) // n_depths)
    depths = 1.0 - 2.0 ** -np.arange(1, n_depths + 1)
    cone = Cone(vertex=xi, aperture=c)
    z = cone_sample(cone, depths, rays)
    w = phi(z)
    target = complex(phi.boundary_point(float(np.angle(xi))))
    return float(np.max(np.abs(w - target) / (1.0 - np.abs(w))))

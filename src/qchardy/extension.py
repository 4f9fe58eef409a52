"""Quasiconformal selfmaps of the disc.

A boundary homeomorphism is extended to the disc by the Beurling-Ahlfors
averaged extension, conjugated through the Cayley transform: the boundary
angle map is transported to a line homeomorphism via x = tan(t/2), extended to
the upper half-plane by interval averages, and pulled back to the disc.
Conformal members of the catalog (identity, Moebius) are also available with
exact interior evaluation as a control group.
"""

from __future__ import annotations

import numpy as np

from .boundary import identity_homeo, make_map, moebius_homeo, parse_map_spec
from .geometry import Cone, cone_sample
from .quadrature import gauss_legendre

# fractional panel edges graded toward the anchor endpoint (ratio 3, 14 panels)
_GRADE_RATIO = 3.0
_GRADE_PANELS = 14
_GL_ORDER = 12
# live panels per evaluation of the line map: 1024 * _GL_ORDER nodes make
# every float temporary 96 KiB, under glibc's 128 KiB mmap threshold, so the
# temporaries are reused from the heap instead of mapped and faulted in anew
# on every call; smaller chunks cost more Python per call than they save
_PANELS = 1024


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

    fn is called on the nodes of at most _PANELS live panels at a time, in
    panel order, so no temporary of the evaluation outgrows the heap (see
    _PANELS); an empty batch of panels makes no call.  The line maps are
    elementwise and each panel is summed alone, so the chunking changes no
    bit of the result.
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
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    x, w = gauss_legendre(_GL_ORDER)
    panel_sums = np.empty(row.size)
    for start in range(0, row.size, _PANELS):
        chunk = slice(start, start + _PANELS)
        vals = fn((mid[chunk, None] + half[chunk, None] * x).ravel())
        # einsum sums each panel alone, so a point's value does not depend on
        # the batch it is evaluated in; a BLAS product rounds by position
        panel_sums[chunk] = half[chunk] * np.einsum(
            "pk,k->p", vals.reshape(-1, _GL_ORDER), w)
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
    """Quasiconformal selfmap of the disc with known boundary angle map.

    A conformal map is given with its complex derivative, which marks it as
    conformal.
    """

    def __init__(self, boundary, interior, label="", complex_derivative=None):
        self.boundary = boundary
        self.interior = interior
        self.label = label or boundary.label
        self.complex_derivative = complex_derivative

    def __call__(self, z):
        return self.interior(np.asarray(z, dtype=complex))

    def boundary_point(self, t):
        return self.boundary.map_point(t)

    def jet(self, z):
        """(phi, d_z phi, d_zbar phi) at z: exact for conformal maps, closed
        form for Beurling-Ahlfors extensions."""
        z = np.asarray(z, dtype=complex)
        if self.complex_derivative is not None:
            dz = self.complex_derivative(z)
            return self(z), dz, np.zeros_like(dz)
        if isinstance(self.interior, BAExtension):
            return self.interior.jet(z)
        raise TypeError(f"{self.label}: neither conformal nor a "
                        "Beurling-Ahlfors extension, so no jet")

    def differential(self, z):
        """(operator norm |Dphi|, Jacobian) at z."""
        return norm_and_jacobian(*self.jet(z)[1:])

    def kink_angles(self, r):
        """Angles t where phi(r e^{it}) is not smooth in t: none for a
        conformal map, up to four per boundary cusp for a Beurling-Ahlfors
        extension.

        The extension averages the line map over [x - y, x + y], with x + iy
        the Cayley image of r e^{it}, and an end of that window crosses the
        image tan(c/2) of a cusp c where
            2r sin(t - c/2) = (1 + r^2) sin(c/2) +- (1 - r^2) cos(c/2).
        """
        if self.complex_derivative is not None:
            return ()
        angles = []
        for c in self.boundary.cusps:
            for sign in (1.0, -1.0):
                s = ((1.0 + r * r) * np.sin(0.5 * c)
                     + sign * (1.0 - r) * (1.0 + r) * np.cos(0.5 * c)) / (2.0 * r)
                if abs(s) < 1.0:
                    a = float(np.arcsin(s))
                    angles += [0.5 * c + a, 0.5 * c + np.pi - a]
        return tuple(angles)


def norm_and_jacobian(dz, dzb):
    """(operator norm, Jacobian) of the differential with Wirtinger
    derivatives dz, dzb."""
    return np.abs(dz) + np.abs(dzb), np.abs(dz) ** 2 - np.abs(dzb) ** 2


def ba_extend(h):
    """Beurling-Ahlfors extension of a BoundaryHomeo to a DiscQCMap."""
    ext = BAExtension(h)
    return DiscQCMap(h, ext, label=f"ba[{h.label}]")


def identity_disc_map():
    return DiscQCMap(identity_homeo(), lambda z: np.asarray(z, dtype=complex),
                     label="identity",
                     complex_derivative=lambda z: np.ones_like(z))


def moebius_disc_map(a):
    a = float(a)
    h = moebius_homeo(a)
    return DiscQCMap(
        h,
        lambda z, a=a: (z - a) / (1.0 - a * z),
        label=f"moebius({a:g})",
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

"""Quasiconformal selfmaps of the disc.

A BAExtension is the DiscQCMap that extends a boundary homeomorphism by the
Beurling-Ahlfors averaged extension, conjugated through the Cayley transform:
the boundary angle map is transported to a line homeomorphism via x = tan(t/2),
extended to the upper half-plane by interval averages, and pulled back to the
disc.  The conformal catalog maps (identity, Moebius), a control group, are
DiscQCMaps with exact interior evaluation and a closed-form inverse, so
inverting one takes a single jet evaluation instead of a Newton run.

The interval averages integrate the line map h over the windows [x - y, x]
and [x, x + y] of a point x + iy.  A point far from 0, where the catalog line
maps have their cusp, takes one Gauss-Legendre panel per window.  Any other
point reads G at x - y, x and x + y, with G(t) the integral of h from 0 to t
taken from a table of G at 0 and +-2^(j + i/8), eight nodes per binade, built
once per extension.  Each panel takes the fewest nodes, 4 or 6, that reach
double precision at its distance from 0.  The table is anchored at the cusp
at angle 0 only: a map with a cusp elsewhere is integrated as if smooth
there.
"""

from __future__ import annotations

import numpy as np

from . import quadrature
from .boundary import identity_homeo, make_map, moebius_homeo, parse_map_spec
from .geometry import cone_lattice

_MAX_ITER = 80  # Newton steps of a lane before invert judges its residual

# binade exponents of the antiderivative table, nodes +-2^(j + i/8) for
# _LOWEST <= j + i/8 <= _HIGHEST.  A point read from the table has its ends
# within (2 + _KAPPA[6]) y < 8y of 0, and a disc point |z| < 1 in double
# precision has y <= 2 / (1 - |z|) <= 2^54, so every end's nearest node is in
# the table.  An end below 2^_LOWEST is read from node 0; that panel is off
# by at most 2 |t| max|h|, under 3e-22 max|h| y for y >= 2^-55, any disc point
_LOWEST = -128
_HIGHEST = 57
_PER_BINADE = 8
# mantissas (np.frexp) of the nodes 2^(i/8 - 1), 0 <= i < 8, and of the cuts
# between each node and the next, their geometric means: a node's panel to
# any t nearest to it lies 1 / (2^(1/16) - 1) = 22.59 of its widths from 0,
# beyond _KAPPA[4], and a table panel 1 / (2^(1/8) - 1) = 11.05, beyond
# _KAPPA[6]
_MANTISSAS = 2.0 ** (np.arange(_PER_BINADE) / _PER_BINADE - 1.0)
_CUTS = 2.0 ** ((np.arange(_PER_BINADE) + 0.5) / _PER_BINADE - 1.0)


def _reach(order):
    """kappa such that one order-node Gauss-Legendre panel of width w
    reaches double precision on an integrand whose only singularity lies
    kappa * w beyond its end.

    Gauss-Legendre converges like rho^(-2n) in the largest Bernstein ellipse
    free of singularities (Trefethen, ATAP ch. 19); a singularity at distance
    d from the end of a panel of width w sits on the ellipse with
    (rho + 1/rho) / 2 = 1 + 2d / w.
    """
    rho = np.finfo(float).eps ** (-0.5 / order)
    return 0.25 * (rho + 1.0 / rho) - 0.5


# reach of each panel order: kappa_4 = 22.13, kappa_6 = 4.552
_KAPPA = {order: _reach(order) for order in (4, 6)}


def _panel_sums(fn, left, right, order):
    """order-node Gauss-Legendre sums of fn over the panels [left_i,
    right_i] (minus the integral over [right_i, left_i] where right_i <
    left_i).

    fn is called on the nodes of as many panels as fit the batch budget
    quadrature._NODES_PER_CALL (at least one) at a time, in panel order and
    node-major: the first node of every panel of the chunk, then the second,
    and so on; an empty batch makes no call.  The line maps are elementwise
    and each panel is summed alone, so the chunks change no bit of the
    result."""
    x, w = quadrature.gauss_legendre(order)
    half, mid = 0.5 * (right - left), 0.5 * (right + left)
    out = np.empty(half.size)
    panels = max(1, quadrature._NODES_PER_CALL // order)
    for start in range(0, half.size, panels):
        chunk = slice(start, start + panels)
        vals = fn((mid[chunk] + half[chunk] * x[:, None]).ravel()).reshape(order, -1)
        vals = vals * w[:, None]
        # each panel summed alone as einsum("pk,k->p") sums 4 or 6 terms:
        # in two lanes, even nodes and odd ones, added to +0, so a panel of
        # -0 terms sums to +0.  A point's value does not depend on its
        # batch, and the rounding not on the numpy build; a BLAS product
        # rounds by position
        lanes = vals[0:2] + vals[2:4]
        for j in range(4, order, 2):
            lanes += vals[j:j + 2]
        total = lanes[0] + lanes[1]
        total += 0.0
        out[chunk] = half[chunk] * total
    return out


def _binade_table(fn):
    """(nodes, G): rows for t >= 0 and t < 0 of the nodes 0 and
    +-2^(j + i/8), _LOWEST <= j + i/8 <= _HIGHEST, and G, the integral of fn
    from 0 to each node, one 6-node panel per eighth of a binade summed
    outward from 0."""
    k = np.arange(_PER_BINADE * (_HIGHEST - _LOWEST) + 1)
    pos = np.ldexp(_MANTISSAS[k % _PER_BINADE], _LOWEST + 1 + k // _PER_BINADE)
    nodes = np.stack([np.concatenate(([0.0], pos)),
                      np.concatenate(([0.0], -pos))])
    sums = _panel_sums(fn, nodes[:, :-1].ravel(), nodes[:, 1:].ravel(), 6)
    table = np.zeros(nodes.shape)
    table[:, 1:] = np.cumsum(sums.reshape(2, -1), axis=1)
    return nodes, table


class DiscQCMap:
    """Quasiconformal selfmap of the disc with known boundary angle map.

    A conformal map is given with its complex derivative, which marks it as
    conformal, and may be given its inverse w -> phi^{-1}(w) in closed form,
    which invert then uses instead of Newton iteration.  A Beurling-Ahlfors
    extension, the subclass BAExtension, has neither.
    """

    def __init__(self, boundary, interior, label="", complex_derivative=None,
                 inverse=None):
        self.boundary = boundary
        self.interior = interior
        self.label = label or boundary.label
        self.complex_derivative = complex_derivative
        self.inverse = inverse

    def __call__(self, z):
        return self.interior(np.asarray(z, dtype=complex))

    def jet(self, z):
        """(phi, d_z phi, d_zbar phi) at z, exact for a conformal map."""
        if self.complex_derivative is None:
            raise TypeError(f"{self.label}: not conformal, so no jet")
        z = np.asarray(z, dtype=complex)
        dz = self.complex_derivative(z)
        return self(z), dz, np.zeros_like(dz)

    def differential(self, z):
        """(operator norm |Dphi|, Jacobian) at z."""
        return norm_and_jacobian(*self.jet(z)[1:])

    def kink_angles(self, r):
        """Angles t where phi(r e^{it}) is not smooth in t: up to four per
        cusp of the boundary map for a Beurling-Ahlfors extension, so none
        for a conformal map, whose boundary map has no cusp.

        The extension averages the line map over [x - y, x + y], with x + iy
        the Cayley image of r e^{it}, and an end of that window crosses the
        image tan(c/2) of a cusp c where
            2r sin(t - c/2) = (1 + r^2) sin(c/2) +- (1 - r^2) cos(c/2).
        """
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


class BAExtension(DiscQCMap):
    """DiscQCMap extending a circle homeomorphism by Beurling-Ahlfors."""

    def __init__(self, homeo):
        super().__init__(homeo, None, label=f"ba[{homeo.label}]")
        self._table = None

    def line_map(self, x):
        """Induced line homeomorphism h(x) = tan(alpha(2 atan x) / 2)."""
        a = np.arctan(np.asarray(x, dtype=float))
        a *= 2.0
        a = self.boundary(a)
        a *= 0.5
        # in place on its own temporaries; a point gives a NumPy scalar,
        # which has no buffer to write
        return np.tan(a, out=a) if isinstance(a, np.ndarray) else np.tan(a)

    def _nearest_nodes(self, t):
        """(node, G(node)) at the table node nearest each t in ratio: 0, or
        +-2^(j + i/8), clipped to the table.

        The table is built on the first point this extension integrates and
        never changes, so a value never depends on its batch or on earlier
        calls."""
        if self._table is None:
            self._table = _binade_table(self.line_map)
        nodes, table = self._table
        m, e = np.frexp(t)  # |t| = |m| 2^e, 1/2 <= |m| < 1, exact
        # flat index into the rows (t >= 0, t < 0): the binade, the cuts <= |m|
        # in it, clipped to the table, node 0 for t = 0, then the row
        k = e.astype(np.int64)
        k *= _PER_BINADE
        k += np.searchsorted(_CUTS, np.abs(m), side="right")
        k += 1 - _PER_BINADE * (1 + _LOWEST)
        n = nodes.shape[1]
        np.clip(k, 0, n - 1, out=k)
        k[t == 0.0] = 0
        k += n * np.signbit(t)
        return nodes.ravel().take(k), table.ravel().take(k)

    def halfplane(self, x, y):
        """Averaged extension (u, v) of the line map at (x, y), y > 0, from
        the integrals i1 over [x - y, x] and i2 over [x, x + y]:
        u = (i1 + i2) / 2y, v = (i2 - i1) / 2y.

        A point with |x| >= (1 + _KAPPA[6]) y has both windows _KAPPA[6] of
        their widths from the cusp at 0, and from the singularities of h at
        +-i, which lie further: it takes one panel a window, of 4 nodes if
        |x| >= (1 + _KAPPA[4]) y and of 6 otherwise.  Any other point reads
        G, the integral of h from 0, at x - y, x and x + y, each a table
        entry plus the 4-node panel from its nearest node: i1 = G(x) -
        G(x - y), i2 = G(x + y) - G(x).  A far point costs 8 or 12
        evaluations of the line map, any other 12, in one _panel_sums call
        per order."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        far = np.abs(x) >= (1.0 + _KAPPA[6]) * y
        far4 = np.abs(x) >= (1.0 + _KAPPA[4]) * y
        far6 = far & ~far4
        x6, y6, x4, y4 = x[far6], y[far6], x[far4], y[far4]
        xn, yn = x[~far], y[~far]
        ends = np.concatenate([xn - yn, xn, xn + yn])
        nodes, table = self._nearest_nodes(ends)
        six = _panel_sums(self.line_map, np.concatenate([x6 - y6, x6]),
                          np.concatenate([x6, x6 + y6]), 6)
        four = _panel_sums(self.line_map, np.concatenate([x4 - y4, x4, nodes]),
                           np.concatenate([x4, x4 + y4, ends]), 4)
        i1, i2 = np.empty(x.size), np.empty(x.size)
        i1[far6], i2[far6] = six.reshape(2, -1)
        i1[far4], i2[far4] = four[:2 * x4.size].reshape(2, -1)
        g_lo, g_mid, g_hi = (table + four[2 * x4.size:]).reshape(3, -1)
        i1[~far], i2[~far] = g_mid - g_lo, g_hi - g_mid
        return (i1 + i2) / (2.0 * y), (i2 - i1) / (2.0 * y)

    def _disc(self, zf):
        """Half-plane point x + iy, its extension u + iv and phi at disc
        points zf (1-D)."""
        w = 1j * (1.0 - zf) / (1.0 + zf)
        u, v = self.halfplane(w.real, w.imag)
        phi_hp = u + 1j * v
        return w, u, v, phi_hp, (1j - phi_hp) / (1j + phi_hp)

    def __call__(self, z):
        """phi at z, in the shape of z (0-d for a point)."""
        z = np.asarray(z, dtype=complex)
        return self._disc(z.ravel())[-1].reshape(z.shape)

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


def identity_disc_map():
    return DiscQCMap(identity_homeo(), lambda z: np.asarray(z, dtype=complex),
                     label="identity",
                     complex_derivative=lambda z: np.ones_like(z),
                     inverse=lambda w: w)


def moebius_disc_map(a):
    a = float(a)
    h = moebius_homeo(a)
    return DiscQCMap(
        h,
        lambda z, a=a: (z - a) / (1.0 - a * z),
        label=f"moebius({a:g})",
        complex_derivative=lambda z, a=a: (1.0 - a * a) / (1.0 - a * z) ** 2,
        inverse=lambda w, a=a: (w + a) / (1.0 + a * w),
    )


def make_disc_map(spec):
    """Catalog DiscQCMap of a map spec: conformal members exact, the rest a
    BAExtension."""
    name, parameters = parse_map_spec(spec)
    if name == "identity":
        return identity_disc_map()
    if name == "moebius":
        return moebius_disc_map(*parameters)
    return BAExtension(make_map(spec))


def _initial_guess(phi, w):
    """|w| times the boundary preimage of w's direction."""
    t0 = phi.boundary.inverse(np.angle(w))
    return np.where(w != 0, np.abs(w) * np.exp(1j * t0), 0j)


def invert(phi, w, z0=None):
    """Solve phi(z) = w for interior points.

    w is a point or an array of points, one lane each.  A map with a
    closed-form inverse takes z = phi.inverse(w) and one jet call on all
    lanes; z0 is ignored.  Any other map runs damped Newton iteration from
    the initial guesses z0 (default: from the boundary inverse angle and
    |w|; a guess z with |z| >= 1 starts at z (1 - 1e-9) / |z|): every
    iteration makes one jet call on the lanes still running and takes their
    quasi-Newton steps from the Wirtinger derivatives, each lane until its
    residual is below 1e-11 or it has taken _MAX_ITER steps.
    Either way a lane whose residual |phi(z) - w| is 1e-7 or more, or NaN,
    raises RuntimeError.

    Returns (z, jet), jet = phi.jet(z) from the lanes' last jet call at
    their final z, arrays in the shape of w (0-d for a point).
    """
    targets = np.asarray(w, dtype=complex)
    ws = targets.ravel()
    if phi.inverse is not None:
        z = np.array(phi.inverse(ws), dtype=complex)
        jet = np.array(phi.jet(z))
        residual = np.abs(jet[0] - ws)
        running = np.arange(0)  # no Newton lane
    else:
        z = _initial_guess(phi, ws) if z0 is None else np.broadcast_to(z0, targets.shape)
        z = np.array(z, dtype=complex).ravel()
        r = np.abs(z)
        z = np.where(r >= 1, z * (1 - 1e-9) / np.maximum(r, 1), z)
        jet = np.empty((3, ws.size), dtype=complex)
        residual = np.full(ws.size, np.inf)
        running = np.arange(ws.size)
    for it in range(_MAX_ITER + 1):  # the last pass only checks the residual
        if running.size == 0:
            break
        val, dz, dzb = phi.jet(z[running])
        jet[:, running] = val, dz, dzb
        f = val - ws[running]
        residual[running] = np.abs(f)
        jac = np.abs(dz) ** 2 - np.abs(dzb) ** 2
        # a NaN residual or Jacobian keeps its lane running, to fail below
        go = ~((residual[running] < 1e-11) | (jac <= 0)) & (it < _MAX_ITER)
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
    failed = np.flatnonzero(~(residual < 1e-7))  # a NaN residual fails too
    if failed.size:
        t, r = ws[failed[0]], residual[failed[0]]
        raise RuntimeError(f"invert({phi.label}, {t}) did not converge "
                           f"(residual {r:.2e})")
    return z.reshape(targets.shape), tuple(j.reshape(targets.shape) for j in jet)


def cone_image_aperture(phi, xi, c=2.0, samples=96):
    """Empirical aperture of the image of the cone at xi under phi:
    sup |phi(z) - phi(xi)| / (1 - |phi(z)|) over the cone lattice
    (geometry.cone_lattice) of samples // 12 (at least 3) rays evenly across
    the window at each of its 12 depths."""
    if abs(abs(xi) - 1.0) > 1e-12:
        raise ValueError("cone vertex must lie on the unit circle")
    rays = np.linspace(-1.0, 1.0, max(3, int(samples) // 12))
    w = phi(np.concatenate(cone_lattice(np.angle(xi), c, rays)))
    target = complex(phi.boundary.map_point(float(np.angle(xi))))
    return float(np.max(np.abs(w - target) / (1.0 - np.abs(w))))

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

A BAExtension evaluates in blocks of half the batch budget
quadrature._NODES_PER_CALL points, each in one pass.  Besides its table it
keeps one scratch array of nine rows of the budget's floats (576 KiB at the
default 8,192), made on its first call and reused by every later one: the
line-map nodes of a block, at most 12 a point, and its panels' midpoints and
half-widths while the line map runs, then the complex temporaries of a call
or jet.  A jet keeps its half-plane points and its window ends, line-mapped
in place, in the arrays it returns until their values are written.  So the
only temporaries of a block's size a call allocates are the half-plane
average (u, v), the indices of the points of each rule and the table
lookups; the line map's own temporaries are a budget's size.  Every array
it returns is fresh, never a view of the scratch: a caller may keep it
across later calls.  An extension evaluates one batch at a time: no call of
it may start while another is under way, from another thread or from a
line map that calls back into it.
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


def _panel_nodes(left, right, order, half, mid, nodes):
    """Write half the widths of the panels [left_i, right_i] into half and
    their order-node Gauss-Legendre nodes into nodes, node-major: the first
    node of every panel, then the second, and so on.  mid is scratch of the
    panels' size, left itself allowed; right may be the first node of every
    panel in nodes, read before the nodes are written."""
    x, _ = quadrature.gauss_legendre(order)
    np.subtract(right, left, out=half)
    half *= 0.5
    np.add(right, left, out=mid)
    mid *= 0.5
    nodes = nodes.reshape(order, -1)
    np.multiply(half, x[:, None], out=nodes)
    nodes += mid


def _panel_totals(vals, half):
    """half times each panel's Gauss-Legendre sum of vals, the line map at
    the nodes _panel_nodes wrote (order, panels), formed in place in vals'
    first two rows, the first of which is returned.  Each panel is summed
    alone as einsum("pk,k->p") sums 4 or 6 terms: in two lanes, even nodes
    and odd ones, added to +0, so a panel of -0 terms sums to +0.  A point's
    value does not depend on its batch, and the rounding not on the numpy
    build; a BLAS product rounds by position."""
    vals *= quadrature.gauss_legendre(vals.shape[0])[1][:, None]
    for j in range(2, vals.shape[0], 2):
        vals[0:2] += vals[j:j + 2]
    total = vals[0]
    total += vals[1]
    total += 0.0
    total *= half
    return total


def _line_map_in_place(fn, t):
    """Write fn(t) over t, a batch budget quadrature._NODES_PER_CALL of it
    at a time; an empty t makes no call."""
    quadrature.WORK["line_map_points"] += t.size
    budget = max(quadrature._NODES_PER_CALL, 1)
    for start in range(0, t.size, budget):
        span = t[start:start + budget]
        span[...] = fn(span)


def _block():
    """Points a BAExtension takes in one pass: half the batch budget
    quadrature._NODES_PER_CALL, at least one."""
    return max(quadrature._NODES_PER_CALL // 2, 1)


def _window_ends(x, y, lo, mid, hi):
    """x - y, x and x + y of the points x + iy, into lo, mid and hi."""
    np.subtract(x, y, out=lo)
    mid[...] = x
    np.add(x, y, out=hi)


def _binade_table(fn):
    """(nodes, G): rows for t >= 0 and t < 0 of the nodes 0 and
    +-2^(j + i/8), _LOWEST <= j + i/8 <= _HIGHEST, and G, the integral of fn
    from 0 to each node, one 6-node panel per eighth of a binade summed
    outward from 0."""
    k = np.arange(_PER_BINADE * (_HIGHEST - _LOWEST) + 1)
    pos = np.ldexp(_MANTISSAS[k % _PER_BINADE], _LOWEST + 1 + k // _PER_BINADE)
    nodes = np.stack([np.concatenate(([0.0], pos)),
                      np.concatenate(([0.0], -pos))])
    half = np.empty(2 * (nodes.shape[1] - 1))
    points = np.empty(6 * half.size)
    _panel_nodes(nodes[:, :-1].ravel(), nodes[:, 1:].ravel(), 6, half,
                 np.empty(half.size), points)
    _line_map_in_place(fn, points)
    sums = _panel_totals(points.reshape(6, -1), half)
    table = np.zeros(nodes.shape)
    table[:, 1:] = np.cumsum(sums.reshape(2, -1), axis=1)
    return nodes, table


class DiscQCMap:
    """Quasiconformal selfmap of the disc with known boundary angle map.

    A conformal map is given with its complex derivative, which marks it as
    conformal, and may be given its inverse w -> phi^{-1}(w) in closed form,
    which invert then uses instead of Newton iteration.  A Beurling-Ahlfors
    extension, the subclass BAExtension, has neither.  ``symmetric`` declares
    phi(conj z) = conj phi(z), as every catalog map does.
    """

    def __init__(self, boundary, interior, label="", complex_derivative=None,
                 inverse=None, symmetric=False):
        self.boundary = boundary
        self.interior = interior
        self.label = label or boundary.label
        self.complex_derivative = complex_derivative
        self.inverse = inverse
        self.symmetric = symmetric

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

    def __init__(self, homeo, symmetric=False):
        super().__init__(homeo, None, label=f"ba[{homeo.label}]",
                         symmetric=symmetric)
        self._table = None
        self._scratch = None

    def line_map(self, x):
        """Induced line homeomorphism h(x) = tan(alpha(2 atan x) / 2)."""
        a = np.arctan(np.asarray(x, dtype=float))
        a *= 2.0
        a = self.boundary(a)
        a *= 0.5
        # in place on its own temporaries; a point gives a NumPy scalar,
        # which has no buffer to write
        return np.tan(a, out=a) if isinstance(a, np.ndarray) else np.tan(a)

    def _antiderivative(self):
        """(nodes, G) of the antiderivative table (_binade_table), built on
        the first call that needs it and never changed, so a value never
        depends on its batch or on earlier calls."""
        if self._table is None:
            self._table = _binade_table(self.line_map)
        return self._table

    def _nearest_nodes(self, t):
        """(node, G(node)) at the table node nearest each t in ratio: 0, or
        +-2^(j + i/8), clipped to the table."""
        nodes, table = self._antiderivative()
        n = nodes.shape[1]
        m, k = np.frexp(t)  # |t| = |m| 2^k, 1/2 <= |m| < 1, exact
        # flat index into the rows (t >= 0, t < 0): the binade, the cuts <= |m|
        # in it, clipped to the table, node 0 for t = 0, then the row.  The
        # cuts <= |m| are 8 less those above it (8 for NaN, as a search
        # sorts it), counted by one broadcast comparison: a binary search
        # mispredicts its branches on random mantissas
        k = np.multiply(k, _PER_BINADE, dtype=np.int64)
        k += _PER_BINADE + 1 - _PER_BINADE * (1 + _LOWEST)
        k -= np.add.reduce(np.less(np.abs(m, out=m), _CUTS[:, None]), axis=0,
                           dtype=np.int8)
        np.maximum(k, 0, out=k)
        np.minimum(k, n - 1, out=k)
        k *= t != 0.0
        k += n * np.signbit(t)
        return nodes.ravel().take(k), table.ravel().take(k)

    def _buffers(self):
        """Views of scratch made on first use and reused by every later call
        of this extension: nine rows of the batch budget
        quadrature._NODES_PER_CALL (at least one point's 12) floats.  In a
        pass (_average) rows 0-5 hold the line-map nodes of a block, at most
        12 a point, and rows 6-8 its panels' midpoints and half-widths, at
        most 3 panels a point; after it rows 0-5 are three rows of complex
        numbers.  Returns (nodes, panels, complex rows)."""
        size = max(quadrature._NODES_PER_CALL, 12)
        if self._scratch is None or self._scratch[2].shape[1] != size:
            rows = np.empty((9, size))
            self._scratch = (rows[:6].ravel(), rows[6:].ravel(),
                             rows[:6].reshape(3, -1).view(complex))
        return self._scratch

    def halfplane(self, x, y, ends=None):
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
        evaluations of the line map, any other 12.  Given ends, three
        arrays of the points' size, h(x - y), h(x) and h(x + y) are written
        into them: 3 more.

        The points go in blocks of half the batch budget (_block), each in
        one pass (_average)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        self._antiderivative()  # built before a pass fills the scratch
        quadrature.WORK["ba_blocks"] += -(-x.size // _block())
        u, v = np.empty(x.size), np.empty(x.size)
        for start in range(0, x.size, _block()):
            block = slice(start, start + _block())
            self._average(x[block], y[block], u[block], v[block],
                          None if ends is None else [e[block] for e in ends])
        return u, v

    def _average(self, x, y, u, v, ends):
        """halfplane on a block of points, into u and v (ends as in
        halfplane), in one pass.

        The nodes are all 6-node panels of the far points, then all 4-node
        panels: of the other far points, then of the lookups.  Each panel's
        left end is written where its midpoint goes and its right end in
        the first node row of its run, which _panel_nodes reads before it
        writes the nodes there, node-major; the line map takes them a batch
        budget at a time, written back over them; then each run's panel
        sums are scattered to their points.  The ends are formed in ends
        and line-mapped there."""
        nodes, panels, _ = self._buffers()
        n = x.size
        ax = np.abs(x, out=nodes[:n])
        bound = np.multiply(1.0 + _KAPPA[6], y, out=nodes[n:2 * n])
        far = ax >= bound
        far4 = ax >= np.multiply(1.0 + _KAPPA[4], y, out=bound)
        six, four, near = ((far & ~far4).nonzero()[0], far4.nonzero()[0],
                           (~far).nonzero()[0])
        p6, p4 = 2 * six.size, 2 * four.size + 3 * near.size  # panels a run
        mid, half = panels[:p6 + p4], panels[p6 + p4:2 * (p6 + p4)]
        nodes6, nodes4 = nodes[:6 * p6], nodes[6 * p6:6 * p6 + 4 * p4]
        runs = ((6, six, mid[:p6], half[:p6], nodes6),
                (4, four, mid[p6:], half[p6:], nodes4))
        for _, idx, left, _, right in runs:  # right: the first node row
            m = idx.size
            xs, ys = x[idx], y[idx]
            np.subtract(xs, ys, out=left[:m])
            left[m:2 * m] = xs
            right[:m] = xs
            np.add(xs, ys, out=right[m:2 * m])
        t = nodes4[2 * four.size:p4]
        _window_ends(x[near], y[near], *t.reshape(3, -1))
        mid[p6 + 2 * four.size:], g = self._nearest_nodes(t)
        for order, _, left, widths, points in runs:
            _panel_nodes(left, points[:left.size], order, widths, left, points)
        _line_map_in_place(self.line_map, nodes[:6 * p6 + 4 * p4])
        # u and v take the window integrals i1 and i2 until they are formed
        for order, idx, _, widths, points in runs:
            sums = _panel_totals(points.reshape(order, -1), widths)
            u[idx], v[idx] = sums[:idx.size], sums[idx.size:2 * idx.size]
        m = near.size
        lookups = sums[2 * four.size:]  # the 4-node run's, after its far points
        lookups += g
        u[near] = lookups[m:2 * m] - lookups[:m]
        v[near] = lookups[2 * m:] - lookups[m:2 * m]
        if ends is not None:
            _window_ends(x, y, *ends)
            for e in ends:
                _line_map_in_place(self.line_map, e)
        total = np.add(u, v, out=nodes[:n])
        np.subtract(v, u, out=v)
        two_y = np.multiply(2.0, y, out=u)
        v /= two_y
        np.divide(total, two_y, out=u)

    def _extend(self, zf, jet):
        """[phi] at disc points zf (1-D), or with jet [phi, d_z phi,
        d_zbar phi]: fresh arrays, filled in blocks (_block).  A block's
        half-plane point w is kept in phi, and the line map at its window
        ends in d_z phi and d_zbar phi, until their values are written; its
        complex temporaries are the three complex rows of the scratch."""
        quadrature.WORK["ba_calls"] += 1
        quadrature.WORK["ba_points"] += zf.size
        out = [np.empty(zf.size, dtype=complex) for _ in range(3 if jet else 1)]
        complex_rows = self._buffers()[2]
        for start in range(0, zf.size, _block()):
            block = slice(start, start + _block())
            z = zf[block]
            phi, *derivatives = (o[block] for o in out)
            m = z.size
            ca, cb, cc = complex_rows[:, :m]
            # the Cayley map w = i (1 - z) / (1 + z), kept in phi
            np.subtract(1.0, z, out=ca)
            np.multiply(1j, ca, out=phi)
            np.add(1.0, z, out=ca)
            phi /= ca
            x, y = phi.real, phi.imag
            ends = None
            if jet:
                dz, dzb = derivatives
                h_lo, h_mid = dz.view(float).reshape(2, m)
                h_hi, spare = dzb.view(float).reshape(2, m)
                ends = h_lo, h_mid, h_hi
            u, v = self.halfplane(x, y, ends)
            np.multiply(1j, v, out=ca)
            np.add(u, ca, out=ca)  # F = u + iv
            if jet:
                _partials(h_lo, h_mid, h_hi, spare, u, v, y, cc.view(float)[:m])
                # f_x = u_x + i v_x in d_zbar phi, f_y = u_y + i v_y in d_z phi
                np.multiply(1j, h_mid, out=dzb)
                np.add(h_lo, dzb, out=dzb)
                np.multiply(1j, v, out=dz)
                np.add(u, dz, out=dz)
            # phi = (i - F) / (i + F), keeping i + F
            np.add(1j, ca, out=cb)
            np.subtract(1j, ca, out=phi)
            phi /= cb
            if jet:
                # outer = -2i / (i + F)^2, inner = -2i / (1 + z)^2, then
                # d_z phi = outer / 2 (f_x - i f_y) inner and
                # d_zbar phi = outer / 2 (f_x + i f_y) conj(inner).  No
                # complex product is written over one of its factors: on a
                # single lane that rounds differently
                np.square(cb, out=ca)
                np.divide(-2j, ca, out=ca)
                np.add(1.0, z, out=cb)
                np.square(cb, out=cc)
                np.divide(-2j, cc, out=cc)
                np.multiply(ca, 0.5, out=cb)
                np.multiply(1j, dz, out=ca)
                np.subtract(dzb, ca, out=dz)
                np.add(dzb, ca, out=dzb)
                np.multiply(cb, dz, out=ca)
                np.multiply(ca, cc, out=dz)
                np.multiply(cb, dzb, out=ca)
                np.conj(cc, out=cc)
                np.multiply(ca, cc, out=dzb)
        return out

    def __call__(self, z):
        """phi at z, in the shape of z (0-d for a point)."""
        z = np.asarray(z, dtype=complex)
        return self._extend(z.ravel(), jet=False)[0].reshape(z.shape)

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
        return tuple(a.reshape(z.shape) for a in self._extend(z.ravel(), jet=True))


def _partials(h_lo, h_mid, h_hi, spare, u, v, y, two_y):
    """The partials of the averaged extension from the line map h at x - y,
    x and x + y (BAExtension.jet), in place: u_x over h_lo, v_x over h_mid,
    u_y over u and v_y over v.  h_hi is consumed; spare and two_y are
    scratch of the points' size."""
    np.multiply(2.0, y, out=two_y)
    h_mid *= 2.0
    np.subtract(h_hi, h_mid, out=h_mid)
    h_mid += h_lo
    h_mid /= two_y
    np.add(h_hi, h_lo, out=spare)
    spare /= two_y
    np.subtract(h_hi, h_lo, out=h_lo)
    h_lo /= two_y
    u /= y
    np.subtract(spare, u, out=u)
    v /= y
    np.subtract(h_lo, v, out=v)


def identity_disc_map():
    return DiscQCMap(identity_homeo(), lambda z: np.asarray(z, dtype=complex),
                     label="identity",
                     complex_derivative=lambda z: np.ones_like(z),
                     inverse=lambda w: w, symmetric=True)


def moebius_disc_map(a):
    a = float(a)
    h = moebius_homeo(a)
    return DiscQCMap(
        h,
        lambda z, a=a: (z - a) / (1.0 - a * z),
        label=f"moebius({a:g})",
        complex_derivative=lambda z, a=a: (1.0 - a * a) / (1.0 - a * z) ** 2,
        inverse=lambda w, a=a: (w + a) / (1.0 + a * w),
        symmetric=True,
    )


def make_disc_map(spec):
    """Catalog DiscQCMap of a map spec: conformal members exact, the rest a
    BAExtension of an odd angle map; each is symmetric."""
    name, parameters = parse_map_spec(spec)
    if name == "identity":
        return identity_disc_map()
    if name == "moebius":
        return moebius_disc_map(*parameters)
    return BAExtension(make_map(spec), symmetric=True)


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
    |w|; a guess z with |z| >= 1 starts at z (1 - 1e-6) / |z|): every
    iteration makes one jet call on the lanes still running and takes their
    quasi-Newton steps from the Wirtinger derivatives, each lane until its
    residual is below 1e-11, its Jacobian is <= 0, its step is not finite
    or it has taken _MAX_ITER steps, and only then writes its z, jet and
    residual out: the running lanes' z and targets are compact arrays,
    copied when a lane stops.  Either way a lane whose residual
    |phi(z) - w| is 1e-7 or more, or NaN, raises RuntimeError.

    Returns (z, jet), jet = phi.jet(z) from the lanes' last jet call at
    their final z, arrays in the shape of w (0-d for a point).
    """
    targets = np.asarray(w, dtype=complex)
    ws = targets.ravel()
    quadrature.WORK["invert_calls"] += 1
    quadrature.WORK["invert_lanes"] += ws.size
    if phi.inverse is not None:
        z = np.array(phi.inverse(ws), dtype=complex)
        jet = np.array(phi.jet(z))
        quadrature.WORK["invert_jets"] += 1
        quadrature.WORK["invert_jet_points"] += ws.size
        residual = np.abs(jet[0] - ws)
        lanes = np.arange(0)  # no Newton lane
    else:
        z = _initial_guess(phi, ws) if z0 is None else np.broadcast_to(z0, targets.shape)
        z = np.array(z, dtype=complex).ravel()
        r = np.abs(z)
        lane_z = np.where(r >= 1, z * (1 - 1e-6) / np.maximum(r, 1), z)
        z, residual = np.empty_like(lane_z), np.empty(ws.size)
        jet = np.empty((3, ws.size), dtype=complex)
        lanes, lane_w = np.arange(ws.size), ws
    for it in range(_MAX_ITER + 1):  # the last pass only checks the residual
        if lanes.size == 0:
            break
        quadrature.WORK["invert_jets"] += 1
        quadrature.WORK["invert_jet_points"] += lanes.size
        lane_jet = val, dz, dzb = phi.jet(lane_z)
        f = val - lane_w
        res = np.abs(f)
        jac = np.abs(dz) ** 2 - np.abs(dzb) ** 2
        go = ~((res < 1e-11) | (jac <= 0)) & (it < _MAX_ITER)
        if not go.all():
            f, dz, dzb, jac = f[go], dz[go], dzb[go], jac[go]
        with np.errstate(over="ignore", invalid="ignore"):
            step = (np.conj(dz) * f - dzb * np.conj(f)) / jac
        # a lane whose step is not finite, from a NaN residual or Jacobian or
        # an overflow, stops, to be judged on its residual
        finite = np.isfinite(step)
        if not finite.all():
            go[go], step = finite, step[finite]
        if not go.all():  # write the lanes that stop, keep the others
            stop = lanes[~go]
            z[stop], residual[stop] = lane_z[~go], res[~go]
            jet[:, stop] = [value[~go] for value in lane_jet]
            lanes, lane_z, lane_w = lanes[go], lane_z[go], lane_w[go]
        znew = lane_z - step
        # halve the steps that leave the disc
        out = np.abs(znew) >= 1 - 1e-13
        while np.any(out):
            step[out] *= 0.5
            znew[out] = lane_z[out] - step[out]
            out &= (np.abs(znew) >= 1 - 1e-13) & (np.abs(step) >= 1e-16)
        lane_z = znew
    failed = np.flatnonzero(~(residual < 1e-7))  # a NaN residual fails too
    quadrature.WORK["invert_failures"] += failed.size
    if failed.size:
        t, r = ws[failed[0]], residual[failed[0]]
        raise RuntimeError(f"invert({phi.label}, {t}) did not converge "
                           f"(residual {r:.2e})")
    return z.reshape(targets.shape), tuple(j.reshape(targets.shape) for j in jet)


def cone_image_aperture(phi, xi, c=2.0, samples=96):
    """Empirical aperture of the image of the cone at each vertex xi under
    phi, in the shape of xi (a float for a point): sup |phi(z) - phi(xi)| /
    (1 - |phi(z)|) over the cone lattices (geometry.cone_lattice), in one
    call of phi, of samples // 12 (at least 3) rays evenly across the window
    at each of 12 depths; NaN if an image rounds onto or past the circle,
    where 1 - |phi(z)| <= 0 is no distance to divide by.  Each phi(xi) is a
    scalar map_point call: an array call moves its last bit."""
    xi = np.asarray(xi, dtype=complex)
    if np.any(np.abs(np.abs(xi) - 1.0) > 1e-12):
        raise ValueError("cone vertex must lie on the unit circle")
    rays = np.linspace(-1.0, 1.0, max(3, int(samples) // 12))
    t0 = np.angle(xi)[..., None]
    w = phi(np.concatenate(cone_lattice(t0, c, rays), axis=-1))
    target = [complex(phi.boundary.map_point(t)) for t in t0.ravel().tolist()]
    gap = 1.0 - np.abs(w)
    aperture = np.max(np.abs(w - np.reshape(target, t0.shape))
                      / np.where(gap > 0, gap, np.nan), axis=-1)
    return float(aperture) if xi.ndim == 0 else aperture

"""Quasiconformal selfmaps of the disc.

A BAExtension is the DiscQCMap that extends a boundary homeomorphism by the
Beurling-Ahlfors averaged extension, conjugated through the Cayley transform:
the boundary angle map is transported to a line homeomorphism via x = tan(t/2),
extended to the upper half-plane by interval averages, and pulled back to the
disc.  invert solves phi(z) = w for it by Newton iteration in those
half-plane coordinates.  The conformal catalog maps (Moebius, the identity
at a = 0), a control group, are DiscQCMaps with exact interior evaluation
and a closed-form inverse, so inverting one takes a single jet evaluation
instead of a Newton run.  make_disc_map builds each map of _CATALOG; its
angle map's oddness is its symmetry.

The interval averages integrate the line map h over the windows [x - y, x]
and [x, x + y] of a point x + iy.  A point far from 0, where the catalog line
maps have their cusp, takes one Gauss-Legendre panel per window, exactly y
wide.  Any other point reads G at x - y, x and x + y, with G(t) the integral of h from 0 to t
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
half-widths while the line map runs, then a jet's window ends.  The Cayley
maps, the average F = u + iv, its partials and the chain rule of a jet are
plain numpy expressions on fresh temporaries of a block's size, which die
with the block; a disc call or jet keeps the half-plane point w in the
value's output until the value is written, which keeps one of a budget's
points within 512 KiB of live temporaries.  Every array it returns is
fresh, never a view of the scratch: a caller may keep it across later
calls.  An extension evaluates one batch at a time: no call of it may start
while another is under way, from another thread or from a line map that
calls back into it.
"""

from __future__ import annotations

import numpy as np

from . import quadrature
from .boundary import identity_homeo, moebius_homeo, power_homeo, sqrt_homeo
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


def _panel_nodes(mid, half, order, nodes):
    """Write the order-node Gauss-Legendre nodes of the panels with
    midpoints mid and half-widths half into nodes, node-major: the first
    node of every panel, then the second, and so on."""
    x, _ = quadrature.gauss_legendre(order)
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
    lo, hi = nodes[:, :-1].ravel(), nodes[:, 1:].ravel()
    half = (hi - lo) * 0.5
    points = np.empty(6 * half.size)
    _panel_nodes((hi + lo) * 0.5, half, 6, points)
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
    extension, the subclass BAExtension, has neither.  ``symmetric``,
    phi(conj z) = conj phi(z), is the boundary map's ``odd``.
    """

    def __init__(self, boundary, interior, complex_derivative=None, inverse=None):
        self.boundary = boundary
        self.interior = interior
        self.label = boundary.label
        self.complex_derivative = complex_derivative
        self.inverse = inverse
        self.symmetric = boundary.odd

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
        """Angles t where phi(r e^{it}) is not smooth in t: none in closed form."""
        return ()


def norm_and_jacobian(dz, dzb):
    """(operator norm, Jacobian) of the differential with Wirtinger
    derivatives dz, dzb, from one modulus of each."""
    a, b = np.abs(dz), np.abs(dzb)
    return a + b, a ** 2 - b ** 2


def _wirtinger(i_f, f_x, f_y, inner, dz, dzb):
    """Wirtinger derivatives of phi = (i - F) / (i + F) into dz and dzb,
    from i + F, the partials f_x and f_y of F in zeta = x + iy and inner =
    d zeta / dz: outer / 2 (f_x -+ i f_y) times inner and conj(inner), outer
    = -2i / (i + F)^2.  No complex product is written over one of its
    factors: on a single lane that rounds differently."""
    half_outer = -2j / np.square(i_f) * 0.5
    i_fy = 1j * f_y
    np.subtract(f_x, i_fy, out=dz)
    np.add(f_x, i_fy, out=dzb)
    del i_fy
    np.multiply(half_outer * dz, inner, out=dz)
    np.multiply(half_outer * dzb, np.conj(inner), out=dzb)


class BAExtension(DiscQCMap):
    """DiscQCMap extending a circle homeomorphism by Beurling-Ahlfors."""

    def __init__(self, homeo):
        super().__init__(homeo, None)
        self.label = f"ba[{homeo.label}]"
        self._table = None
        self._scratch = None

    def kink_angles(self, r):
        """Angles t where phi(r e^{it}) is not smooth in t: up to four per
        cusp of the boundary map.

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
        """Views of scratch made on first use and reused by every later pass
        (_average) of this extension: nine rows of the batch budget
        quadrature._NODES_PER_CALL (at least one point's 12) floats, rows
        0-5 for the line-map nodes of a block, at most 12 a point, and rows
        6-8 for its panels' midpoints and half-widths, at most 3 panels a
        point.  Returns (nodes, panels)."""
        size = max(quadrature._NODES_PER_CALL, 12)
        if self._scratch is None or self._scratch.shape[1] != size:
            self._scratch = np.empty((9, size))
        return self._scratch[:6].ravel(), self._scratch[6:].ravel()

    def halfplane(self, x, y):
        """Averaged extension (u, v) of the line map at (x, y), y > 0, from
        the integrals i1 over [x - y, x] and i2 over [x, x + y]:
        u = (i1 + i2) / 2y, v = (i2 - i1) / 2y.

        A point with |x| >= (1 + _KAPPA[6]) y has both windows _KAPPA[6] of
        their widths from the cusp at 0, and from the singularities of h at
        +-i, which lie further: it takes one panel a window, of 4 nodes if
        |x| >= (1 + _KAPPA[4]) y and of 6 otherwise.  A far window is
        exactly y wide, a panel of half-width y / 2 about x -+ y / 2: the
        rounded ends x -+ y would cost eps |x| / y of its width, so of u
        and v, and eps (x / y)^2 of u_y in the jet.  Any other point reads
        G, the integral of h from 0, at x - y, x and x + y, each a table
        entry plus the 4-node panel from its nearest node: i1 = G(x) -
        G(x - y), i2 = G(x + y) - G(x).  A far point costs 8 or 12
        evaluations of the line map, any other 12.

        The points go in blocks of half the batch budget (_block), each in
        one pass (_average)."""
        return self._blocks(x, y, 2)

    def halfplane_jet(self, x, y):
        """(u, v, u_x, u_y, v_x, v_y): halfplane and its partials, closed
        forms in h at x - y, x and x + y, 3 more evaluations a point
        (Beurling & Ahlfors 1956):
            u_x = (h(x+y) - h(x-y)) / 2y,  u_y = (h(x+y) + h(x-y)) / 2y - u/y,
            v_x = (h(x+y) - 2h(x) + h(x-y)) / 2y,  v_y = u_x - v/y."""
        return self._blocks(x, y, 6)

    def _blocks(self, x, y, rows):
        """The rows (2 or 6) of halfplane_jet at (x, y), fresh arrays,
        filled a block (_block) at a time by _average."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        self._antiderivative()  # built before a pass fills the scratch
        quadrature.WORK["ba_blocks"] += -(-x.size // _block())
        out = [np.empty(x.size) for _ in range(rows)]
        for start in range(0, x.size, _block()):
            block = slice(start, start + _block())
            self._average(x[block], y[block], *(o[block] for o in out))
        return tuple(out)

    def _average(self, x, y, u, v, *partials):
        """halfplane on a block of points, into u and v, and given partials
        = (u_x, u_y, v_x, v_y), halfplane_jet's partials into them, in one
        pass.

        The nodes are all 6-node panels of the far points, then all 4-node
        panels: of the other far points, then of the lookups.  The panels'
        midpoints and half-widths go first; a lookup's window end is
        written in the first node row of its run and read before
        _panel_nodes writes the nodes there, node-major; the line map takes
        them a batch budget at a time, written back over them; then each
        run's panel sums are scattered to their points.  A jet's window
        ends then go to the node rows, h(x - y), h(x) and h(x + y) side by
        side, and are line-mapped there in one call."""
        nodes, panels = self._buffers()
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
        for _, idx, mids, halves, _ in runs:
            m = idx.size
            xs = x[idx]
            halves[:m] = halves[m:2 * m] = 0.5 * y[idx]
            np.subtract(xs, halves[:m], out=mids[:m])
            np.add(xs, halves[:m], out=mids[m:2 * m])
        # a lookup's panel runs from the nearest table node to the end t
        t = nodes4[2 * four.size:p4]
        _window_ends(x[near], y[near], *t.reshape(3, -1))
        node, g = self._nearest_nodes(t)
        half[p6 + 2 * four.size:] = (t - node) * 0.5
        mid[p6 + 2 * four.size:] = (t + node) * 0.5
        for order, _, mids, halves, points in runs:
            _panel_nodes(mids, halves, order, points)
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
        total = np.add(u, v, out=nodes[:n])
        np.subtract(v, u, out=v)
        two_y = np.multiply(2.0, y, out=nodes[n:2 * n])
        v /= two_y
        np.divide(total, two_y, out=u)
        if partials:
            ends = nodes[2 * n:5 * n]
            h_lo, h_mid, h_hi = ends.reshape(3, n)
            _window_ends(x, y, h_lo, h_mid, h_hi)
            _line_map_in_place(self.line_map, ends)
            u_x, u_y, v_x, v_y = partials
            u_x[...] = (h_hi - h_lo) / two_y
            v_x[...] = (h_hi - 2.0 * h_mid + h_lo) / two_y
            u_y[...] = (h_hi + h_lo) / two_y - u / y
            v_y[...] = u_x - v / y

    def _extend(self, zf, jet):
        """[phi] at disc points zf (1-D), or with jet [phi, d_z phi,
        d_zbar phi]: fresh arrays, filled a block (_block) at a time by
        _extend_block."""
        quadrature.WORK["ba_calls"] += 1
        quadrature.WORK["ba_points"] += zf.size
        out = [np.empty(zf.size, dtype=complex) for _ in range(3 if jet else 1)]
        for start in range(0, zf.size, _block()):
            block = slice(start, start + _block())
            self._extend_block(zf[block], *(o[block] for o in out))
        return out

    def _extend_block(self, z, phi, *jet):
        """phi at the disc points z of one block into phi, and given jet =
        (d_z phi, d_zbar phi) the Wirtinger derivatives into them, from w =
        i (1 - z) / (1 + z), kept in phi until phi is written.  A block's
        temporaries die with this call, the larger ones at their last use
        (del), within the 512 KiB of live temporaries TestAllocations allows."""
        np.divide(1j * (1.0 - z), 1.0 + z, out=phi)  # w = i (1 - z) / (1 + z)
        x, y = phi.real, phi.imag
        if not jet:
            u, v = self.halfplane(x, y)
        else:
            u, v, u_x, u_y, v_x, v_y = self.halfplane_jet(x, y)
            f_x = u_x + 1j * v_x
            del u_x, v_x
            f_y = u_y + 1j * v_y
            del u_y, v_y
        f = u + 1j * v  # F = u + iv
        del u, v
        i_f = 1j + f
        np.divide(1j - f, i_f, out=phi)  # phi = (i - F) / (i + F)
        del f
        if jet:
            _wirtinger(i_f, f_x, f_y, -2j / np.square(1.0 + z), *jet)

    def __call__(self, z):
        """phi at z, in the shape of z (0-d for a point)."""
        z = np.asarray(z, dtype=complex)
        return self._extend(z.ravel(), jet=False)[0].reshape(z.shape)

    def jet(self, z):
        """(phi, d_z phi, d_zbar phi) at z, each in the shape of z: the
        partials of halfplane_jet chained through the Cayley maps, whose
        derivatives are -2i/(1+z)^2 and -2i/(i+F)^2 (_wirtinger).  phi is
        bitwise the value of a call at z."""
        z = np.asarray(z, dtype=complex)
        return tuple(a.reshape(z.shape) for a in self._extend(z.ravel(), jet=True))


def moebius_disc_map(a, boundary):
    """The disc automorphism z -> (z - a)/(1 - a z), a real, over its angle map."""
    return DiscQCMap(
        boundary, lambda z: (z - a) / (1.0 - a * z),
        complex_derivative=lambda z: (1.0 - a * a) / (1.0 - a * z) ** 2,
        inverse=lambda w: (w + a) / (1.0 + a * w))


# catalog map name -> (builder of its DiscQCMap, number of parameters)
_CATALOG = {
    "identity": (lambda: moebius_disc_map(0.0, identity_homeo()), 0),
    "thm2_sqrt": (lambda: BAExtension(sqrt_homeo()), 0),
    "power": (lambda gamma: BAExtension(power_homeo(gamma)), 1),
    "moebius": (lambda a: moebius_disc_map(a, moebius_homeo(a)), 1),
}


def parse_map_spec(spec):
    """(name, parameters) of a catalog map spec 'name' or 'name:p1,p2':
    identity, thm2_sqrt, power (gamma > 0), or moebius (real a, |a| < 1),
    with its count of finite parameters."""
    name, colon, text = spec.partition(":")
    if name not in _CATALOG:
        raise ValueError(f"unknown catalog map {name!r}")
    params = ()
    for p in text.split(",") if colon else ():
        try:
            params += (float(p),)
        except ValueError:
            raise ValueError(f"map {spec!r} has a parameter {p!r} that is "
                             "not a number") from None
    arity = _CATALOG[name][1]
    if len(params) != arity:
        raise ValueError(f"{name} map takes {('no', 'exactly one')[arity]}"
                         f" parameter, not {len(params)}")
    if not np.all(np.isfinite(params)):
        raise ValueError(f"{name} map needs finite parameters, not {params}")
    return name, params


def make_disc_map(spec):
    """The catalog DiscQCMap of a map spec."""
    name, parameters = parse_map_spec(spec)
    return _CATALOG[name][0](*parameters)


def invert(phi, w):
    """Solve phi(z) = w for interior points.

    w is a point or an array of points, one lane each.  A map with a
    closed-form inverse takes z = phi.inverse(w), 1 - |z|^2 as (1 - |z|)
    (1 + |z|), and one jet call on all lanes.  A BAExtension runs damped
    Newton iteration in its half-plane coordinates zeta = i (1 - z) / (1 +
    z) on F(zeta) = i (1 - w) / (1 + w), F = u + iv, from the window
    inverse x -+ y/2 = h^-1(U -+ V) of the target U + iV, h^-1(u) =
    tan(alpha^-1(2 atan u) / 2), y at least the smallest normal double:
    u -+ v are the means of h over [x - y, x] and [x, x + y], so the start
    is exact where h is affine.  Every iteration makes one halfplane_jet
    call on the lanes still running, compact arrays, and steps each by the
    real 2 x 2 system of the partials of u and v, halved while it would
    leave y > 0, until its residual |phi - w|, phi = (i - F) / (i + F), is
    below 1e-11, its Jacobian is <= 0, its step is not finite or it has
    taken _MAX_ITER steps.  A lane returns z = (i - zeta) / (i + zeta),
    1 - |z|^2 = 4y / (x^2 + (1 + y)^2), which stays positive where z rounds
    onto the circle, and its jet by the chain rule at its own zeta = x + iy.
    Either way a residual of 1e-7 or more, or NaN, raises RuntimeError.

    Returns (z, 1 - |z|^2, jet), jet = (phi, d_z phi, d_zbar phi) from the
    lanes' last jet, arrays in the shape of w (0-d for a point).
    """
    targets = np.asarray(w, dtype=complex)
    ws = targets.ravel()
    quadrature.WORK["invert_calls"] += 1
    quadrature.WORK["invert_lanes"] += ws.size
    if phi.inverse is not None:
        z = np.array(phi.inverse(ws), dtype=complex)
        gap = (1.0 - np.abs(z)) * (1.0 + np.abs(z))
        jet = np.array(phi.jet(z))
        quadrature.WORK["invert_jets"] += 1
        quadrature.WORK["invert_jet_points"] += ws.size
        residual = np.abs(jet[0] - ws)
    else:
        z, gap, jet, residual = _newton(phi, ws)
    failed = np.flatnonzero(~(residual < 1e-7))  # a NaN residual fails too
    quadrature.WORK["invert_failures"] += failed.size
    if failed.size:
        t, r = ws[failed[0]], residual[failed[0]]
        raise RuntimeError(f"invert({phi.label}, {t}) did not converge "
                           f"(residual {r:.2e})")
    return (z.reshape(targets.shape), gap.reshape(targets.shape),
            tuple(j.reshape(targets.shape) for j in jet))


def _newton(phi, ws):
    """(z, 1 - |z|^2, jet, residual) of invert's Newton iteration on the
    targets ws.  A lane that stops leaves the running arrays with its zeta,
    residual and half-plane jet; the rest is formed once, at the end."""
    target = 1j * (1.0 - ws) / (1.0 + ws)
    lo, hi = (np.tan(0.5 * phi.boundary.inverse(2.0 * np.arctan(t)))
              for t in (target.real - target.imag, target.real + target.imag))
    # h^-1 underflows to 0 at both ends of an extreme cusp's window
    x, y = 0.5 * (hi + lo), np.maximum(hi - lo, np.finfo(float).tiny)
    lanes, lane_w, tu, tv = np.arange(ws.size), ws, target.real, target.imag
    stopped = [[np.zeros(0, dtype=int)] * 10]  # [lane, x, y, res, *hp] a pass
    for it in range(_MAX_ITER + 1):  # the last pass only checks the residual
        if lanes.size == 0:
            break
        quadrature.WORK.update(invert_jets=1, invert_jet_points=lanes.size,
                               ba_calls=1, ba_points=lanes.size)
        hp = u, v, u_x, u_y, v_x, v_y = phi.halfplane_jet(x, y)
        f = u + 1j * v
        val = (1j - f) / (1j + f)
        res = np.abs(val - lane_w)
        # a lane whose step is not finite, from a NaN residual or Jacobian or
        # an overflow, stops, to be judged on its residual
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            det = u_x * v_y - u_y * v_x
            du, dv = u - tu, v - tv
            dx = (v_y * du - u_y * dv) / det
            dy = (u_x * dv - v_x * du) / det
        go = (~((res < 1e-11) | (det <= 0)) & (it < _MAX_ITER)
              & np.isfinite(dx) & np.isfinite(dy))
        if not go.all():
            stopped.append([a[~go] for a in (lanes, x, y, res, *hp)])
            lanes, lane_w, tu, tv, x, y, dx, dy = (
                a[go] for a in (lanes, lane_w, tu, tv, x, y, dx, dy))
        y_new = y - dy
        while np.any(out := y_new <= 0):  # halve the steps that leave y > 0
            dx[out] *= 0.5
            dy[out] *= 0.5
            y_new[out] = y[out] - dy[out]
        x, y = x - dx, y_new
    lanes, x, y, residual, u, v, u_x, u_y, v_x, v_y = map(np.concatenate,
                                                          zip(*stopped))
    del stopped
    zeta, f = x + 1j * y, u + 1j * v
    jet = np.empty((3, ws.size), dtype=complex)
    np.divide(1j - f, 1j + f, out=jet[0])
    _wirtinger(1j + f, u_x + 1j * v_x, u_y + 1j * v_y,
               0.5j * np.square(1j + zeta), *jet[1:])
    back = np.empty(ws.size, dtype=int)
    back[lanes] = np.arange(ws.size)  # each lane's place in stopped
    z, gap = (1j - zeta) / (1j + zeta), 4.0 * y / (x * x + (1.0 + y) ** 2)
    return z[back], gap[back], jet[:, back], residual[back]


def cone_image_aperture(phi, xi, c=2.0, samples=96):
    """Empirical aperture of the image of the cone at each vertex xi under
    phi, in the shape of xi (a float for a point): sup |phi(z) - phi(xi)| /
    (1 - |phi(z)|) over the cone lattices (geometry.cone_lattice), in one
    call of phi, of samples // 12 (at least 3) rays evenly across the window
    at each of 12 depths; NaN if an image rounds onto or past the circle,
    where 1 - |phi(z)| <= 0 is no distance to divide by; a symmetric phi
    maps the cones at |t| only.  Each phi(xi) of a distinct vertex is a
    scalar map_point call: an array call moves its last bit."""
    xi = np.asarray(xi, dtype=complex)
    if np.any(np.abs(np.abs(xi) - 1.0) > 1e-12):
        raise ValueError("cone vertex must lie on the unit circle")
    rays = np.linspace(-1.0, 1.0, max(3, int(samples) // 12))
    fold = np.abs if phi.symmetric else np.asarray
    t0, back = np.unique(fold(np.angle(xi).ravel()), return_inverse=True)
    w = phi(np.concatenate(cone_lattice(t0[:, None], c, rays), axis=-1))
    target = [complex(phi.boundary.map_point(t)) for t in t0.tolist()]
    gap = 1.0 - np.abs(w)
    aperture = np.max(np.abs(w - np.reshape(target, (-1, 1)))
                      / np.where(gap > 0, gap, np.nan), axis=-1)[back]
    return float(aperture[0]) if xi.ndim == 0 else aperture.reshape(xi.shape)

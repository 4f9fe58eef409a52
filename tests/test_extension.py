import tracemalloc
import warnings
from contextlib import nullcontext
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from qchardy import extension, quadrature
from qchardy.boundary import BoundaryHomeo, _power, identity_homeo, power_homeo
from qchardy.extension import (
    _CUTS,
    _HIGHEST,
    _KAPPA,
    _LOWEST,
    _MANTISSAS,
    _PER_BINADE,
    BAExtension,
    DiscQCMap,
    _line_map_in_place,
    _panel_nodes,
    _panel_totals,
    cone_image_aperture,
    invert,
    make_disc_map,
    norm_and_jacobian,
)
from qchardy.functionals import radial_schedule
from qchardy.geometry import HyperbolicBall, cone_lattice
from qchardy.quadrature import _NODES_PER_CALL, gauss_legendre

# order and panel edges of the seed rule, as fractions of |end - c|: 14
# panels of 16 nodes graded toward c by ratio 3, fixed here so that the
# reference does not move with the rule under test
_SEED_ORDER = 16
_SEED_FRACTIONS = np.concatenate(([0.0], 3.0 ** -np.arange(13, -1.0, -1.0)))
# line-map evaluations of one antiderivative table: a 6-node panel
# [0, 2^_LOWEST] and eight per binade up to 2^_HIGHEST, on each side of 0
_TABLE = 2 * (8 * (_HIGHEST - _LOWEST) + 1) * 6
# the table's line-map batches: the nodes of its 2 * 1481 panels, a budget
# at a time
_TABLE_BATCHES = [_NODES_PER_CALL] * 2 + [_TABLE - 2 * _NODES_PER_CALL]


def _seed_line_integral(fn, p, q):
    """Reference rule: the integral of fn over the window p + q s, 0 <= s
    <= 1, exactly |q| wide, as |q| times that of fn(p + q s) over [0, 1],
    on 14 graded panels each side of the s nearest to fn's cusp at 0."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    q = np.atleast_1d(np.asarray(q, dtype=float))
    c = np.clip(-p / q, 0.0, 1.0)
    left = c[:, None] * (1.0 - _SEED_FRACTIONS[::-1][None, :])
    right = c[:, None] + (1.0 - c)[:, None] * _SEED_FRACTIONS[None, :]
    edges = np.concatenate([left, right], axis=1)
    x, w = gauss_legendre(_SEED_ORDER)
    half = 0.5 * np.diff(edges, axis=1)
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
    s = mid[:, :, None] + half[:, :, None] * x[None, None, :]
    vals = fn((p[:, None, None] + q[:, None, None] * s).ravel()).reshape(s.shape)
    return np.abs(q) * np.einsum("mp,mpq,q->m", half, vals, w)


class _SeedRuleBA(BAExtension):
    """Reference extension: the half-plane average with every window on the
    seed rule."""

    def halfplane(self, x, y):
        i1 = _seed_line_integral(self.line_map, x, -y)
        i2 = _seed_line_integral(self.line_map, x, y)
        return (i1 + i2) / (2.0 * y), (i2 - i1) / (2.0 * y)


def _random_points(n=10000, seed=11):
    """Half-plane points x + iy over twenty-two decades of position and
    height: far from 0, and with windows touching it or around it."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) * 10.0 ** rng.uniform(-9, 2, n)
    y = 10.0 ** rng.uniform(-9, 2, n)
    return x, y


def _far(x, y, order=6):
    """Points whose windows lie _KAPPA[order] of their widths from 0."""
    return np.abs(x) >= (1.0 + _KAPPA[order]) * y


def _scale(h, x, y):
    """max |h| over [x - y, x + y], h being monotone."""
    return np.maximum(np.abs(h(x - y)), np.abs(h(x + y)))


class _CountingLineBA(BAExtension):
    """BA extension of thm2_sqrt whose line map records every batch of
    nodes it is called on."""

    def __init__(self):
        super().__init__(make_disc_map("thm2_sqrt").boundary)
        self.batches = []

    def line_map(self, x):
        self.batches.append(np.array(x))
        return super().line_map(x)

    @property
    def evaluations(self):
        return sum(batch.size for batch in self.batches)


def _panel_sums(fn, left, right, order):
    """order-node Gauss-Legendre sums of fn over the panels [left_i,
    right_i] by the kernel's steps: _panel_nodes, the line map in place a
    batch budget at a time, _panel_totals."""
    half = (right - left) * 0.5
    nodes = np.empty(order * left.size)
    _panel_nodes((right + left) * 0.5, half, order, nodes)
    _line_map_in_place(fn, nodes)
    return _panel_totals(nodes.reshape(order, -1), half)


def _einsum_panel_sums(fn, left, right, order):
    """Reference _panel_sums: panel-major nodes, each panel summed by
    einsum."""
    x, w = gauss_legendre(order)
    half, mid = 0.5 * (right - left), 0.5 * (right + left)
    out = np.empty(half.size)
    panels = max(1, _NODES_PER_CALL // order)
    for start in range(0, half.size, panels):
        chunk = slice(start, start + panels)
        vals = fn((mid[chunk, None] + half[chunk, None] * x).ravel())
        out[chunk] = half[chunk] * np.einsum("pk,k->p", vals.reshape(-1, order), w)
    return out


def _indexed_nearest_nodes(ext, t):
    """Reference BAExtension._nearest_nodes: the row and column of the
    table, clipped, indexed together."""
    nodes, table = ext._table
    m, e = np.frexp(t)
    i = np.searchsorted(_CUTS, np.abs(m), side="right")
    k = np.clip(_PER_BINADE * (e - 1 - _LOWEST) + i + 1, 0, nodes.shape[1] - 1)
    k = np.where(t == 0.0, 0, k)
    side = np.signbit(t).astype(int)
    return nodes[side, k], table[side, k]


def _out_of_place_power(t, g):
    """Reference boundary._power, one temporary per operation."""
    t = np.asarray(t, dtype=float)
    return np.sign(t) * np.pi * (np.abs(t) / np.pi) ** g


def _out_of_place_line_map(ext, x):
    """Reference BAExtension.line_map, one temporary per operation; a power
    map's angle map is taken out of place too."""
    alpha = ext.boundary.forward
    if getattr(alpha, "func", None) is _power:
        alpha = partial(_out_of_place_power, **alpha.keywords)
    x = np.asarray(x, dtype=float)
    return np.tan(0.5 * alpha(2.0 * np.arctan(x)))


def _batch_panel_sums(fn, mid, half, order):
    """Reference _panel_sums of the panels with midpoints mid and
    half-widths half: the chunked node-major sums with batch-sized
    temporaries, as they were before the sums moved to reused buffers."""
    x, w = gauss_legendre(order)
    out = np.empty(half.size)
    panels = max(1, quadrature._NODES_PER_CALL // order)
    for start in range(0, half.size, panels):
        chunk = slice(start, start + panels)
        vals = fn((mid[chunk] + half[chunk] * x[:, None]).ravel()).reshape(order, -1)
        vals = vals * w[:, None]
        lanes = vals[0:2] + vals[2:4]
        for j in range(4, order, 2):
            lanes += vals[j:j + 2]
        total = lanes[0] + lanes[1]
        total += 0.0
        out[chunk] = half[chunk] * total
    return out


class _BatchBA(BAExtension):
    """Reference extension: halfplane, call and jet built from batch-sized
    temporaries, one _batch_panel_sums call per panel order and the jet's
    window ends in a line-map call of their own."""

    def halfplane(self, x, y):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        far = np.abs(x) >= (1.0 + _KAPPA[6]) * y
        far4 = np.abs(x) >= (1.0 + _KAPPA[4]) * y
        far6 = far & ~far4
        x6, y6, x4, y4 = x[far6], y[far6], x[far4], y[far4]
        xn, yn = x[~far], y[~far]
        ends = np.concatenate([xn - yn, xn, xn + yn])
        self._antiderivative()
        nodes, table = _indexed_nearest_nodes(self, ends)
        # a far window is exactly y wide: half-width y / 2 about x -+ y / 2
        h6, h4 = 0.5 * y6, 0.5 * y4
        six = _batch_panel_sums(self.line_map, np.concatenate([x6 - h6, x6 + h6]),
                                np.concatenate([h6, h6]), 6)
        four = _batch_panel_sums(
            self.line_map, np.concatenate([x4 - h4, x4 + h4, 0.5 * (ends + nodes)]),
            np.concatenate([h4, h4, 0.5 * (ends - nodes)]), 4)
        i1, i2 = np.empty(x.size), np.empty(x.size)
        i1[far6], i2[far6] = six.reshape(2, -1)
        i1[far4], i2[far4] = four[:2 * x4.size].reshape(2, -1)
        g_lo, g_mid, g_hi = (table + four[2 * x4.size:]).reshape(3, -1)
        i1[~far], i2[~far] = g_mid - g_lo, g_hi - g_mid
        return (i1 + i2) / (2.0 * y), (i2 - i1) / (2.0 * y)

    def _disc(self, zf):
        w = 1j * (1.0 - zf) / (1.0 + zf)
        u, v = self.halfplane(w.real, w.imag)
        phi_hp = u + 1j * v
        return w, u, v, phi_hp, (1j - phi_hp) / (1j + phi_hp)

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        return self._disc(z.ravel())[-1].reshape(z.shape)

    def jet(self, z):
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


def _disc_batch(n, seed):
    """n seeded disc points, 1 - |z| log-uniform from 2^-1 to 2^-40, the
    first ones replaced by edge lanes: signed zeros, NaN parts, points next
    to +-1, and points whose half-plane images lie near |x| = (1 + kappa) y
    for both reaches."""
    rng = np.random.default_rng(seed)
    z = ((1.0 - 2.0 ** -rng.uniform(1.0, 40.0, n))
         * np.exp(1j * rng.uniform(-np.pi, np.pi, n)))
    w = np.array([1.0 + _KAPPA[6], -(1.0 + _KAPPA[4])]) * 1e-3 + 1e-3j
    edge = np.concatenate([[0.0, complex(-0.0, -0.0), complex(np.nan, 0.0),
                            complex(0.5, np.nan), 1.0 - 1e-12, -1.0 + 1e-12],
                           (1j - w) / (1j + w)])
    k = min(n, edge.size)
    z[:k] = edge[:k]
    return z


def _halfplane_batch(n, seed):
    """n seeded half-plane points (_random_points), the first ones replaced
    by edge lanes: signed zeros, NaN, and points exactly on
    |x| = (1 + kappa) y for both reaches."""
    x, y = _random_points(n, seed)
    on = [(s * (1.0 + _KAPPA[order]) * h, h) for order in (6, 4)
          for s in (1.0, -1.0) for h in (1.0, 2.0 ** -30)]
    edge_x, edge_y = np.array([(0.0, 1.0), (-0.0, 1e-9), (np.nan, 1.0),
                               (1.0, np.nan), *on]).T
    k = min(n, edge_x.size)
    x[:k], y[:k] = edge_x[:k], edge_y[:k]
    return x, y


def _kernel_ends(n, seed):
    """Window ends over the whole table and beyond it: signed values from
    2^-140 to 2^70, and +-0.0, subnormals, and values above 2^_HIGHEST and
    below 2^_LOWEST, which the lookups clip."""
    rng = np.random.default_rng(seed)
    t = rng.choice([-1.0, 1.0], n) * 2.0 ** rng.uniform(-140.0, 70.0, n)
    edge = [0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1060, -(2.0 ** -1030),
            2.0 ** (_LOWEST - 1), -(2.0 ** (_LOWEST - 30)),
            2.0 ** (_HIGHEST + 1), -(2.0 ** (_HIGHEST + 5)), 1e300, -1e300]
    return np.concatenate([edge, t])


def _quad_window(fn, p, q):
    """Reference integral of fn over the window p + q s, 0 <= s <= 1, exactly
    |q| wide: |q| times that of fn(p + q s) over [0, 1] by scipy's adaptive
    quad, split where p + q s crosses 0."""
    from scipy.integrate import quad

    cut = -p / q
    points = [0.0, cut, 1.0] if 0.0 < cut < 1.0 else [0.0, 1.0]
    return abs(q) * sum(quad(lambda s: float(fn(p + q * s)), lo, hi, epsabs=0.0,
                             epsrel=1e-13, limit=200)[0]
                        for lo, hi in zip(points, points[1:]))


def _quad_halfplane(h, x, y):
    """Reference (u, v) at the points x + iy from _quad_window."""
    i1 = np.array([_quad_window(h, p, -q) for p, q in zip(x, y)])
    i2 = np.array([_quad_window(h, p, q) for p, q in zip(x, y)])
    return (i1 + i2) / (2.0 * y), (i2 - i1) / (2.0 * y)


class TestLineIntegral:
    def test_reach_from_bernstein_ellipse(self):
        # a singularity _KAPPA[n] panel widths beyond an n-node panel's end
        # lies on the Bernstein ellipse where rho^(-2n) is machine epsilon
        assert sorted(_KAPPA) == [4, 6]
        for order, kappa in _KAPPA.items():
            u = 1.0 + 2.0 * kappa
            rho = u + np.sqrt(u * u - 1.0)
            assert rho ** (-2 * order) == pytest.approx(np.finfo(float).eps, rel=1e-9)
        assert _KAPPA[6] == pytest.approx(4.552, abs=1e-3)
        assert _KAPPA[4] == pytest.approx(22.130, abs=1e-3)

    def test_lookup_panels_reach_four_nodes(self):
        # a lookup panel runs from a node m to a t nearest m in ratio, so at
        # most to the cut c between m and the next node m': its ends are
        # m and c, or c and m', and the end nearer 0 lies at least
        # _KAPPA[4] of the panel's widths from 0
        nodes = np.append(_MANTISSAS, 2.0 * _MANTISSAS[0])
        lo, hi = nodes[:-1], nodes[1:]
        assert np.all((lo < _CUTS) & (_CUTS < hi))
        assert np.all(lo / (_CUTS - lo) >= _KAPPA[4])
        assert np.all(_CUTS / (hi - _CUTS) >= _KAPPA[4])
        # every table panel, node to node, lies _KAPPA[6] of its widths out
        assert np.all(lo / (hi - lo) >= _KAPPA[6])
        # and so does every lookup _nearest_nodes makes
        ext = BAExtension(make_disc_map("thm2_sqrt").boundary)
        rng = np.random.default_rng(3)
        t = rng.choice([-1.0, 1.0], 20000) * 2.0 ** rng.uniform(_LOWEST, _HIGHEST, 20000)
        node, _ = ext._nearest_nodes(t)
        assert np.all(_KAPPA[4] * np.abs(t - node) <= np.minimum(np.abs(t), np.abs(node)))

    @pytest.mark.parametrize("spec", ["thm2_sqrt", "power:2", "power:0.3", "identity"])
    def test_matches_seed_rule(self, spec):
        ext = BAExtension(make_disc_map(spec).boundary)
        x, y = _random_points()
        u, v = ext.halfplane(x, y)
        u_ref, v_ref = _SeedRuleBA(ext.boundary).halfplane(x, y)
        scale = _scale(ext.line_map, x, y)
        assert np.all(np.abs(u - u_ref) <= 1e-11 * scale)
        assert np.all(np.abs(v - v_ref) <= 1e-11 * scale)

    @pytest.mark.parametrize("x, y, evaluations", [
        (6.0, 1.0, 12),
        (-3.0, 0.5, 12),
        (1.0 + _KAPPA[6], 1.0, 12),
        (23.0, 1.0, 12),
        (5.5, 1.0, 12),
        (-2.0, 1.0, 12),
        (0.0, 1.0, 12),
        (1e-3, 1e-3, 12),
        (1.0 + _KAPPA[4], 1.0, 8),
        (-30.0, 1.0, 8),
        (1e6, 1e-3, 8),
    ])
    def test_evaluations_per_point(self, x, y, evaluations):
        # a far point is one panel a window, of 4 nodes beyond 1 + kappa_4
        # and of 6 nodes short of it; any other point three 4-node lookups
        ext = _CountingLineBA()
        ext.halfplane(0.0, 1.0)
        ext.batches.clear()
        ext.halfplane(x, y)
        assert len(ext.batches) == 1
        assert ext.evaluations == evaluations
        # an empty batch makes no call at all
        ext.halfplane(np.zeros(0), np.zeros(0))
        assert len(ext.batches) == 1

    def test_table_built_once_per_extension(self, monkeypatch):
        counts = []
        line_map = BAExtension.line_map

        def counting(self, x):
            counts.append(np.size(x))
            return line_map(self, x)

        monkeypatch.setattr(BAExtension, "line_map", counting)
        phi = make_disc_map("thm2_sqrt")
        assert counts == []
        assert 17000 < _TABLE < 18000
        # z = 1/2 is x + iy = i/3: three 4-node lookups
        for _ in range(2):
            phi(np.array([0.5 + 0j]))
        assert counts == _TABLE_BATCHES + [3 * 4, 3 * 4]
        # x + iy = 6 + i and 30 + i are far: one 6-node, or 4-node, panel
        # a window
        for w, order in ((6.0 + 1.0j, 6), (30.0 + 1.0j, 4)):
            counts.clear()
            make_disc_map("thm2_sqrt")(np.array([(1j - w) / (1j + w)]))
            assert counts == _TABLE_BATCHES + [2 * order]

    def test_batch_evaluates_no_zero_width_panel(self, monkeypatch):
        ext = _CountingLineBA()
        ext.halfplane(0.0, 1.0)  # builds the table
        ext.batches.clear()
        x, y = _random_points(n=10000)  # three blocks
        far4 = np.count_nonzero(_far(x, y, 4))
        far6 = np.count_nonzero(_far(x, y)) - far4
        near = x.size - far4 - far6
        assert min(far4, far6, near) > 0
        runs = []  # (order, nodes by panel) of each run of panels
        panel_nodes = extension._panel_nodes

        def recording(mid, half, order, nodes):
            panel_nodes(mid, half, order, nodes)
            runs.append((order, nodes.reshape(order, -1).T.copy()))

        monkeypatch.setattr(extension, "_panel_nodes", recording)
        ext.halfplane(x, y)
        # the line map takes the runs' nodes in order, node-major (row j of
        # a run's reshape(order, -1) is node j of every panel), at most a
        # batch budget a call; a block's 6-node panels of far points come
        # before its 4-node ones of the other far points and the lookups
        assert len(runs) > 2  # more than one block
        assert all(batch.size <= _NODES_PER_CALL for batch in ext.batches)
        assert (np.concatenate(ext.batches).tobytes()
                == np.concatenate([n.T.ravel() for _, n in runs]).tobytes())
        assert [order for order, _ in runs][:2] == [6, 4]
        by_order = {order: np.concatenate([n for o, n in runs if o == order])
                    for order in (6, 4)}
        assert by_order[6].shape[0] == 2 * far6
        assert by_order[4].shape[0] == 2 * far4 + 3 * near
        assert all(np.all(np.ptp(n, axis=1) > 0.0) for n in by_order.values())

    @pytest.mark.parametrize("spec", ["thm2_sqrt", "power:2"])
    def test_chunks_change_no_bit(self, spec, monkeypatch):
        ext = BAExtension(make_disc_map(spec).boundary)
        x, y = _random_points(n=2500)
        got = np.concatenate(ext.halfplane(x, y))
        alone = np.concatenate([ext.halfplane(x[i:i + 1], y[i:i + 1])
                                for i in range(x.size)], axis=1).ravel()
        assert got.tobytes() == alone.tobytes()
        # one block (half of 18 nodes a point), and a table built in a call
        # of its own
        with monkeypatch.context() as m:
            m.setattr(quadrature, "_NODES_PER_CALL", 18 * x.size)
            fresh = BAExtension(make_disc_map(spec).boundary)
            fresh._nearest_nodes(np.zeros(1))
            assert got.tobytes() == np.concatenate(fresh.halfplane(x, y)).tobytes()

    def test_panel_sums_in_chunks(self):
        calls = []

        def fn(x):
            calls.append(x.size)
            return np.cos(x)

        # 4 nodes on a panel of width 1/4 leave Gauss's remainder of cos,
        # up to 2.1e-15
        for order, atol in ((6, 1e-15), (4, 5e-15)):
            left = np.linspace(-2.0, 2.0, 2 * (_NODES_PER_CALL // order) + 1)
            right = left + 0.25
            calls.clear()
            sums = _panel_sums(fn, left, right, order)
            nodes = order * left.size
            assert calls == [_NODES_PER_CALL] * 2 + [nodes - 2 * _NODES_PER_CALL]
            np.testing.assert_allclose(sums, np.sin(right) - np.sin(left),
                                       rtol=0.0, atol=atol)
            assert _panel_sums(fn, left[:0], right[:0], order).size == 0
            assert len(calls) == 3

    def test_jet_of_a_chunked_batch_matches_its_halves(self, thm2_map, monkeypatch):
        # disc points near the cusp's image, 1 - |z| down to 2^-20
        theta = np.linspace(-0.5, 0.5, 128)
        z = (radial_schedule(20)[:, None] * np.exp(1j * theta)).ravel()
        thm2_map(z[:1])  # builds the table
        calls = []
        line_map = BAExtension.line_map

        def counting(self, x):
            calls.append(np.size(x))
            return line_map(self, x)

        with monkeypatch.context() as m:
            m.setattr(BAExtension, "line_map", counting)
            whole = thm2_map.jet(z)
        # the panels and the window ends take several line-map calls
        assert len(calls) >= 3 and max(calls) <= _NODES_PER_CALL
        half = z.size // 2
        parts = thm2_map.jet(z[:half]), thm2_map.jet(z[half:])
        for k in range(3):
            joined = np.concatenate([parts[0][k], parts[1][k]])
            assert whole[k].tobytes() == joined.tobytes()


# with the edges of a block of half the batch budget of points
_BATCH_SIZES = [0, 1, 2, 3, 9, 80, 2048, 4095, 4096, 4097, 8192, 8193, 12289]


class TestKernelBitwise:
    """The node-major panel sums, the flat table lookups and the in-place
    line map give every bit of the panel-major einsum sums, the 2-D table
    index and the out-of-place line map they replaced; the one pass through
    reused buffers gives every bit of halfplane, call and jet with
    batch-sized temporaries (_BatchBA)."""

    @pytest.mark.parametrize("spec", ["thm2_sqrt", "power:2"])
    def test_halfplane_matches_batch_temporaries(self, spec):
        ext, ref = BAExtension(make_disc_map(spec).boundary), _BatchBA(make_disc_map(spec).boundary)
        for n in _BATCH_SIZES:
            x, y = _halfplane_batch(n, seed=n)
            for a, b in zip(ext.halfplane(x, y), ref.halfplane(x, y)):
                assert a.tobytes() == b.tobytes()
        # a point, and a point exactly on each switch
        for x, y in ((np.float64(0.3), np.float64(0.2)),
                     (1.0 + _KAPPA[6], 1.0), (-(1.0 + _KAPPA[4]), 1.0)):
            for a, b in zip(ext.halfplane(x, y), ref.halfplane(x, y)):
                assert a.shape == (1,) and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("spec", ["thm2_sqrt", "power:2"])
    def test_call_and_jet_match_batch_temporaries(self, spec):
        phi, ref = BAExtension(make_disc_map(spec).boundary), _BatchBA(make_disc_map(spec).boundary)
        for n in _BATCH_SIZES:
            z = _disc_batch(n, seed=n)
            with np.errstate(invalid="ignore"):
                assert phi(z).tobytes() == ref(z).tobytes()
                for a, b in zip(phi.jet(z), ref.jet(z)):
                    assert a.tobytes() == b.tobytes()
        # single lanes, as Newton's last iterations run them: there a
        # complex product written over one of its factors rounds otherwise
        for lane in _disc_batch(60, seed=9)[10:, None]:
            for a, b in zip(phi.jet(lane), ref.jet(lane)):
                assert a.tobytes() == b.tobytes()
        point = np.complex128(0.3 - 0.4j)
        assert phi(point).shape == ()
        assert phi(point).tobytes() == ref(point).tobytes()
        for a, b in zip(phi.jet(point), ref.jet(point)):
            assert a.shape == () and a.tobytes() == b.tobytes()

    def test_first_call_of_a_fresh_extension_matches_batch_temporaries(self):
        # the first call builds the table, through the line map its pass
        # then uses, before the pass fills the reused buffers
        z = _disc_batch(3000, seed=5)[10:]  # no NaN lane
        for method in ("jet", "__call__"):
            got = getattr(BAExtension(make_disc_map("thm2_sqrt").boundary), method)(z)
            want = getattr(_BatchBA(make_disc_map("thm2_sqrt").boundary), method)(z)
            for a, b in zip(np.atleast_2d(got), np.atleast_2d(want)):
                assert a.tobytes() == b.tobytes()

    def test_returned_arrays_are_fresh(self):
        # Newton and circle_means keep what a call returns across later
        # calls, so no returned array is a view of the reused buffers
        phi = BAExtension(make_disc_map("thm2_sqrt").boundary)
        with np.errstate(invalid="ignore"):  # the NaN lanes
            first = [phi.jet(_disc_batch(700, seed=1)),
                     (phi(_disc_batch(90, seed=2)),),
                     phi.halfplane(*_halfplane_batch(500, seed=3))]
            kept = [[a.copy() for a in group] for group in first]
            phi.jet(_disc_batch(8193, seed=4))
            phi(_disc_batch(5000, seed=6))
            phi.halfplane(*_halfplane_batch(9000, seed=7))
        for group, copies in zip(first, kept):
            for a, b in zip(group, copies):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("spec", ["thm2_sqrt", "power:2", "power:0.3"])
    @pytest.mark.parametrize("order", [4, 6])
    def test_panel_sums_match_einsum(self, spec, order):
        h = BAExtension(make_disc_map(spec).boundary).line_map
        rng = np.random.default_rng(order)
        # over two budgets of nodes
        ends = _kernel_ends(3 * (_NODES_PER_CALL // order), seed=order)
        left = rng.permutation(ends[np.abs(ends) < 1e100])  # no sum overflows
        width = np.abs(left) * 10.0 ** rng.uniform(-3.0, 0.0, left.size)
        right = left + rng.choice([-1.0, 1.0], left.size) * width
        # zero-width panels and panels ending at 0, among reversed ones
        right[:20] = left[:20]
        right[20:40] = 0.0
        assert np.count_nonzero(right < left) > 0
        for lo, hi in ((left, right), (left[:1], right[:1]), (left[:0], right[:0])):
            got = _panel_sums(h, lo, hi, order)
            assert got.tobytes() == _einsum_panel_sums(h, lo, hi, order).tobytes()

    @pytest.mark.parametrize("spec", ["thm2_sqrt", "power:2"])
    def test_flat_lookups_match_the_2d_index(self, spec):
        ext = BAExtension(make_disc_map(spec).boundary)
        t = _kernel_ends(20000, seed=7)
        got = ext._nearest_nodes(t)
        ref = _indexed_nearest_nodes(ext, t)
        for a, b in zip(got, ref):
            assert a.tobytes() == b.tobytes()
        # the clipped ends read the table's first and last nodes
        assert set(np.abs(got[0][np.abs(t) < 2.0 ** _LOWEST])) == {0.0, 2.0 ** _LOWEST}
        assert set(np.abs(got[0][np.abs(t) > 2.0 ** _HIGHEST])) == {2.0 ** _HIGHEST}

    @pytest.mark.parametrize("spec", ["thm2_sqrt", "power:2", "power:0.3",
                                      "identity", "moebius:0.5"])
    def test_line_map_matches_out_of_place(self, spec):
        ext = BAExtension(make_disc_map(spec).boundary)
        x = _kernel_ends(5000, seed=3)
        before = x.copy()
        assert ext.line_map(x).tobytes() == _out_of_place_line_map(ext, x).tobytes()
        assert x.tobytes() == before.tobytes()
        # a point takes NumPy's scalar loops, as it did out of place
        for point in (0.3, -2.5, np.float64(7.0), np.array(-1e-9)):
            got = ext.line_map(point)
            assert np.ndim(got) == 0
            assert got.tobytes() == _out_of_place_line_map(ext, point).tobytes()

    @pytest.mark.parametrize("g", [0.5, 2.0, 0.3, 1.0 / 0.3, 1.05, 5.0])
    def test_power_matches_out_of_place(self, g):
        t = np.concatenate([[0.0, -0.0, 5e-324, np.pi, -np.pi],
                            np.random.default_rng(1).uniform(-np.pi, np.pi, 5000)])
        before = t.copy()
        assert _power(t, g).tobytes() == _out_of_place_power(t, g).tobytes()
        assert t.tobytes() == before.tobytes()
        for point in (0.3, -2.5, np.float64(1.0), np.array(-1e-9)):
            got = _power(point, g)
            assert np.ndim(got) == 0
            assert got.tobytes() == _out_of_place_power(point, g).tobytes()


def _in_place_partials(h_lo, h_mid, h_hi, spare, u, v, y, two_y):
    """Reference partials of the averaged extension, written in place as
    the jet formed them before it was written as formulas: u_x over h_lo,
    v_x over h_mid, u_y over u and v_y over v."""
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


class _InPlaceBA(BAExtension):
    """Reference extension: call and jet by hand-scheduled in-place
    arithmetic on three reused complex rows of a block, as they ran before
    the per-block formulas replaced them; halfplane is the extension's."""

    def _extend(self, zf, jet):
        out = [np.empty(zf.size, dtype=complex) for _ in range(3 if jet else 1)]
        complex_rows = np.empty((3, extension._block()), dtype=complex)
        for start in range(0, zf.size, extension._block()):
            block = slice(start, start + extension._block())
            z = zf[block]
            phi, *derivatives = (o[block] for o in out)
            m = z.size
            ca, cb, cc = complex_rows[:, :m]
            np.subtract(1.0, z, out=ca)
            np.multiply(1j, ca, out=phi)
            np.add(1.0, z, out=ca)
            phi /= ca
            x, y = phi.real, phi.imag
            u, v = self.halfplane(x, y)
            if jet:
                dz, dzb = derivatives
                h_lo, h_mid = dz.view(float).reshape(2, m)
                h_hi, spare = dzb.view(float).reshape(2, m)
                for h, end in zip((h_lo, h_mid, h_hi), (x - y, x, x + y)):
                    h[...] = self.line_map(end)
            np.multiply(1j, v, out=ca)
            np.add(u, ca, out=ca)
            if jet:
                _in_place_partials(h_lo, h_mid, h_hi, spare, u, v, y,
                                   cc.view(float)[:m])
                np.multiply(1j, h_mid, out=dzb)
                np.add(h_lo, dzb, out=dzb)
                np.multiply(1j, v, out=dz)
                np.add(u, dz, out=dz)
            np.add(1j, ca, out=cb)
            np.subtract(1j, ca, out=phi)
            phi /= cb
            if jet:
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


class TestFormulaChain:
    """The per-block formulas of a call and a jet give every bit of the
    in-place arithmetic they replaced (_InPlaceBA), at block edges, over
    several blocks and on maps with and without symmetry."""

    @staticmethod
    def _maps(spec, cusp_homeo):
        homeo = cusp_homeo if spec == "cusp" else make_disc_map(spec).boundary
        return BAExtension(homeo), _InPlaceBA(homeo)

    @staticmethod
    def _assert_same_bits(phi, ref, z):
        with np.errstate(invalid="ignore"):  # the NaN lanes
            assert phi(z).tobytes() == ref(z).tobytes()
            for a, b in zip(phi.jet(z), ref.jet(z)):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("spec", ["thm2_sqrt", "power:2", "power:0.3", "cusp"])
    def test_call_and_jet_match_in_place_arithmetic(self, spec, cusp_homeo):
        phi, ref = self._maps(spec, cusp_homeo)
        for n in (1, 4095, 4096, 4097):
            self._assert_same_bits(phi, ref, _disc_batch(n, seed=n))
        for lane in _disc_batch(40, seed=9)[10:, None]:
            self._assert_same_bits(phi, ref, lane)

    @pytest.mark.parametrize("spec", ["thm2_sqrt", "power:0.3", "cusp"])
    def test_several_blocks_match_in_place_arithmetic(self, spec, cusp_homeo,
                                                      monkeypatch):
        monkeypatch.setattr(quadrature, "_NODES_PER_CALL", 64)  # 32-point blocks
        phi, ref = self._maps(spec, cusp_homeo)
        for n in (31, 32, 33, 200):
            self._assert_same_bits(phi, ref, _disc_batch(n, seed=n))


class TestAllocations:
    """A warm call or jet of a batch budget of points keeps its temporaries
    in the extension's reused buffers: beyond the arrays it returns, at most
    512 KiB is live at once (tracemalloc), where batch-sized temporaries
    took 1,234 KiB for a call and 1,602 KiB for a jet."""

    @pytest.mark.parametrize("method", ["__call__", "jet"])
    def test_peak_of_live_temporaries(self, method):
        rng = np.random.default_rng(0)
        z = ((1.0 - 2.0 ** -rng.uniform(1.0, 20.0, _NODES_PER_CALL))
             * np.exp(1j * rng.uniform(-np.pi, np.pi, _NODES_PER_CALL)))
        evaluate = getattr(make_disc_map("thm2_sqrt"), method)
        evaluate(z)  # builds the table and the buffers
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = evaluate(z)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        returned = sum(a.nbytes for a in (out if method == "jet" else (out,)))
        assert peak - returned <= 512 * 1024


class TestWindowAccuracy:
    """u and v against scipy's adaptive quad, split at 0, at points read
    from the table: windows in the band kappa L / 3 <= |c| < kappa L, windows
    that end at or around 0, and points on both sides of the switch."""

    @staticmethod
    def _points(length):
        # x / y through the band [kappa / 3, kappa), on both sides of 0: the
        # window [x, x + y] (or [x - y, x]) has c = x; then windows ending
        # at 0 and around it
        f = np.linspace(_KAPPA[6] / 3.0, _KAPPA[6], 7, endpoint=False)
        x = np.concatenate([f, -f, [0.0, 1.0, -1.0, 0.5]]) * length
        return x, np.full(x.size, length)

    @pytest.mark.parametrize("spec", ["thm2_sqrt", "power:2", "power:0.3", "identity"])
    @pytest.mark.parametrize("length", [1e-9, 1e-4, 0.03, 1.0])
    def test_band_and_cusp_against_quad(self, spec, length):
        ext = BAExtension(make_disc_map(spec).boundary)
        h = ext.line_map
        x, y = self._points(length)
        assert not np.any(_far(x, y))
        u, v = ext.halfplane(x, y)
        u_ref, v_ref = _quad_halfplane(h, x, y)
        scale = _scale(h, x, y)
        assert np.all(np.abs(u - u_ref) <= 2e-15 * scale)
        assert np.all(np.abs(v - v_ref) <= 2e-15 * scale)

    @pytest.mark.parametrize("spec", ["thm2_sqrt", "power:2", "power:0.3", "identity"])
    @pytest.mark.parametrize("length", [1e-9, 1e-4, 0.03, 1.0])
    def test_both_sides_of_the_switch_against_quad(self, spec, length):
        # |x| / y up to 6, with 1 + kappa = 5.55 the switch from three table
        # lookups to one panel a window
        ext = BAExtension(make_disc_map(spec).boundary)
        h = ext.line_map
        r = np.concatenate([np.linspace(0.0, 6.0, 13),
                            (1.0 + _KAPPA[6]) * (1.0 + np.array([-1e-9, 0.0, 1e-9]))])
        x, y = np.concatenate([r, -r]) * length, np.full(2 * r.size, length)
        assert 0 < np.count_nonzero(_far(x, y)) < x.size
        u, v = ext.halfplane(x, y)
        u_ref, v_ref = _quad_halfplane(h, x, y)
        scale = _scale(h, x, y)
        assert np.all(np.abs(u - u_ref) <= 2e-15 * scale)
        assert np.all(np.abs(v - v_ref) <= 2e-15 * scale)

    @pytest.mark.parametrize("spec", ["thm2_sqrt", "power:2", "power:0.3", "identity"])
    @pytest.mark.parametrize("length", [1e-9, 1e-4, 0.03, 1.0])
    def test_both_sides_of_the_four_node_switch_against_quad(self, spec, length):
        # |x| / y from 6 to 40, with 1 + kappa_4 = 23.13 the switch from
        # 6-node to 4-node windows.  At length 1 and |x| near 40 the line map
        # is tan(alpha / 2) with alpha near pi, and its own rounding reaches
        # 5.3e-15 max|h| against quad with 6-node windows, 1.2e-14 with
        # 4-node ones; elsewhere both stay under 4e-16
        ext = BAExtension(make_disc_map(spec).boundary)
        h = ext.line_map
        r = np.concatenate([np.linspace(6.0, 40.0, 18),
                            (1.0 + _KAPPA[4]) * (1.0 + np.array([-1e-9, 0.0, 1e-9]))])
        x, y = np.concatenate([r, -r]) * length, np.full(2 * r.size, length)
        assert np.all(_far(x, y))
        assert 0 < np.count_nonzero(_far(x, y, 4)) < x.size
        u, v = ext.halfplane(x, y)
        u_ref, v_ref = _quad_halfplane(h, x, y)
        scale = (2e-14 if length == 1.0 else 2e-15) * _scale(h, x, y)
        assert np.all(np.abs(u - u_ref) <= scale)
        assert np.all(np.abs(v - v_ref) <= scale)

    @pytest.mark.parametrize("spec", ["thm2_sqrt", "power:2", "power:0.3"])
    def test_lookups_stay_in_the_table_at_the_circle(self, spec):
        ext = BAExtension(make_disc_map(spec).boundary)
        looked_up = []
        lookup = ext._nearest_nodes
        # the ends are the scratch that the pass then overwrites
        ext._nearest_nodes = lambda t: looked_up.append(t.copy()) or lookup(t)
        z = (1.0 - 1e-13) * np.exp(1j * np.array([0.0, np.pi]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = ext(z)
            hp = 1j * (1.0 - z) / (1.0 + z)
            u, v = ext.halfplane(hp.real, hp.imag)
        t = np.abs(np.concatenate(looked_up))
        assert np.any(t == 0.0)
        assert np.all((t == 0.0) | ((t >= 2.0 ** _LOWEST) & (t <= 2.0 ** _HIGHEST)))
        # 1 - |phi| is below an ulp for power:2, so |w| may round to 1
        assert np.all(np.abs(w) <= 1.0) and np.all(v > 0.0)
        # at theta = 0 the windows are [-y, 0] and [0, y], y = 5e-14
        y = hp.imag[0]
        assert hp.real[0] == 0.0
        i1 = _quad_window(ext.line_map, 0.0, -y)
        i2 = _quad_window(ext.line_map, 0.0, y)
        assert u[0] == pytest.approx((i1 + i2) / (2.0 * y), abs=2e-15 * v[0])
        assert v[0] == pytest.approx((i2 - i1) / (2.0 * y), rel=2e-15)


class TestHalfplaneExtension:
    def test_identity_closed_form(self):
        # the averaged extension of h(x) = x is (x, y/2)
        ext = BAExtension(make_disc_map("identity").boundary)
        x = np.array([-2.0, 0.0, 0.7, 5.0])
        y = np.array([0.5, 1.0, 0.01, 3.0])
        u, v = ext.halfplane(x, y)
        assert np.allclose(u, x, atol=1e-10)
        assert np.allclose(v, y / 2.0, atol=1e-10)

    def test_affine_equivariance(self):
        # h(x) = 2x extends to (2x, y); the line map is given directly,
        # bypassing the circle
        class Doubling(BAExtension):
            def line_map(self, x):
                return 2.0 * np.asarray(x, dtype=float)

        u, v = Doubling(make_disc_map("identity").boundary).halfplane(np.array([0.3, 0.0, 5.0]),
                                        np.array([0.8, 1e-3, 0.5]))
        assert np.allclose(u, [0.6, 0.0, 10.0], rtol=0.0, atol=1e-10)
        assert np.allclose(v, [0.8, 1e-3, 0.5], rtol=1e-12, atol=0.0)

    def test_upper_halfplane_preserved(self):
        ext = BAExtension(make_disc_map("thm2_sqrt").boundary)
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
        target = thm2_map.boundary.map_point(t)
        assert np.max(np.abs(w - target)) < 0.02

    def test_maps_into_disc(self, thm2_map, pow2_map):
        rng = np.random.default_rng(2)
        z = 0.999 * np.sqrt(rng.random(200)) * np.exp(2j * np.pi * rng.random(200))
        for phi in (thm2_map, pow2_map):
            assert np.all(np.abs(phi(z)) < 1.0)

    def test_identity_extension_radial_closed_form(self):
        # conjugating (x, y/2) through the Cayley map sends r to (1+3r)/(3+r)
        # on the real diameter
        phi = BAExtension(make_disc_map("identity").boundary)
        r = np.array([0.0, 0.25, 0.5, 0.9, 0.99])
        assert np.max(np.abs(phi(r + 0j) - (1 + 3 * r) / (3 + r))) < 1e-9

    @pytest.mark.parametrize("spec", ["thm2_sqrt", "power:2"])
    def test_seed_rule_along_radial_schedule(self, spec):
        # beyond r = 1 - 2^-12 both rules carry the same rounding noise of
        # BAExtension.halfplane, so the deep bound is looser
        theta = np.linspace(-np.pi, np.pi, 401)
        z = (radial_schedule()[:, None] * np.exp(1j * theta)).ravel()
        ref = _SeedRuleBA(make_disc_map(spec).boundary)(z)
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
        ratios, violations = _dilatation(BAExtension(make_disc_map("identity").boundary))
        assert violations == 0
        assert np.quantile(ratios, 0.99) == pytest.approx(2.0, rel=0.01)

    def test_moebius_extension_nearly_conformal(self):
        ratios, violations = _dilatation(BAExtension(make_disc_map("moebius:0.5").boundary))
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
            z, _, _ = invert(phi, w)
            assert abs(complex(phi(np.array([z]))[0]) - w) < 1e-7
            assert abs(z) < 1.0

    def test_moebius_closed_form(self, moebius_map):
        # phi^{-1}(w) = (w + a)/(1 + a w), evaluated by numpy, whose complex
        # division rounds differently from Python's
        w = np.complex128(0.4 - 0.2j)
        z, _, _ = invert(moebius_map, w)
        assert z == (w + 0.5) / (1 + 0.5 * w)

    def test_cusp_ray_round_trip_in_the_lanes_coordinates(self):
        # ROADMAP item 3's round trip on power:0.1's cusp ray at w = 1 -
        # 2^-k, k = 1..16: from ring 4 on z rounds to 1, and 1 - |z|^2 is
        # read from each lane's half-plane point
        w = 1.0 - 2.0 ** -np.arange(1, 17)
        z, gap, (value, _, _) = invert(make_disc_map("power:0.1"), w)
        assert np.all(np.abs(value - w) < 1e-11)
        assert np.all(gap > 0) and np.all(np.abs(z[3:]) == 1.0)
        # rings 1-3, where z holds its depth: (1 - |z|)(1 + |z|) agrees to
        # the rounding of z, eps / (1 - |z|) relative (measured: at most
        # 0.38 of it, at ring 1)
        near = (1.0 - np.abs(z[:3])) * (1.0 + np.abs(z[:3]))
        assert np.all(np.abs(gap[:3] - near) <= np.finfo(float).eps
                      * near / (1.0 - np.abs(z[:3])))


def _circular_distortion(phi, balls, n_boundary=24):
    """diam(phi^{-1}(B)) / (1 - |phi^{-1}(center)|) for each hyperbolic ball,
    from the preimages of 24 points just inside its rim."""
    ratios = []
    for ball in balls:
        thetas = 2.0 * np.pi * np.arange(n_boundary) / n_boundary
        rim = ball.center + ball.radius * 0.999 * np.exp(1j * thetas)
        pre, _, _ = invert(phi, np.concatenate(([ball.center], rim)))
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
        zc, _, _ = invert(moebius_map, 0.5)
        dphi = abs(complex(moebius_map.complex_derivative(np.array([zc]))[0]))
        expected = 2.0 * ball.radius * 0.999 / dphi / (1.0 - abs(zc))
        ratio = _circular_distortion(moebius_map, [ball])[0]
        assert ratio == pytest.approx(expected, rel=0.02)

    def test_qc_band(self, thm2_map):
        balls = [HyperbolicBall(center=(1 - 2.0 ** -k), ratio=0.5)
                 for k in range(1, 5)]
        ratios = _circular_distortion(thm2_map, balls)
        assert all(0.05 < r < 10.0 for r in ratios)


def _one_vertex_aperture(phi, t, c=2.0, samples=96):
    """cone_image_aperture as it ran on one vertex, at angle t, a call: the
    reference for the bitwise check of its batched form."""
    rays = np.linspace(-1.0, 1.0, max(3, int(samples) // 12))
    w = phi(np.concatenate(cone_lattice(t, c, rays)))
    target = complex(phi.boundary.map_point(float(t)))
    gap = 1.0 - np.abs(w)
    return float(np.max(np.abs(w - target) / np.where(gap > 0, gap, np.nan)))


class TestConeImageAperture:
    @pytest.mark.parametrize("spec", ["thm2_sqrt", "power:2", "moebius:0.5",
                                      "cusp"])
    def test_vertices_at_once_match_one_call_each(self, spec, cusp_homeo):
        # lemma1's 16 vertices, in one call of phi; a symmetric phi reads the
        # vertex at angle t from its cone at |t|, and a map that is not
        # symmetric, the two-sided cusp, reads each vertex's own cone
        phi = BAExtension(cusp_homeo) if spec == "cusp" else make_disc_map(spec)
        xi = np.exp(1j * np.pi * np.arange(-15, 16, 2) / 16)
        fold = np.abs if phi.symmetric else np.asarray
        want = np.array([_one_vertex_aperture(phi, t) for t in fold(np.angle(xi))])
        got = cone_image_aperture(phi, xi)
        assert got.shape == xi.shape and got.tobytes() == want.tobytes()
        grid = cone_image_aperture(phi, xi.reshape(4, 4), c=2.0, samples=96)
        assert grid.shape == (4, 4) and grid.tobytes() == want.tobytes()
        point = cone_image_aperture(phi, xi[3])
        assert type(point) is float and point == want[3]

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

    def test_vertex_off_the_circle(self, identity_map):
        with pytest.raises(ValueError, match="unit circle"):
            cone_image_aperture(identity_map, 0.5)

    def test_lattice_lies_in_cone(self, identity_map):
        seen = []

        def interior(z):
            seen.append(z)
            return z

        xi, c = np.exp(0.7j), 2.5
        cone_image_aperture(DiscQCMap(identity_map.boundary, interior), xi, c,
                            samples=84)
        (z,) = seen
        assert z.shape == (1, 84)  # one vertex: 12 depths of 7 rays
        assert np.all(np.abs(z - xi) < c * (1.0 - np.abs(z)))


class TestCatalogConstruction:
    def test_conformal_flags(self):
        assert make_disc_map("identity").complex_derivative is not None
        assert make_disc_map("moebius:0.3").complex_derivative is not None
        assert make_disc_map("thm2_sqrt").complex_derivative is None

    def test_make_disc_map_dispatch(self):
        assert make_disc_map("identity").label == "identity"
        assert make_disc_map("power:2").label == "ba[power(2)]"
        assert make_disc_map("thm2_sqrt").label == "ba[thm2_sqrt]"
        for spec in ("thm2_sqrt", "power:2"):
            phi = make_disc_map(spec)
            assert isinstance(phi, BAExtension)
            assert phi.inverse is None and phi.complex_derivative is None
        for spec in ("identity", "moebius:0.5"):
            assert not isinstance(make_disc_map(spec), BAExtension)

    def test_identity_is_the_moebius_map_at_zero(self):
        # the former identity map, z -> z with derivative 1 and inverse w -> w
        former = DiscQCMap(identity_homeo(), lambda z: z,
                           complex_derivative=np.ones_like, inverse=lambda w: w)
        phi, rng = make_disc_map("identity"), np.random.default_rng(7)
        assert phi.label == "identity" and not isinstance(phi, BAExtension)
        z = np.sqrt(rng.random(500)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 500))
        pairs = [(phi(z), former(z)), (phi.inverse(z), former.inverse(z)),
                 *zip(phi.jet(z), former.jet(z)),
                 *zip(invert(phi, z)[1:], invert(former, z)[1:])]
        for got, want in pairs:
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_moebius_without_parameter_is_a_value_error(self):
        with pytest.raises(ValueError, match="one parameter"):
            make_disc_map("moebius")

    def test_moebius_exact_interior(self):
        phi = make_disc_map("moebius:0.5")
        z = 0.3 + 0.2j
        assert abs(complex(phi(np.array([z]))[0]) - (z - 0.5) / (1 - 0.5 * z)) < 1e-15

    def test_wirtinger_conformal_exact(self, moebius_map):
        z = np.array([0.2 + 0.1j])
        dz, dzb = moebius_map.jet(z)[1:]
        assert abs(dzb[0]) == 0.0
        assert abs(dz[0] - 0.75 / (1 - 0.5 * z[0]) ** 2) < 1e-14

    def test_wirtinger_identity_extension_dilatation_two(self):
        phi = BAExtension(make_disc_map("identity").boundary)
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
        phi = BAExtension(h)
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
        assert BAExtension(make_disc_map("moebius:0.5").boundary).kink_angles(0.9) == ()
        assert make_disc_map("power:2").boundary.cusps == (0.0,)
        # a map in closed form is smooth inside, whatever cusps its angle
        # map has; only the extension's window meets them
        closed = DiscQCMap(power_homeo(2.0), lambda z: z)
        assert closed.kink_angles(0.9) == ()
        assert len(BAExtension(power_homeo(2.0)).kink_angles(0.9)) == 4


_ANGLES = -np.pi + 2.0 * np.pi * np.arange(401) / 401


def _fd_jet(phi, z):
    """Reference jet of phi: central finite differences, step 1e-5 (1 - |z|)."""
    h = 1e-5 * (1.0 - np.abs(z))
    fx = (phi(z + h) - phi(z - h)) / (2.0 * h)
    fy = (phi(z + 1j * h) - phi(z - 1j * h)) / (2.0 * h)
    return phi(z), 0.5 * (fx - 1j * fy), 0.5 * (fx + 1j * fy)


class _CountingBA(BAExtension):
    """BA extension that records the batch size of every jet and call, and
    the points and values of every half-plane jet, as Newton makes them."""

    def __init__(self, homeo):
        super().__init__(homeo)
        self.jets, self.calls, self.halfplane_jets = [], [], []

    def jet(self, z):
        self.jets.append(np.size(z))
        return super().jet(z)

    def __call__(self, z):
        self.calls.append(np.size(z))
        return super().__call__(z)

    def halfplane_jet(self, x, y):
        out = super().halfplane_jet(x, y)
        self.halfplane_jets.append((np.array(x), np.array(y), out))
        return out

    @property
    def newton_sizes(self):
        """The number of lanes of each half-plane jet."""
        return [x.size for x, _, _ in self.halfplane_jets]


def _counting_map(spec):
    return _CountingBA(make_disc_map(spec).boundary)


def _jet_at_last_zeta(phi):
    """(z, 1 - |z|^2, phi, d_z phi, d_zbar phi) at each lane's point zeta =
    x + iy of a _CountingBA's last half-plane jet: its Cayley image (i -
    zeta) / (i + zeta), 4y / (x^2 + (1 + y)^2) and the chain rule there,
    with d zeta / dz = i (i + zeta)^2 / 2."""
    x, y, (u, v, u_x, u_y, v_x, v_y) = phi.halfplane_jets[-1]
    zeta = x + 1j * y
    f = u + 1j * v
    dz, dzb = np.empty((2, x.size), dtype=complex)
    extension._wirtinger(1j + f, u_x + 1j * v_x, u_y + 1j * v_y,
                         0.5j * np.square(1j + zeta), dz, dzb)
    return ((1j - zeta) / (1j + zeta), 4.0 * y / (x * x + (1.0 + y) ** 2),
            (1j - f) / (1j + f), dz, dzb)


def _exact_identity_jet(z):
    """(phi, d_z phi, d_zbar phi) at the double z of the BA extension of the
    identity, F(w) = (3w + conj(w)) / 4 in the half-plane, in exact rational
    arithmetic (complex numbers as pairs of Fractions), rounded once."""

    def mul(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    def div(a, b):
        d = b[0] * b[0] + b[1] * b[1]
        return (a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d

    re, im = Fraction(z.real), Fraction(z.imag)
    one_plus_z = (1 + re, im)
    w = div((im, 1 - re), one_plus_z)  # i (1 - z) / (1 + z)
    i_plus_f = (w[0], 1 + w[1] / 2)  # i + F, F = u + iv = x + iy/2
    phi = div((-w[0], 1 - w[1] / 2), i_plus_f)
    outer = div((0, -2), mul(i_plus_f, i_plus_f))
    inner = div((0, -2), mul(one_plus_z, one_plus_z))
    dz = mul(outer, (Fraction(3, 4) * inner[0], Fraction(3, 4) * inner[1]))
    dzb = mul(outer, (Fraction(1, 4) * inner[0], Fraction(-1, 4) * inner[1]))
    return [complex(float(a), float(b)) for a, b in (phi, dz, dzb)]


class TestJet:
    def test_identity_extension_against_exact_arithmetic(self):
        # along r = 1 - 2^-k a far window lies |x| / y of its widths from 0,
        # up to 1.1e9 here; a width taken from rounded ends x -+ y would cost
        # eps |x| / y of it, and eps (x / y)^2 of u_y.  Measured: at most
        # 107 eps (1 + |x| / y) relative
        phi = BAExtension(identity_homeo())
        z = ((1.0 - 2.0 ** -np.arange(1, 31))[:, None]
             * np.exp(1j * np.linspace(-3.1, 3.1, 63))).ravel()
        w = 1j * (1.0 - z) / (1.0 + z)
        bound = 256.0 * np.finfo(float).eps * (1.0 + np.abs(w.real) / w.imag)
        exact = np.array([_exact_identity_jet(p) for p in z]).T
        for got, want in zip(phi.jet(z), exact):
            assert np.all(np.abs(got - want) <= bound * np.abs(want))

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
        batch, _, _ = invert(phi, self._TARGETS)
        assert batch.shape == self._TARGETS.shape
        scalar = np.array([invert(phi, w)[0] for w in self._TARGETS])
        assert np.all(np.abs(phi(batch) - self._TARGETS) < 1e-11)
        assert np.allclose(batch, scalar, rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("spec", ["moebius:0.5", "thm2_sqrt", "power:2"])
    def test_jet_is_that_of_the_solution_bitwise(self, spec):
        # a closed-form inverse's jet is phi.jet(z) and its 1 - |z|^2 is
        # (1 - |z|)(1 + |z|); Newton's are the chain rule and 4y / (x^2 +
        # (1 + y)^2) at the lane's own zeta, its last half-plane jet, whose
        # Cayley image z is
        phi = _counting_map(spec) if spec != "moebius:0.5" else make_disc_map(spec)

        def want(w):
            z, _, _ = invert(phi, w)
            if not phi.inverse:
                return _jet_at_last_zeta(phi)
            return (z, (1.0 - np.abs(z)) * (1.0 + np.abs(z)), *phi.jet(z))

        lanes = [want(w) for w in self._TARGETS]
        batch = [np.concatenate([np.ravel(lane[k]) for lane in lanes])
                 for k in range(5)]
        for targets, ref in ((self._TARGETS, batch), (0.3, want(0.3))):
            z, gap, jet = invert(phi, targets)
            for got, bits in zip((z, gap, *jet), ref, strict=True):
                assert got.shape == np.shape(targets)
                assert got.tobytes() == np.reshape(bits, got.shape).tobytes()
            # the solution's jet, to the rounding of z = (i - zeta) / (i +
            # zeta): measured, at most 1.7e-13 relative, at |w| = 0.999
            for got, near in zip(jet, phi.jet(z)):
                assert np.allclose(got, near, rtol=1e-12, atol=1e-15)

    def test_one_jet_call_per_iteration(self):
        phi = _counting_map("thm2_sqrt")
        iterations = []
        for w in self._TARGETS:
            phi.halfplane_jets.clear()
            invert(phi, w)
            iterations.append(len(phi.newton_sizes))
        phi.halfplane_jets.clear()
        invert(phi, self._TARGETS)
        # call k runs on the lanes that need more than k iterations
        expected = [sum(n > k for n in iterations) for k in range(max(iterations))]
        assert phi.newton_sizes == expected
        assert phi.jets == phi.calls == []

    def test_non_convergence_raises(self, thm2_map, monkeypatch):
        monkeypatch.setattr(extension, "_MAX_ITER", 1)
        with pytest.raises(RuntimeError, match="did not converge"):
            invert(thm2_map, np.array([0.3, 0.6j]))


# targets on the rings 1 - 2^-k, k = 1..16, at 64 angles each
_RING_TARGETS = ((1.0 - 2.0 ** -np.arange(1, 17))[:, None]
                 * np.exp(2j * np.pi * np.arange(64) / 64))


def _counting_jets(phi):
    """phi with its jet wrapped to record the batch size of every call."""
    jets = []

    def jet(z, original=phi.jet):
        jets.append(np.size(z))
        return original(z)

    phi.jet = jet
    return phi, jets


class TestClosedFormInvert:
    _SPECS = ["identity", "moebius:0.5", "moebius:-0.5", "moebius:0.9",
              "moebius:-0.9", "moebius:0.99", "moebius:-0.99", "moebius:0.999"]

    @pytest.mark.parametrize("spec", _SPECS)
    def test_is_the_inverse_with_its_jet(self, spec):
        phi = make_disc_map(spec)
        z, gap, jet = invert(phi, _RING_TARGETS)
        assert z.tobytes() == phi.inverse(_RING_TARGETS).tobytes()
        assert gap.tobytes() == ((1.0 - abs(z)) * (1.0 + abs(z))).tobytes()
        for got, want in zip(jet, phi.jet(z)):
            assert got.shape == _RING_TARGETS.shape
            assert got.tobytes() == want.tobytes()
        # measured: 5.5e-14 at a = 0.99 and 4.7e-13 at a = 0.999, under
        # 8 eps / (1 - |a|), the rounding of (w + a) / (1 + a w) and its
        # image
        a = 0.0 if spec == "identity" else abs(float(spec.split(":")[1]))
        tol = 8.0 * np.finfo(float).eps / (1.0 - a)
        assert np.max(np.abs(phi(z) - _RING_TARGETS)) < tol

    @pytest.mark.parametrize("spec", ["identity", "moebius:0.99"])
    def test_one_jet_call_per_invert(self, spec):
        phi, jets = _counting_jets(make_disc_map(spec))
        invert(phi, _RING_TARGETS)
        invert(phi, 0.3 - 0.1j)
        assert jets == [_RING_TARGETS.size, 1]

    def test_a_wrong_inverse_does_not_converge(self):
        good = make_disc_map("moebius:0.5")
        bad = DiscQCMap(good.boundary, good.interior, good.complex_derivative,
                        inverse=lambda w: -w)
        failures = quadrature.WORK["invert_failures"]
        with pytest.raises(RuntimeError, match="did not converge"):
            invert(bad, np.array([0.3, 0.6j]))
        assert quadrature.WORK["invert_failures"] == failures + 2


class TestInitialGuesses:
    # a point of the ball D(-0.75, 0.125) that thm2_sqrt's former default
    # guess, |w| times the boundary preimage of w's direction, did not reach
    _NODE = -0.8086 + 0.1097j

    def test_default_start_is_the_window_inverse(self):
        # x -+ y/2 = h^-1(U -+ V) of the half-plane target U + iV, with
        # h^-1(u) = tan(alpha^-1(2 atan u) / 2)
        phi = _counting_map("thm2_sqrt")
        targets = np.append(TestBatchedInvert._TARGETS, self._NODE)
        z, _, _ = invert(phi, targets)
        assert np.all(np.abs(phi(z) - targets) < 1e-11)
        big_w = 1j * (1.0 - targets) / (1.0 + targets)
        lo, hi = (np.tan(0.5 * phi.boundary.inverse(2.0 * np.arctan(t)))
                  for t in (big_w.real - big_w.imag, big_w.real + big_w.imag))
        x, y, _ = phi.halfplane_jets[0]
        assert x.tobytes() == (0.5 * (hi + lo)).tobytes()
        assert y.tobytes() == (hi - lo).tobytes()

    def test_a_start_next_to_the_circle_converges(self):
        # at -i (1 - 1e-9) the far windows lie 1e9 of their widths from 0;
        # the images of points there start within 1e-8 of the real axis
        phi = _counting_map("thm2_sqrt")
        z0 = -1j * (1.0 - 1e-9)
        assert phi.differential(z0)[1] == pytest.approx(0.25, rel=1e-5)
        targets = phi(z0 * np.exp(1j * np.array([-0.5, 0.0, 0.3, 2.0])))
        phi.halfplane_jets.clear()
        z, _, _ = invert(phi, targets)
        _, y, _ = phi.halfplane_jets[0]
        assert np.all(y < 1e-8)
        assert np.all(np.abs(phi(z) - targets) < 1e-11)


def _stop_kind(phi, w):
    """How a one-lane Newton run of the _CountingBA phi on the target w
    stopped, read off its last half-plane jet: "converged", "jacobian"
    (<= 0), "cap" (the jet after _MAX_ITER steps) or "step" (not finite)."""
    _, _, (u, v, u_x, u_y, v_x, v_y) = phi.halfplane_jets[-1]
    f = u + 1j * v
    if np.abs((1j - f) / (1j + f) - w) < 1e-11:
        return "converged"
    with np.errstate(over="ignore", invalid="ignore"):  # as _newton forms it
        det = u_x * v_y - u_y * v_x
    if det <= 0:
        return "jacobian"
    return "cap" if len(phi.halfplane_jets) == extension._MAX_ITER + 1 else "step"


def _bits(a):
    """The bytes of the float or complex array a, every NaN written as the
    one NaN: the NaN target's d_zbar phi is a NaN whose sign bit numpy's
    complex arithmetic sets one way on one lane and the other in a batch."""
    f = np.ascontiguousarray(a).view(float).copy()
    f[np.isnan(f)] = np.nan
    return f.tobytes()


class TestCompactedInvert:
    """invert keeps its running lanes compact and writes a lane's outputs
    once, when it stops: a batch's z, 1 - |z|^2, jet and residual are the
    bits of each lane run alone, scattered into arrays of every lane,
    whichever way its lanes stop, and a stop fails with the message of its
    first lane that did not converge.  The targets are the ball centers of rings 1-10, 8 a
    ring; on power:0.02 three of them take every step, and two more targets
    are appended: one outside the disc, whose start meets a Jacobian <= 0,
    and a NaN, whose step is not finite."""

    _CENTERS = ((1.0 - 2.0 ** -np.arange(1, 11))[:, None]
                * np.exp(2j * np.pi * np.arange(8) / 8)).ravel()

    # at 2 or 3 steps lanes stop at the cap; thm2_sqrt and power:2 converge
    @pytest.mark.parametrize("spec, max_iter, stopped", [
        ("thm2_sqrt", 80, set()), ("power:2", 80, set()),
        ("power:0.02", 80, {"jacobian", "step", "cap"}), ("thm2_sqrt", 2, {"cap"}),
        ("power:0.3", 3, {"cap"})])
    def test_matches_the_scatter_gather_loop(self, monkeypatch, spec, max_iter,
                                             stopped):
        monkeypatch.setattr(extension, "_MAX_ITER", max_iter)
        phi, w = _counting_map(spec), self._CENTERS
        appended = spec == "power:0.02"
        if appended:
            w = np.append(w, [1.5j, np.nan])
        kinds, lanes = [], []
        with warnings.catch_warnings(), np.errstate(
                invalid="ignore" if appended else "warn"):  # NaN target
            warnings.simplefilter("error")  # no warning on a finite lane
            for i in range(w.size):
                phi.halfplane_jets.clear()
                lanes.append(extension._newton(phi, w[i:i + 1]))
                kinds.append(_stop_kind(phi, w[i]))
            z, gap, jet, residual = extension._newton(phi, w)
            with pytest.raises(RuntimeError) if stopped else nullcontext() as raised:
                invert(phi, w)
        assert set(kinds) - {"converged"} == stopped
        for got, k in ((z, 0), (gap, 1), (jet, 2), (residual, 3)):
            assert _bits(got) == _bits(np.concatenate([lane[k] for lane in lanes],
                                                      axis=-1))
        if stopped:  # a stop fails
            first = np.flatnonzero(~(residual < 1e-7))[0]
            assert str(raised.value) == (
                f"invert({phi.label}, {complex(w[first])}) did not converge "
                f"(residual {residual[first]:.2e})")


@pytest.mark.parametrize("spec", ["thm2_sqrt", "power:2", "moebius:0.5"])
def test_norm_and_jacobian_take_each_modulus_once(spec):
    # bitwise the former form, which took |dz| and |dzb| twice each
    x, y = _random_points(2000)
    z = (x + 1j * y - 1j) / (x + 1j * y + 1j)
    z = z[np.abs(z) < 1]
    _, dz, dzb = make_disc_map(spec).jet(z)
    op, jac = norm_and_jacobian(dz, dzb)
    assert np.array_equal(op, np.abs(dz) + np.abs(dzb))
    assert np.array_equal(jac, np.abs(dz) ** 2 - np.abs(dzb) ** 2)

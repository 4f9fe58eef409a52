"""Composite Gauss-Legendre quadrature on the circle with geometric grading
toward marked angles.

The integrands of interest are smooth away from finitely many angles where
they blow up like a power |theta - theta0|^(-s) with s < 1, are sharply peaked
(evaluation on a circle of radius r close to 1), or have a kink (a
Beurling-Ahlfors composite, where its averaging window crosses a cusp of the
boundary map).  Panels shrink geometrically toward each marked angle, so
every dyadic length scale between the mark's own scale and its neighbours is
resolved by a panel of matching width.  The error estimate is read off the
same samples, from the decay of each panel's Legendre coefficients.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_TAIL_CACHE: dict[int, np.ndarray] = {}

TWO_PI = 2.0 * np.pi


def gauss_legendre(order):
    """Cached Gauss-Legendre nodes/weights on [-1, 1]."""
    if order not in _GL_CACHE:
        _GL_CACHE[order] = leggauss(order)
    return _GL_CACHE[order]


def wrap_angle(t):
    """Wrap angle(s) to (-pi, pi]."""
    t = np.asarray(t, dtype=float)
    out = np.mod(t + np.pi, TWO_PI) - np.pi
    out = np.where(out == -np.pi, np.pi, out)
    if out.ndim == 0:
        return float(out)
    return out


def _graded_edges(length, scale):
    """Offsets 0, ..., length of panel edges whose widths double away from 0.

    The innermost panel has width ~scale (never wider than the interval).
    """
    edges = [0.0]
    w = min(scale, length)
    pos = w
    while pos < length:
        edges.append(pos)
        w *= 2.0
        pos += w
    edges.append(length)
    return np.asarray(edges)


def _legendre_tail(order):
    """Cached weights that map the samples at the order-point Gauss-Legendre
    nodes to the interpolant's two highest Legendre coefficients, a_{n-2},
    a_{n-1}."""
    if order not in _TAIL_CACHE:
        x, w = gauss_legendre(order)
        j = np.arange(order - 2, order)
        _TAIL_CACHE[order] = legvander(x, order - 1)[:, j] * w[:, None] * (j + 0.5)
    return _TAIL_CACHE[order]


def circle_mean(fn, marks=(), order=16):
    """(1/2pi) * integral of fn(theta) over the circle, graded toward marks.

    marks holds (angle, scale) pairs.  Between two neighbouring marked angles,
    each half of the arc is graded toward its own mark, down to about that
    mark's scale; an unmarked circle is graded toward 0 at scale pi/16.  A
    node is its mark plus an offset, wrapped only when it passes +-pi, so
    nodes close to a mark at 0 keep full relative precision.  fn must accept
    a numpy array of angles in [-pi, pi]; it is called once, on every node.

    Returns (value, error_estimate).  The error estimate sums over the panels
    the panel width times the two highest Legendre coefficients of the
    panel's samples (Trefethen, ATAP ch. 19), so it costs no evaluation.
    """
    scales = {}
    for t, s in marks or ((0.0, np.pi / 16),):
        t = wrap_angle(t)
        scales[t] = min(s, scales.get(t, np.inf))
    angles = sorted(scales)
    x, w = gauss_legendre(order)
    nodes, half = [], []
    for t0, t1 in zip(angles, angles[1:] + angles[:1]):
        # the arc from t0 to t1; a single mark's arc is the whole circle
        h = 0.5 * ((t1 - t0) % TWO_PI or TWO_PI)
        for mark, away in ((t0, 1.0), (t1, -1.0)):
            edges = _graded_edges(h, scales[mark])
            hw = 0.5 * np.diff(edges)
            nodes.append(mark + away * ((edges[:-1] + hw)[:, None] + hw[:, None] * x))
            half.append(hw)
    nodes, half = np.concatenate(nodes), np.concatenate(half)
    vals = fn((nodes - TWO_PI * np.round(nodes / TWO_PI)).ravel())
    vals = vals.reshape(nodes.shape)
    total = float(np.sum(half * (vals @ w)))
    tail = np.abs(vals @ _legendre_tail(order)).sum(axis=1)
    err = float(np.sum(2.0 * half * tail))
    return total / TWO_PI, err / TWO_PI

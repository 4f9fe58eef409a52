"""Composite Gauss-Legendre quadrature on the circle with geometric grading
toward marked angles.

The integrands of interest are smooth away from finitely many angles where
they blow up like a power |theta - theta0|^(-s) with s < 1, are sharply peaked
(evaluation on a circle of radius r close to 1), or have a kink (a
Beurling-Ahlfors composite, where its averaging window crosses a cusp of the
boundary map).  Panels shrink geometrically toward each marked angle, so
every dyadic length scale between the mark's own scale and its neighbours is
resolved by a panel of matching width.  The error estimate is read off the
same samples, from the decay of each panel's Legendre coefficients.  The
circles of a stage share one vectorised rule and one integrand call per
batch of nodes (circle_means).

The polar product rule on the unit disc, shared by ball masses and average
derivatives, lives here too.
"""

from __future__ import annotations

from collections import Counter
from functools import cache

import numpy as np
from numpy.polynomial.legendre import leggauss, legvander

TWO_PI = 2.0 * np.pi


@cache
def gauss_legendre(order):
    """Cached Gauss-Legendre nodes/weights on [-1, 1]."""
    return leggauss(order)


def wrap_angle(t):
    """Wrap angle(s) to (-pi, pi]."""
    t = np.asarray(t, dtype=float)
    out = np.mod(t + np.pi, TWO_PI) - np.pi
    out = np.where(out == -np.pi, np.pi, out)
    if out.ndim == 0:
        return float(out)
    return out


def _polar_rule(radii, angles):
    """Nodes and weights, shape (radii, angles), of a product rule on the unit
    disc: Gauss-Legendre in radius with weight r, midpoint in angle."""
    x, w = gauss_legendre(radii)
    s = 0.5 * (x + 1.0)
    t = TWO_PI * (np.arange(angles) + 0.5) / angles
    nodes = s[:, None] * np.exp(1j * t)
    return nodes, np.outer(0.5 * w * s, np.full(angles, TWO_PI / angles))


BALL_RULE = _polar_rule(8, 16)

# the one batch budget: nodes per vectorised call of circle_means'
# integrands, functionals.nt_maximal and a Beurling-Ahlfors map's line map;
# half of it is the points of a block that a Beurling-Ahlfors evaluation
# takes in one pass.  Measured: 4096 ran 2-8% slower and 16384 peaked
# 2.5 MB higher; an 8192-node float temporary is 64 KiB, under glibc's
# 128 KiB mmap threshold, so it is reused from the heap instead of mapped
# and faulted in anew on every call
_NODES_PER_CALL = 8192

# the work done, by kind, counted where it is done: once per call, block,
# Newton iteration or stage, never per node.  A run's share is the change
# over it (cli.run).  One thread at a time, as a BAExtension evaluates
WORK = Counter()


@cache
def _legendre_tail(order):
    """Cached weights that map the samples at the order-point Gauss-Legendre
    nodes to the interpolant's two highest Legendre coefficients, a_{n-2},
    a_{n-1}."""
    x, w = gauss_legendre(order)
    j = np.arange(order - 2, order)
    return legvander(x, order - 1)[:, j] * w[:, None] * (j + 0.5)


def _graded_panels(marks):
    """(mark, direction away from it, near edge's offset from it, half-width,
    circle index) of each panel, in order, of the rules graded toward
    marks[c] on circle c: each half of an arc between sorted marks, t0's
    before t1's, has edges 0, w, 3w, 7w, ... below its length h, and h, with
    w = min(scale, h), summed in order, as exact as a term-by-term loop."""
    marks = [m or ((0.0, np.pi / 16),) for m in marks]
    wrapped = iter(wrap_angle(np.array([t for m in marks for t, _ in m],
                                       dtype=float)).tolist())
    halves = []  # (circle, mark, direction away from it, length, scale)
    for c, m in enumerate(marks):
        scales = {}
        for (_, s), t in zip(m, wrapped):
            scales[t] = min(float(s), scales.get(t, np.inf))
        angles = sorted(scales)
        for t0, t1 in zip(angles, angles[1:] + angles[:1]):
            # the arc from t0 to t1; a single mark's arc is the whole circle
            h = 0.5 * ((t1 - t0) % TWO_PI or TWO_PI)
            halves += [(c, t0, 1.0, h, scales[t0]), (c, t1, -1.0, h, scales[t1])]
    circle, mark, away, length, w = np.array(halves).T
    w = np.minimum(w, length)
    # edge j >= 1 is w (2^j - 1), so the last column is past h
    steps = np.append(0.0, 2.0 ** np.arange(int(np.log2(np.max(length / w))) + 3))
    edges = np.cumsum(w[:, None] * steps, axis=1)
    panel = edges[:, :-1] < length[:, None]
    lo = edges[:, :-1][panel]
    count = panel.sum(axis=1)
    return (np.repeat(mark, count), np.repeat(away, count), lo,
            0.5 * (np.minimum(edges[:, 1:], length[:, None])[panel] - lo),
            np.repeat(circle.astype(int), count))


def node_batches(sizes):
    """(start, stop) of each batch of consecutive items, of the given node
    counts, for one vectorised call: up to _NODES_PER_CALL nodes, or one item."""
    bounds, total = [0], 0
    for i, size in enumerate(np.asarray(sizes).tolist()):
        if total + size > _NODES_PER_CALL and i > bounds[-1]:
            bounds, total = bounds + [i], 0
        total += size
    return list(zip(bounds, bounds[1:] + [len(sizes)]))


def circle_means(fn, marks, order=16):
    """(value, error estimate) of the mean of fn over each circle c, graded
    toward marks[c], yielded circle by circle.

    marks[c] holds (angle, scale) pairs, merged at the least scale per angle.
    Between two neighbouring marked angles, each half of the arc is graded
    toward its own mark, down to about that mark's scale; an unmarked circle
    toward 0 at pi/16.  A node is its mark plus an offset, wrapped only past
    +-pi, so nodes close to a mark at 0 keep full relative precision.  The
    error sums over the panels the width times the two highest Legendre
    coefficients of the samples (Trefethen, ATAP ch. 19).  fn(theta, circle)
    is called on the nodes of one node_batches batch of circles, with each
    node's circle index, when its first mean is asked for; each circle is
    summed alone, so its mean does not depend on its batch."""
    x, w = gauss_legendre(order)
    mark, away, lo, half, circle = _graded_panels(marks)
    WORK["circle_stages"] += 1
    WORK["circles"] += len(marks)
    WORK["circle_panels"] += mark.size
    ends = np.searchsorted(circle, np.arange(len(marks) + 1))
    for first, stop in node_batches(order * np.diff(ends)):
        at = ends[first:stop + 1]
        i = slice(at[0], at[-1])
        nodes = mark[i, None] + away[i, None] * ((lo[i] + half[i])[:, None]
                                                 + half[i, None] * x)
        vals = fn((nodes - TWO_PI * np.round(nodes / TWO_PI)).ravel(),
                  np.repeat(circle[i], order)).reshape(-1, order)
        for a, b in zip(at, at[1:]):
            h, v = half[a:b], vals[a - at[0]:b - at[0]]
            total = float(np.sum(h * (v @ w)))
            tail = np.abs(v @ _legendre_tail(order)).sum(axis=1)
            err = float(np.sum(2.0 * h * tail))
            yield total / TWO_PI, err / TWO_PI


def circle_mean(fn, marks=()):
    """(value, error estimate) of (1/2pi) * integral of fn(theta) over the
    circle, graded toward marks, with 16-node panels: the one-circle case of
    circle_means, fn called once, on every node."""
    return next(circle_means(lambda theta, _: fn(theta), [marks]))

"""Monotone boundary homeomorphisms of the circle and their estimators.

A circle homeomorphism is represented by its angle map alpha: [-pi, pi] ->
[-pi, pi], strictly increasing with alpha(+-pi) = +-pi, acting as
phi(e^{it}) = e^{i alpha(t)}, together with the closed-form inverse of alpha.
The angle maps of the catalog (extension.make_disc_map) are the identity,
the square-root map alpha(t) = sign(t) sqrt(pi |t|), its power-law family,
and boundary actions of disc Moebius transforms with a real parameter; each
is odd.  The dyadic Lipschitz moduli of the inverse are judged by the tail
classifier (tail.py); lipschitz_reading reads their tail.
"""

from __future__ import annotations

from collections import UserList
from dataclasses import replace
from functools import partial
from itertools import chain, count

import numpy as np

from .quadrature import WORK
from .tail import CONVERGED, read_tail

_MONOTONE_GRID = 511  # alpha is checked at pi k / 511, k = -511, -509, ..., 511


class BoundaryHomeo:
    """Strictly increasing angle homeomorphism of [-pi, pi] fixing the endpoints.

    ``forward`` and its closed-form ``inverse`` must be numpy-vectorized.
    ``cusps`` lists the angles where the angle map is not smooth.  forward or
    inverse must fix +-pi to 1e-12: where one is steep the other is flat.
    ``odd`` records whether alpha(-t) = -alpha(t) on the monotonicity check's
    grid, its own mirror image, to an ulp of alpha(t), by which two faithful
    roundings of one value can differ.
    """

    def __init__(self, forward, inverse, label="custom", cusps=()):
        self.forward = forward
        self.inverse = inverse
        self.label = label
        self.cusps = tuple(cusps)
        n = _MONOTONE_GRID
        a = self.forward(np.pi * (np.arange(-n, n + 1, 2) / n))
        if np.any(np.diff(a) <= 0):
            raise ValueError(f"{self.label}: angle map is not strictly increasing")
        for end, image in ((-np.pi, a[0]), (np.pi, a[-1])):
            if abs(image - end) > 1e-12 and abs(self.inverse(end) - end) > 1e-12:
                raise ValueError(f"{self.label}: angle map must fix -pi and pi")
        self.odd = bool(np.all(np.abs(a + a[::-1]) <= np.spacing(np.abs(a))))

    def __call__(self, t):
        return self.forward(np.asarray(t, dtype=float))

    def map_point(self, t):
        """Boundary image e^{i alpha(t)} of the point e^{it}."""
        return np.exp(1j * self(t))


def identity_homeo():
    return BoundaryHomeo(lambda t: np.asarray(t, dtype=float),
                         lambda s: np.asarray(s, dtype=float), label="identity")


def _power(t, g):
    t = np.asarray(t, dtype=float)
    # sign(t) * pi * (|t| / pi) ** g, in place on its own temporaries
    out = np.sign(t)
    out *= np.pi
    a = np.abs(t)
    a /= np.pi
    a **= g
    out *= a
    return out


def power_homeo(gamma):
    """alpha(t) = sign(t) * pi * (|t|/pi)**gamma, with its cusp at t = 0;
    gamma = 1/2 is the square-root map sign(t) sqrt(pi |t|).  Its inverse
    is the same map at 1/gamma."""
    gamma = float(gamma)
    if gamma <= 0:
        raise ValueError("power map needs gamma > 0")
    return BoundaryHomeo(partial(_power, g=gamma), partial(_power, g=1.0 / gamma),
                         label=f"power({gamma:g})", cusps=(0.0,))


def sqrt_homeo():
    h = power_homeo(0.5)
    h.label = "thm2_sqrt"
    return h


def _moebius(t, a):
    t = np.asarray(t, dtype=float)
    return t + 2.0 * np.arctan2(a * np.sin(t), 1.0 - a * np.cos(t))


def moebius_homeo(a):
    """Boundary action of the disc automorphism z -> (z - a)/(1 - a z), a real.

    alpha(t) = t + 2*atan2(a sin t, 1 - a cos t), which fixes +-pi exactly;
    its inverse is the same map at -a.
    """
    a = float(a)
    if abs(a) >= 1:
        raise ValueError("moebius parameter must satisfy |a| < 1")
    return BoundaryHomeo(partial(_moebius, a=a), partial(_moebius, a=-a),
                         label=f"moebius({a:g})")


def dyadic_edges(depth):
    """Edges of the dyadic arcs at the given depth: [-pi, pi] split into
    2**(depth+1) equal arcs of length pi * 2**(-depth), bitwise every other
    edge of the next depth: linspace steps by a power-of-two part of 2 pi."""
    return np.linspace(-np.pi, np.pi, 2 ** (depth + 1) + 1)


def lipschitz_modulus_inverse(h, dyadic_depth):
    """Per-depth sup of |h^{-1}(I)| / |I| over dyadic arcs, depths 1..dyadic_depth,
    as a list whose pre is h^{-1} at the deepest edges, the only ones mapped."""
    if dyadic_depth < 1:
        raise ValueError("dyadic_depth must be >= 1")
    pre = h.inverse(dyadic_edges(dyadic_depth))
    WORK["dyadic_points"] += pre.size
    moduli = UserList(float(np.max(np.diff(pre[::2 ** (dyadic_depth - d)]))
                            / (np.pi * 2.0 ** -d)) for d in range(1, dyadic_depth + 1))
    moduli.pre = pre
    return moduli


def _moduli_reading(moduli, deeper=()):
    """tail.read_tail's reading of the moduli, then deeper ones, of depths
    1, 2, ..., each a difference quotient over arcs of length pi 2^-d and
    known to its rounding 4 eps 2^d m_d."""
    return read_tail(((m, 4 * np.finfo(float).eps * 2.0 ** d * m) for d, m
                      in enumerate(chain(moduli, deeper), 1)), len(moduli))


def lipschitz_reading(h, moduli):
    """Reading of the depth-n modulus of h^{-1}, with error 0, given the moduli
    from lipschitz_modulus_inverse(h, n): _moduli_reading of depths 1, 2, ...,
    where each depth d > n maps only the 2^d midpoints of the edges before it."""
    def deeper(pre):
        for d in count(len(moduli) + 1):
            pre = np.insert(pre, range(1, pre.size), h.inverse(dyadic_edges(d)[1::2]))
            WORK["dyadic_points"] += pre.size // 2  # the 2^d midpoints
            yield float(np.max(np.diff(pre)) / (np.pi * 2.0 ** -d))

    return replace(_moduli_reading(moduli, deeper(moduli.pre)), error=0.0)


def lipschitz_tail(moduli):
    """Tail verdict and reason of the given per-depth moduli of depths 1, 2,
    ..., as _moduli_reading reads them."""
    reading = _moduli_reading(moduli)
    return reading.classification, reading.reason


def is_lipschitz_inverse(moduli):
    """Boolean view of lipschitz_tail: converged means Lipschitz."""
    return lipschitz_tail(moduli)[0] == CONVERGED

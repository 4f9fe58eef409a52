"""Geometric primitives of the unit disc: non-tangential cones, their angular
windows and sample lattices, and hyperbolic balls with their sampler.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import TWO_PI


def cone_halfwidth(aperture, depth):
    """Half-width of the angular window at modulus ``depth`` of the
    non-tangential cone {z : |z - xi| < aperture * (1 - |z|)} at a boundary
    point xi: d*exp(i(arg(xi)+delta)) lies in the cone iff |delta| < this value.
    """
    if not aperture > 1.0:
        raise ValueError("cone aperture must be > 1")
    d = float(depth)
    cos_bound = (1.0 + d * d - aperture * aperture * (1.0 - d) ** 2) / (2.0 * d)
    return float(np.arccos(min(1.0, max(-1.0, cos_bound))))


def cone_lattice(t0, aperture, offsets):
    """Points of the cone at the boundary angles t0, one array per depth
    1 - 2^-j, j = 1..12: the angles t0 + offsets * half-width of the window
    (offsets in [-1, 1]), shrunk by 1e-9 to keep them inside the cone."""
    out = []
    for d in 1.0 - 2.0 ** -np.arange(1, 13):
        half = cone_halfwidth(aperture, d) * (1.0 - 1e-9)
        out.append(d * np.exp(1j * (t0 + half * offsets)))
    return out


@dataclass(frozen=True)
class HyperbolicBall:
    """Euclidean ball at z of radius ratio * (1 - |z|), ratio in (0, 1)."""

    center: complex
    ratio: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.ratio < 1.0:
            raise ValueError("ball ratio must lie in (0, 1)")
        if abs(self.center) >= 1.0:
            raise ValueError("ball center must lie in the open disc")

    @property
    def radius(self):
        return self.ratio * (1.0 - abs(self.center))

    @property
    def area(self):
        return np.pi * self.radius ** 2


def ball_sample(ball, n, rng):
    """n points uniform in the ball, stratified over equal-area annuli with a
    Latin-hypercube pairing of annuli and angular sectors."""
    n = int(n)
    u = (np.arange(n) + rng.random(n)) / n
    theta = TWO_PI * (rng.permutation(n) + rng.random(n)) / n
    r = ball.radius * np.sqrt(u)
    return ball.center + r * np.exp(1j * theta)

"""Geometric primitives of the unit disc: non-tangential cones, hyperbolic
balls, and samplers over them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import TWO_PI


@dataclass(frozen=True)
class Cone:
    """Non-tangential approach region {z : |z - vertex| < aperture * (1 - |z|)}."""

    vertex: complex
    aperture: float = 2.0

    def __post_init__(self):
        if not self.aperture > 1.0:
            raise ValueError("cone aperture must be > 1")
        if abs(abs(self.vertex) - 1.0) > 1e-12:
            raise ValueError("cone vertex must lie on the unit circle")


def cone_angular_halfwidth(cone, depth):
    """Half-width of the admissible angular window at modulus ``depth``.

    Points d*exp(i(arg(vertex)+delta)) lie in the cone iff |delta| < this value.
    """
    d = float(depth)
    c = cone.aperture
    cos_bound = (1.0 + d * d - c * c * (1.0 - d) ** 2) / (2.0 * d)
    if cos_bound >= 1.0:
        return 0.0
    return float(np.arccos(max(-1.0, cos_bound)))


def cone_sample(cone, depths, rays_per_depth):
    """Lattice of points in the cone: at each depth (modulus), ``rays_per_depth``
    angles spread over the admissible window around the vertex direction.

    Returns a complex array of len(depths) * rays_per_depth points, all strictly
    inside the cone.
    """
    depths = np.asarray(depths, dtype=float)
    if depths.size == 0:
        raise ValueError("cone_sample requires at least one depth")
    if np.any((depths <= 0) | (depths >= 1)):
        raise ValueError("depths must lie in (0, 1)")
    if np.any(np.diff(depths) < 0):
        raise ValueError("depths must be sorted increasing")
    t0 = np.angle(cone.vertex)
    out = []
    for d in depths:
        half = cone_angular_halfwidth(cone, d) * (1.0 - 1e-9)
        if rays_per_depth == 1:
            deltas = np.array([0.0])
        else:
            deltas = np.linspace(-half, half, rays_per_depth)
        out.append(d * np.exp(1j * (t0 + deltas)))
    return np.concatenate(out)


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

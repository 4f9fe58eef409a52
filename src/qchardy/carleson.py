"""Pushforward measures under a quasiconformal symbol and the Carleson-type
testers built on them, plus the composition-operator boundedness proxy.

Boundary pushforwards are computed exactly through the inverse boundary angle
map; disc pushforwards have no closed form and use seeded Monte Carlo with a
bounding-disc importance region around the preimage of the ball center, with
reported standard errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import _dyadic_sup_inverse
from .extension import DiscQCMap, invert
from .functionals import hardy_norm
from .functions import compose, hardy_kernel
from .geometry import HyperbolicBall
from .quadrature import TWO_PI, circle_mean, wrap_angle


class BoundaryPushforward:
    """mu(E) = normalized length of phi^{-1}(E) for boundary arcs E."""

    def __init__(self, phi):
        self.phi = phi

    def measure_interval(self, a, b):
        """Measure of the arc from angle a to angle b (a < b <= a + 2 pi)."""
        if not a < b <= a + TWO_PI + 1e-15:
            raise ValueError("need a < b <= a + 2 pi")
        inv = self.phi.boundary.inverse
        total = 0.0
        # split at the branch cut; the angle map fixes +-pi so each piece maps
        # within (-pi, pi]
        pieces = []
        if b <= np.pi:
            pieces.append((a, b))
        elif a < np.pi:
            pieces.append((a, np.pi))
            pieces.append((-np.pi, b - TWO_PI))
        else:
            pieces.append((a - TWO_PI, b - TWO_PI))
        for lo, hi in pieces:
            if hi > lo:
                total += float(inv(np.asarray(hi)) - inv(np.asarray(lo)))
        return total / TWO_PI

    def measure_arc(self, arc):
        lo, hi = arc.endpoints()
        return self.measure_interval(lo, hi)

    def total_mass(self):
        return self.measure_interval(-np.pi, np.pi)


def boundary_carleson_constant(mu, dyadic_depth):
    """Per-depth sup of mu(I)/|I| over the dyadic arc family (normalized
    lengths).  Shares its dyadic family and arithmetic with
    lipschitz_modulus_inverse, so the two agree exactly."""
    if dyadic_depth < 1:
        raise ValueError("dyadic_depth must be >= 1")
    inv = mu.phi.boundary.inverse
    return [_dyadic_sup_inverse(inv, d) for d in range(1, dyadic_depth + 1)]


LEBESGUE = "lebesgue"
WEIGHTED = "weighted"


class DiscPushforward:
    """Pushforward under phi of either Lebesgue measure on the disc or the
    weighted measure |Dphi(z)|^p (1-|z|)^{p-1} dm(z).

    measure_ball estimates mu(B) = integral of the density over phi^{-1}(B) by
    uniform sampling of a bounding disc around the preimage of the center; the
    bounding radius is enlarged until no hits occur near its rim.
    """

    def __init__(self, phi, density=LEBESGUE, p=2.0, seed=0):
        self.phi = phi
        self.density = density
        self.p = float(p)
        self.seed = int(seed)

    def _density(self, z):
        if self.density == LEBESGUE:
            return np.ones(z.shape)
        op, _ = self.phi.differential(z)
        return op ** self.p * (1.0 - np.abs(z)) ** (self.p - 1.0)

    def measure_ball(self, ball, n=4096, index=0):
        """(mass, stderr) of the ball under the pushforward measure."""
        # size the bounding disc from preimages of a few rim points; the rim
        # overflow check below still guards against undercoverage
        rim = ball.center + ball.radius * 0.98 * np.exp(2j * np.pi * np.arange(4) / 4)
        zc, *rim_pre = invert(self.phi, np.concatenate(([ball.center], rim)))
        rim_dist = max(abs(z - zc) for z in rim_pre)
        radius_pre = max(1.5 * rim_dist, 0.3 * (1.0 - abs(zc)))
        for attempt in range(6):
            rng = np.random.default_rng((self.seed, int(index), attempt))
            r = radius_pre * np.sqrt(rng.random(n))
            theta = TWO_PI * rng.random(n)
            z = zc + r * np.exp(1j * theta)
            inside = np.abs(z) < 1.0 - 1e-14
            w = np.full(n, 2.0 + 0j)
            w[inside] = self.phi(z[inside])
            hit = np.abs(w - ball.center) < ball.radius
            if np.any(hit & (r > 0.9 * radius_pre)):
                radius_pre *= 1.8
                continue
            vals = np.zeros(n)
            if np.any(hit):
                vals[hit] = self._density(z[hit])
            area = np.pi * radius_pre ** 2
            mass = area * float(np.mean(vals))
            stderr = area * float(np.std(vals)) / np.sqrt(n)
            return mass, stderr
        raise RuntimeError("bounding disc for the ball preimage kept overflowing")


def make_ball_family(k_range=range(1, 13), angles=16, ratio=0.5):
    """The documented finite proxy for 'all hyperbolic balls': centers on the
    rings 1 - 2^{-k}, the given number of angles per ring (including angle 0),
    fixed radius ratio."""
    family = []
    for k in k_range:
        rad = 1.0 - 2.0 ** -k
        for j in range(angles):
            t = wrap_angle(-np.pi + TWO_PI * j / angles)
            family.append((k, HyperbolicBall(center=rad * np.exp(1j * t),
                                             ratio=ratio)))
    return family


@dataclass(frozen=True)
class BallSweep:
    sup: float
    per_ring: dict
    stderr_max: float


def _sweep(mu, family, normalize, n):
    per_ring: dict[int, float] = {}
    worst_err = 0.0
    for index, (k, ball) in enumerate(family):
        mass, err = mu.measure_ball(ball, n=n, index=index)
        ratio = mass / normalize(ball)
        worst_err = max(worst_err, err / normalize(ball))
        per_ring[k] = max(per_ring.get(k, 0.0), ratio)
    return BallSweep(max(per_ring.values()), per_ring, worst_err)


def bergman_carleson_constant(mu, family=None, n=4096):
    """sup of mu(B)/|B| over the ball family (Lebesgue-density pushforward)."""
    if mu.density != LEBESGUE:
        raise ValueError("bergman tester expects the Lebesgue pushforward")
    family = family if family is not None else make_ball_family()
    return _sweep(mu, family, lambda b: b.area, n)


def luecking_constant(mu, p=None, family=None, n=4096):
    """sup of mu(B)/r_B^{1+p} over the ball family (weighted pushforward)."""
    if mu.density != WEIGHTED:
        raise ValueError("luecking tester expects the weighted pushforward")
    p = mu.p if p is None else float(p)
    if p < 2:
        raise ValueError("luecking tester needs p >= 2")
    family = family if family is not None else make_ball_family()
    return _sweep(mu, family, lambda b: b.radius ** (1.0 + p), n)


def kernel_ratio(phi, w):
    """(1 - |w|^2) times the boundary mean of |1 - conj(w) phi(zeta)|^{-2},
    graded near the pullback of the direction of w.  Equals 1 exactly for the
    identity symbol."""
    w = complex(w)
    if abs(w) >= 1:
        raise ValueError("kernel_ratio needs |w| < 1")
    wb = np.conj(w)

    def fn(t):
        zeta = phi.boundary_point(t)
        return np.abs(1.0 - wb * zeta) ** -2.0

    angles = ()
    if w != 0:
        angles = (float(phi.boundary.inverse(np.asarray(np.angle(w)))),)
    val, _ = circle_mean(fn, angles, scale=1e-12, order=16)
    return float((1.0 - abs(w) ** 2) * val)


@dataclass(frozen=True)
class ProxyResult:
    sup: float
    ratios: tuple
    ws: tuple

    def bounded(self, growth_tol=1.05):
        """Stabilized iff each successive growth factor over the last 4 steps
        of the schedule stays below growth_tol."""
        tail = np.asarray(self.ratios[-5:])
        return bool(np.all(tail[1:] / tail[:-1] < growth_tol))


def operator_bound_proxy(phi, p, k_max=16, radial_depth=24):
    """sup over w_k = 1 - 2^{-k} of the Hardy-norm ratio
    ||kernel_w o phi||^p / ||kernel_w||^p for the extremal kernel family.

    All kernels are singular at angle 0, so their composites evaluate phi on
    the same circle-node batches: this call memoises phi's interior on each
    batch's exact shape and bytes."""
    p = float(p)
    seen = {}

    def interior(z):
        key = (z.shape, z.tobytes())
        if key not in seen:
            seen[key] = phi.interior(z)
        return seen[key]

    memo = DiscQCMap(phi.boundary, interior, phi.label, phi.conformal,
                     phi.complex_derivative)
    ws = tuple(1.0 - 2.0 ** -k for k in range(1, k_max + 1))
    ratios = []
    for w in ws:
        g = hardy_kernel(w, p)
        num = hardy_norm(compose(g, memo), p, k_max=radial_depth).value ** p
        den = hardy_norm(g, p, k_max=radial_depth).value ** p
        ratios.append(num / den)
    return ProxyResult(float(np.max(ratios)), tuple(ratios), ws)

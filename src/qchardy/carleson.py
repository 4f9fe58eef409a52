"""Pushforward measures under a quasiconformal symbol and the Carleson-type
testers built on them, plus the composition-operator boundedness proxy.

Boundary pushforwards are computed exactly through the inverse boundary angle
map.  A disc pushforward's ball mass is a deterministic product rule on the
ball, through the change of variables w = phi(z), with the nodes' preimages
from one batched Newton run; its error is the rule's distance from the same
rule on half the angles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import _dyadic_sup_inverse
from .extension import DiscQCMap, invert, norm_and_jacobian
from .functionals import hardy_norm
from .functions import compose, hardy_kernel
from .geometry import HyperbolicBall
from .quadrature import TWO_PI, circle_mean, gauss_legendre, wrap_angle


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


def _polar_rule(radii, angles):
    """Nodes and weights, shape (radii, angles), of a product rule on the unit
    disc: Gauss-Legendre in radius with weight r, midpoint in angle."""
    x, w = gauss_legendre(radii)
    s = 0.5 * (x + 1.0)
    t = TWO_PI * (np.arange(angles) + 0.5) / angles
    nodes = s[:, None] * np.exp(1j * t)
    return nodes, np.outer(0.5 * w * s, np.full(angles, TWO_PI / angles))


_BALL_RULE = _polar_rule(8, 16)


class DiscPushforward:
    """Pushforward under phi of either Lebesgue measure on the disc or the
    weighted measure |Dphi(z)|^p (1-|z|)^{p-1} dm(z).

    measure_ball integrates over the ball itself by the change of variables
    w = phi(z): mu(B) = int_B rho(z) / J_phi(z) dm(w), z = phi^{-1}(w), which
    holds because a quasiconformal phi is absolutely continuous with J > 0
    almost everywhere (Ahlfors, Lectures on Quasiconformal Mappings, ch. II).
    """

    def __init__(self, phi, density=LEBESGUE, p=2.0):
        self.phi = phi
        self.density = density
        self.p = float(p)

    def measure_ball(self, ball, zc=None):
        """(mass, error) of the ball under the pushforward measure; zc is the
        preimage of the ball's center, if known.

        The mass is the 8 x 16 product rule (_BALL_RULE) on the ball; the
        error is its distance from the 8 x 8 rule on every other angle."""
        nodes, weights = _BALL_RULE
        dw = ball.radius * nodes
        zc = invert(self.phi, ball.center) if zc is None else zc
        _, dz, dzb = self.phi.jet(zc)
        # seed each node from the linearised inverse at the center, pushed
        # back inside the disc
        seed = zc + (np.conj(dz) * dw - dzb * np.conj(dw)) / norm_and_jacobian(dz, dzb)[1]
        seed = np.where(np.abs(seed) < 1.0, seed, seed * (1 - 1e-9) / np.abs(seed))
        z = invert(self.phi, ball.center + dw, z0=seed)
        op, jac = norm_and_jacobian(*self.phi.jet(z)[1:])
        rho = (1.0 if self.density == LEBESGUE
               else op ** self.p * (1.0 - np.abs(z)) ** (self.p - 1.0))
        vals = weights * rho / jac
        mass = ball.radius ** 2 * float(np.sum(vals))
        coarse = ball.radius ** 2 * 2.0 * float(np.sum(vals[:, ::2]))
        return mass, abs(mass - coarse)


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
    error_max: float


def _sweep(mu, family, normalize):
    per_ring: dict[int, float] = {}
    worst_err = 0.0
    centers = invert(mu.phi, np.array([ball.center for _, ball in family]))
    for (k, ball), zc in zip(family, centers):
        mass, err = mu.measure_ball(ball, zc)
        ratio = mass / normalize(ball)
        worst_err = max(worst_err, err / normalize(ball))
        per_ring[k] = max(per_ring.get(k, 0.0), ratio)
    return BallSweep(max(per_ring.values()), per_ring, worst_err)


def bergman_carleson_constant(mu, family=None):
    """sup of mu(B)/|B| over the ball family (Lebesgue-density pushforward)."""
    if mu.density != LEBESGUE:
        raise ValueError("bergman tester expects the Lebesgue pushforward")
    family = family if family is not None else make_ball_family()
    return _sweep(mu, family, lambda b: b.area)


def luecking_constant(mu, p=None, family=None):
    """sup of mu(B)/r_B^{1+p} over the ball family (weighted pushforward)."""
    if mu.density != WEIGHTED:
        raise ValueError("luecking tester expects the weighted pushforward")
    p = mu.p if p is None else float(p)
    if p < 2:
        raise ValueError("luecking tester needs p >= 2")
    family = family if family is not None else make_ball_family()
    return _sweep(mu, family, lambda b: b.radius ** (1.0 + p))


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

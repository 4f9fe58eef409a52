"""Disc pushforward measures under a quasiconformal symbol and the Carleson-type
ball testers built on them, the kernel Carleson test of the boundary map that
decides whether the composition operator is bounded, and the radial
Hardy-norm proxy it replaced.

A disc pushforward's ball mass is a deterministic product rule on the ball,
through the change of variables w = phi(z), with the nodes' preimages, their
1 - |z|^2 and the differentials there from one batched inversion
(extension.invert: closed form for a conformal symbol, Newton iteration
otherwise); its error is the rule's distance from the same rule on half the
angles.  A ball sweep is one inversion, of the rule nodes of its whole
family; the lanes are independent and the jets pointwise, so every mass is
bitwise that of a one-ball measure_ball call.  A symmetric symbol's ring
sweeps and kernel ratios evaluate the upper half-disc only.  Per-ring maxima
of a ball sweep and the kernel ratios carry errors, so the tail classifier
(tail.py) can judge them; ring_sweep and kernel_carleson read them here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache
from itertools import chain, count

import numpy as np

from .extension import invert, norm_and_jacobian
from .functionals import hardy_norm
from .functions import compose, hardy_kernel
from .geometry import HyperbolicBall
from .quadrature import BALL_RULE, TWO_PI, circle_means, wrap_angle
from .tail import CONVERGED, read_tail


LEBESGUE = "lebesgue"
WEIGHTED = "weighted"


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

    def measure_ball(self, ball):
        """(mass, error) of the ball under the pushforward measure: the
        one-ball case of _masses."""
        mass, error = self._masses([ball])
        return mass[0], error[0]

    def _masses(self, balls):
        """(mass, error) arrays of the balls, one inversion of all nodes.

        The mass is the shared 8 x 16 product rule BALL_RULE on the ball;
        the error is its distance from the 8 x 8 rule on every other angle.
        Targets are built as one (balls, 8, 16) array, and each ball's sums
        are taken over its own block.  Inversion lanes are independent and
        the jets pointwise, so a ball's mass does not depend on the balls it
        is run with.  Both densities divide by the Jacobian of one jet; the
        weighted one multiplies by rho = (|Dphi| (1 - |z|))^(p - 1) |Dphi|,
        1 - |z| = (1 - |z|^2) / (1 + |z|) from invert: |Dphi| (1 - |z|) is
        on the ball's scale, where |Dphi|^p and (1 - |z|)^(p - 1) are not."""
        nodes, weights = BALL_RULE
        center = np.array([ball.center for ball in balls])[:, None, None]
        dw = np.array([ball.radius for ball in balls])[:, None, None] * nodes
        z, gap, (_, dz, dzb) = invert(self.phi, center + dw)
        op, jac = norm_and_jacobian(dz, dzb)
        with np.errstate(over="ignore", invalid="ignore"):  # inf * 0, inf - inf
            rho = (1.0 if self.density == LEBESGUE else
                   (op * gap / (1.0 + np.abs(z))) ** (self.p - 1.0) * op)
            vals = weights * rho / jac
            # scalar powers: an array ** can differ from them in the last bit
            r2 = np.array([ball.radius ** 2 for ball in balls])
            mass = r2 * vals.sum(axis=(1, 2))
            coarse = r2 * 2.0 * vals[:, :, ::2].sum(axis=(1, 2))
            return mass, np.abs(mass - coarse)


def make_ball_family(k_range, angles):
    """The documented finite proxy for 'all hyperbolic balls': centers on the
    rings 1 - 2^{-k}, the given number of angles per ring (including angle 0),
    radius ratio 1/2.  The angles are wrapped and exponentiated once, as
    arrays, for every ring; each center is a Python complex, so a ball's
    radius and normalisation are Python arithmetic."""
    ks = list(k_range)
    t = wrap_angle(-np.pi + TWO_PI * np.arange(angles) / angles)
    rings = (1.0 - np.ldexp(1.0, -np.array(ks)))[:, None] * np.exp(1j * t)
    return [(k, HyperbolicBall(center=c, ratio=0.5))
            for k, ring in zip(ks, rings.tolist()) for c in ring]


@dataclass(frozen=True)
class BallSweep:
    """sup and per-ring maxima of the ball ratio, the error of each ring's
    largest ball, and the largest error of any ball."""
    sup: float
    per_ring: dict
    error_max: float
    ring_error: dict


def _sweep(mu, family, normalize):
    per_ring: dict[int, float] = {}
    ring_error: dict[int, float] = {}
    worst_err = 0.0
    masses, errors = mu._masses([ball for _, ball in family])
    with np.errstate(over="ignore"):  # a ratio past double range reads inf
        for (k, ball), mass, err in zip(family, masses, errors):
            norm = normalize(ball)
            if norm == 0.0 or mass != mass:  # only a NaN differs from itself
                raise RuntimeError(f"ring {k}: " + (
                    "r_B^(1 + p) underflows to 0" if norm == 0.0
                    else "a mass is NaN"))
            worst_err = max(worst_err, err / norm)
            if mass / norm > per_ring.get(k, -np.inf):
                per_ring[k], ring_error[k] = mass / norm, err / norm
    return BallSweep(max(per_ring.values()), per_ring, worst_err, ring_error)


def bergman_carleson_constant(mu, family):
    """sup of mu(B)/|B| over the ball family (Lebesgue-density pushforward)."""
    if mu.density != LEBESGUE:
        raise ValueError("bergman tester expects the Lebesgue pushforward")
    return _sweep(mu, family, lambda b: b.area)


def luecking_constant(mu, family):
    """sup of mu(B)/r_B^{1+p} over the ball family, for the weighted
    pushforward mu with its own exponent p = mu.p.  RuntimeError: r_B^{1+p}
    or the density of a mass under- or overflows (p about 100 and above)."""
    if mu.density != WEIGHTED:
        raise ValueError("luecking tester expects the weighted pushforward")
    if mu.p < 2:
        raise ValueError("luecking tester needs p >= 2")
    return _sweep(mu, family, lambda b: b.radius ** (1.0 + mu.p))


def ring_sweep(tester, mu):
    """Reading of the sup and largest error of tester's sweep of rings 1-10
    of mu, 8 balls a ring, with tail.read_tail's verdict on the ring maxima
    (maximum, its error, sweep), one sweep a ring past 10.  A RuntimeError
    (Newton failure, a ratio the sweep cannot form) on rings 1-10 reads NaN;
    a symmetric symbol's sweeps skip the 3 balls a ring that mirror 3 others."""
    def family(ks):
        return [(k, ball) for k, ball in make_ball_family(ks, angles=8)
                if ball.center.imag >= 0 or not mu.phi.symmetric]

    def terms():
        sweep = tester(mu, family(range(1, 11)))
        for k in count(1):
            if k > 10:
                sweep = tester(mu, family([k]))
            yield sweep.per_ring[k], sweep.ring_error[k], sweep

    reading = read_tail(terms(), 10)
    if not reading.samples:
        return reading
    sweep = reading.samples[0][2]
    return replace(reading, value=sweep.sup, error=sweep.error_max)


def _kernel_terms(phi, ws):
    """(ratio, error, w) of kernel_ratio at each w in ws, yielded from one
    circle_means stage, even for a symmetric phi and real ws; the error is
    the mean's estimate times 1 - |w|^2.  Each direction is pulled back once."""
    if any(abs(w) >= 1 for w in ws):
        raise ValueError("kernel_ratio needs |w| < 1")
    wb = np.conj(np.asarray(ws, dtype=complex))

    def fn(t, circle):  # a batch of circles on one rule maps their nodes once
        m = np.count_nonzero(circle == circle[0])
        if t.size % m == 0 and np.all(t.reshape(-1, m) == t[:m]):
            t, circle = t[:m], circle[::m, None]
        return (np.abs(1.0 - wb[circle] * phi.boundary.map_point(t)) ** -2.0).ravel()

    pull = cache(lambda a: float(phi.boundary.inverse(np.asarray(a))))
    marks = [((pull(float(np.angle(w))), 1e-12),) if w != 0 else () for w in ws]
    even = phi.symmetric and not wb.imag.any()
    for w, (val, err) in zip(ws, circle_means(fn, marks, even=even)):
        scale = 1.0 - abs(w) ** 2
        yield scale * val, scale * err, w


def kernel_ratio(phi, w):
    """(1 - |w|^2) times the boundary mean of |1 - conj(w) phi(zeta)|^{-2},
    graded near the pullback of the direction of w.  Equals 1 exactly for the
    identity symbol."""
    return float(next(_kernel_terms(phi, [w]))[0])


@dataclass(frozen=True)
class ProxyResult:
    """Ratios along w_k = 1 - 2^-k, their errors, and their sup."""
    sup: float
    ratios: tuple
    errors: tuple
    ws: tuple

    def bounded(self):
        """Whether the ratios' tail along w_k = 1 - 2^-k is converged."""
        return read_tail(zip(self.ratios, self.errors),
                         len(self.ratios)).classification == CONVERGED


def kernel_carleson(phi, k_max):
    """The kernel Carleson test of the boundary map: kernel_ratio at
    w_k = 1 - 2^{-k}.  C_phi is bounded on H^p, for every p, exactly when
    these ratios stay bounded, i.e. when the pushforward of arclength under
    the boundary map is a Carleson measure (Cowen & MacCluer 1995; Duren,
    Theory of H^p Spaces, ch. 9).  Only the boundary map is evaluated.

    Reading of the sup of k = 1..k_max, one circle_means stage, with the
    error of its largest ratio and the verdict tail.read_tail reads; its
    samples are every term read, each (ratio, error, w)."""
    first = _kernel_terms(phi, [1.0 - 2.0 ** -k for k in range(1, k_max + 1)])
    more = (next(_kernel_terms(phi, [1.0 - 2.0 ** -k])) for k in count(k_max + 1))
    reading = read_tail(chain(first, more), k_max)
    top = max(reading.samples[:k_max], key=lambda term: term[0])
    return replace(reading, value=top[0], error=top[1])


def operator_bound_proxy(phi, p, k_max=16):
    """sup over w_k = 1 - 2^{-k} of the Hardy-norm ratio
    ||kernel_w o phi||^p / ||kernel_w||^p for the extremal kernel family.
    Its boundary limit is the kernel Carleson test (kernel_carleson), which
    decides thm1 without evaluating phi inside the disc."""
    p = float(p)
    ws = tuple(1.0 - 2.0 ** -k for k in range(1, k_max + 1))
    ratios, errors = [], []
    for w in ws:
        g = hardy_kernel(w, p)
        num = hardy_norm(compose(g, phi), p)
        den = hardy_norm(g, p)
        ratios.append(num.value ** p / den.value ** p)
        # the norms' errors, carried to the p-th powers and their quotient
        errors.append(ratios[-1] * p * (num.error / num.value + den.error / den.value))
    return ProxyResult(float(np.max(ratios)), tuple(ratios), tuple(errors), ws)

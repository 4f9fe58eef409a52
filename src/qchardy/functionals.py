"""Integral functionals on the disc: circle means, Hardy norms with a
convergence classification, boundary Lp norms, the non-tangential maximal
function, weighted area integrals, and the average derivative.

Divergence is a first-class answer here, not an exception: several experiments
hinge on one divergent and one convergent integral, so every norm that
involves a limit r -> 1 is a tail.Reading: its best value with
{converged, diverging, undetermined}, read by tail.read_tail from the lazy
dyadic sequence of terms computed here.  A real f (f.real) has |f| and |Df|
even in arg z, so its means, area shells and cone maxima fold to [0, pi].
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain, count

import numpy as np

from .functions import AnalyticFunction, QuasiregularMap
from .geometry import HyperbolicBall, ball_sample, cone_lattice
from .quadrature import (BALL_RULE, TWO_PI, circle_mean, circle_means,
                         gauss_legendre, node_batches, wrap_angle)
from .tail import CONVERGED, DIVERGING, read_tail

RADIAL_DEPTH = 24  # r_k = 1 - 2^{-k}; 2^{-24} ~ 6e-8 keeps doubles meaningful
BOUNDARY_SCALES = range(7, 12)  # boundary means graded at 10^-k


def radial_schedule(k_max=RADIAL_DEPTH):
    return 1.0 - 2.0 ** -np.arange(1, k_max + 1)


def _circle_marks(f, radii):
    """Grading marks for circle means of f on each circle |z| = r, r in
    radii: f's singular angles, pulled back once, at 1e-3 (1 - r) and, for
    a composite, its symbol's kink angles at 0.1 (1 - r).

    On |z| = r an analytic g is at least 1 - r from its boundary singularity,
    and a quasiconformal phi maps the Whitney disc of z onto a region
    comparable to that of phi(z), which lies at least 1 - |phi(z)| from g's
    singularity.  So f = g o phi has no feature finer than about (1 - r) / C
    on the circle, and panels finer than 1e-3 (1 - r) would integrate a
    function that is constant to rounding."""
    angles = f.singular_angles
    kinks = f.phi.kink_angles if isinstance(f, QuasiregularMap) else lambda r: ()
    return [[(t, 1e-3 * (1.0 - r)) for t in angles]
            + [(t, 0.1 * (1.0 - r)) for t in kinks(r)] for r in radii]


def integral_mean(f, r, p):
    """Mean of |f|^p over the circle of radius r: (1/2pi) int |f(r e^it)|^p dt.

    One circle mean, graded toward the singular angles carried by f (pulled
    back through the symbol for composites) and toward the symbol's kinks,
    at scales proportional to 1 - r (_circle_marks).  Returns (value, error).
    """
    r = float(r)
    if not 0.0 <= r < 1.0:
        raise ValueError("integral_mean needs 0 <= r < 1")
    p = float(p)
    if r == 0.0:
        return float(np.abs(f(np.array([0j])))[0] ** p), 0.0

    def fn(theta):
        return np.abs(f(r * np.exp(1j * theta))) ** p

    return circle_mean(fn, _circle_marks(f, [r])[0], even=f.real)


def hardy_norm(f, p):
    """Reading of the p-th root of the sup of the circle means (mean, error,
    r) over radial_schedule(), with the verdict tail.read_tail reads on
    them.  One call of f per circle_means batch; a term that raises reads
    by read_tail's rule, with the means of the batches before it."""
    p = float(p)
    schedule = radial_schedule()

    def fn(theta, circle):
        return np.abs(f(schedule[circle] * np.exp(1j * theta))) ** p

    with np.errstate(all="ignore"):  # a non-finite |f|^p reads as a verdict
        means = circle_means(fn, _circle_marks(f, schedule.tolist()),
                             even=f.real)
        reading = read_tail(((m, e, r) for r, (m, e) in zip(schedule, means)),
                            RADIAL_DEPTH)
    if len(reading.samples) < RADIAL_DEPTH:  # a term raised
        return reading
    sup, err = map(float, np.max([s[:2] for s in reading.samples], axis=0))
    return replace(reading, value=sup ** (1.0 / p),
                   error=err / p * sup ** (1.0 / p - 1.0) if sup > 0 else err)


def boundary_lp(f, p):
    """Reading of the boundary Lp norm ((1/2pi) int |f(e^it)|^p dt)^(1/p) of
    a composite, with error 0, at the finest grading scale 10^-k.

    The norm is the mean graded at the pulled-back singular angles down to
    scale 1e-11, or inf or nan if the verdict is diverging or undetermined.
    The verdict is read_tail's on the means graded at the scales 10^-k, k in
    BOUNDARY_SCALES, each sample (mean, error).  A mean of n nonnegative
    terms is known to its rounding, n eps times the mean; the quadrature
    estimate is far larger at these scales and would hide a log divergence;
    n counts the whole circle's nodes when a real f's means sum half of them.
    A sample where f is not finite is NaN (QuasiregularMap), so its mean
    reads undetermined."""
    p = float(p)
    sizes = []

    def fn(t, circle):
        sizes.extend((1 + f.real) * np.bincount(circle - circle[0]))
        return np.abs(f.boundary_trace(t)) ** p

    angles = f.singular_angles
    marks = [[(t, 10.0 ** -k) for t in angles] for k in BOUNDARY_SCALES]
    with np.errstate(over="ignore", invalid="ignore"):  # inf reads diverging
        means = enumerate(circle_means(fn, marks, even=f.real))
        reading = read_tail(((m, np.finfo(float).eps * sizes[k] * m)
                             for k, (m, _) in means), len(BOUNDARY_SCALES))
    verdict = reading.classification
    return replace(reading, error=0.0, at=BOUNDARY_SCALES[-1], value=(
        float(reading.value) ** (1.0 / p) if verdict == CONVERGED
        else np.inf if verdict == DIVERGING else np.nan))


def boundary_lp_norm(f, p):
    """The norm of boundary_lp alone."""
    return boundary_lp(f, p).value


def nt_maximal(f, xi, aperture=2.0):
    """Lower estimate of the non-tangential maximal function at each vertex
    xi on the circle, in the shape of xi (0-d for a point): max of |f| over
    the cone lattice of 17 rays at each of 12 depths (geometry.cone_lattice),
    with one call of f per node_batches batch of depths, for all vertices."""
    xi = np.asarray(xi, dtype=complex)
    if np.any(np.abs(np.abs(xi) - 1.0) > 1e-12):
        raise ValueError("cone vertex must lie on the unit circle")
    t0 = np.angle(xi).reshape(-1, 1)
    best = np.zeros(t0.shape[0])
    depths = cone_lattice(t0, aperture, np.arange(-8, 9) / 8.0)
    for first, stop in node_batches([z.size for z in depths]):
        z = np.concatenate(depths[first:stop], axis=1)
        best = np.maximum(best, np.max(np.abs(f(z)), axis=1))
    return best.reshape(xi.shape)


def _xi_grid(grid_n, singular_angles):
    """Angle grid for boundary sampling: uniform offset grid, mirror-exact,
    plus geometric clusters toward each singular angle; midpoint weights."""
    base = np.pi * np.arange(1 - grid_n, grid_n, 2) / grid_n
    extra = []
    for a in singular_angles:
        offs = np.pi * 2.0 ** -np.arange(2, 21)
        extra.append(wrap_angle(a + offs))
        extra.append(wrap_angle(a - offs))
    angles = np.unique(np.concatenate([base] + extra))
    gaps = np.diff(np.concatenate([angles, [angles[0] + TWO_PI]]))
    weights = 0.5 * (gaps + np.roll(gaps, 1))
    return angles, weights


def maximal_lps(f, p, aperture, grids):
    """maximal_lp on each grid size in grids, bitwise, from one nt_maximal
    call on the union of their vertices, folded to |t| for a real f, whose
    cone at -t is the mirror image of its cone at t."""
    xi = [_xi_grid(n, f.singular_angles) for n in grids]
    fold = np.abs if f.real else np.asarray
    union = np.unique(np.concatenate([fold(angles) for angles, _ in xi]))
    with np.errstate(all="ignore"):  # a non-finite |f|^p reads as a verdict
        vals = nt_maximal(f, np.exp(1j * union), aperture) ** float(p)
    return [float((np.sum(weights * vals[np.searchsorted(union, fold(angles))])
                   / TWO_PI) ** (1.0 / float(p))) for angles, weights in xi]


def maximal_lp(f, p, aperture=2.0, grid_n=64):
    """Discrete Lp norm over the boundary of the non-tangential maximal
    function, with extra grid points graded toward singular pullbacks."""
    return maximal_lps(f, p, aperture, (grid_n,))[0]


def _deriv_magnitude(f, z):
    if isinstance(f, QuasiregularMap):  # |g'(phi)| |Dphi|, without Jf
        w, dz, dzb = f.phi.jet(z)
        return np.abs(f.g.deriv(w)) * (np.abs(dz) + np.abs(dzb))
    return np.abs(f.deriv(z))


def _area_truncations(f, p, first):
    """Truncations of int_D |Df|^p (1-|z|)^(p-1) dm to radius 1 - 2^{-k},
    k = 1, 2, ...: (truncation, error of its last shell, 1 - 2^{-k}, error
    of the truncation), one dyadic shell per step.  The first `first`
    shells are one circle_means stage of their 8 radii each, every later
    shell a stage of its own.  A shell that sums below the smallest normal
    double has underflowed, since no catalog composite is constant: its
    truncation and that truncation's error, and every later one, are NaN."""
    q = p - 1.0
    x, wq = gauss_legendre(8)
    total = toterr = 0.0
    for ks in chain([np.arange(1, first + 1)],
                    (np.array([k]) for k in count(first + 1))):
        a, b = 1.0 - np.ldexp(1.0, 1 - ks), 1.0 - np.ldexp(1.0, -ks)
        half = 0.5 * (b - a)
        radii = (0.5 * (a + b))[:, None] + half[:, None] * x

        def fn(theta, c):
            return _deriv_magnitude(f, radii.flat[c] * np.exp(1j * theta)) ** p

        means = circle_means(fn, _circle_marks(f, radii.flat), order=12,
                             even=f.real)
        for end, width, shell_radii in zip(b.tolist(), half.tolist(), radii):
            shell, before = 0.0, toterr
            # inf * 0 at large p; the stage's integrand runs here too
            with np.errstate(over="ignore", invalid="ignore"):
                for r, wi, (m, e) in zip(shell_radii, wq, means):
                    shell += width * wi * m * (1.0 - r) ** q * r * TWO_PI
                    toterr += width * wi * e * (1.0 - r) ** q * r * TWO_PI
            if shell >= np.finfo(float).tiny:
                total += shell
            else:
                total = toterr = np.nan
            yield total, toterr - before, end, toterr


def area_integral(f, p, k_max=12):
    """Weighted area integral int_D |Df|^p (1-|z|)^(p-1) dm.

    Tensor quadrature: dyadic radial shells graded toward r = 1, each of 8
    Gauss-Legendre radii, the first k_max shells one circle_means stage and
    each later one a stage of 8, with order-12 circle means graded at
    singular pullbacks and at the symbol's kinks, at scales proportional to
    1 - r (_circle_marks).  The value and error are those of the truncation
    to radius 1 - 2^{-k_max}.  The verdict is the tail of the truncations
    that tail.read_tail reads; an increment is one shell, so each truncation
    carries the error of its last shell.  samples hold every truncation
    read, as _area_truncations yields it.
    """
    reading = read_tail(_area_truncations(f, float(p), k_max), k_max)
    return replace(reading, error=reading.samples[k_max - 1][3])


def ball_average_derivative(f, z):
    """(value, error) of the average derivative a_f, the exp of the mean of
    log Jf^{1/2} = log|f'| over the hyperbolic ball at z of radius
    (1 - |z|)/2, for analytic f, each in the shape of z (0-d for a point);
    f.deriv is called once, on the rule nodes of every ball.

    Where f' has no zero on the ball, log|f'| is harmonic, so a_f(z) = |f'(z)|
    (Ahlfors, Complex Analysis, ch. 4).  The mean is the 8 x 16 polar product
    rule of the ball masses, quadrature.BALL_RULE (weights summing to pi).
    Each of its 8 rings has the center value as its 16-angle mean too, but
    for the modes of order 16m that the angles alias, which grow like
    r^(16m); the innermost ring, at 0.02 of the radius, is exact to rounding.
    So the error is the largest distance of a ring mean from the rule's mean,
    carried through exp, plus 128 eps times the value for rounding.  A zero
    of f' in the ball makes the ring means grow with r, and the error with
    them; a non-finite log (f' zero or not finite at a node) raises
    RuntimeError."""
    if not isinstance(f, AnalyticFunction):
        raise TypeError("ball_average_derivative needs an analytic function")
    z = np.asarray(z, dtype=complex)
    balls = [HyperbolicBall(center=c, ratio=0.5) for c in z.ravel()]
    nodes, weights = BALL_RULE
    pts = np.array([ball.center + ball.radius * nodes for ball in balls])
    with np.errstate(divide="ignore"):
        logs = np.log(np.abs(f.deriv(pts)))
    if not np.all(np.isfinite(logs)):
        raise RuntimeError(
            "ball_average_derivative: log|f'| is not finite at a rule node")
    mean = np.sum(weights * logs, axis=(1, 2)) / np.pi
    spread = np.max(np.abs(logs.mean(axis=2) - mean[:, None]), axis=1)
    value = np.exp(mean)
    error = value * (np.expm1(spread) + 128.0 * np.finfo(float).eps)
    return value.reshape(z.shape), error.reshape(z.shape)


@dataclass(frozen=True)
class AverageDerivativeEstimate:
    value: float
    stderr: float
    excluded_fraction: float


def _jacobian(f, z):
    if not isinstance(f, AnalyticFunction):
        raise TypeError("average_derivative needs an analytic function")
    return np.abs(f.deriv(z)) ** 2


def average_derivative(f, z, mc_samples=10000, seed=0):
    """Monte Carlo estimate of exp of the mean of log Jf^{1/2} over the
    hyperbolic ball at z of radius (1 - |z|)/2.  Deterministic given the seed;
    samples with non-positive Jacobian are excluded and counted, and more than
    1% of them is treated as a diagnostic failure.  The experiments use
    ball_average_derivative, the deterministic rule for the same quantity."""
    z = complex(z)
    if abs(z) >= 1:
        raise ValueError("average_derivative needs |z| < 1")
    ball = HyperbolicBall(center=z, ratio=0.5)
    rng = np.random.default_rng(seed)
    pts = ball_sample(ball, mc_samples, rng)
    jac = _jacobian(f, pts)
    good = jac > 0
    frac_bad = 1.0 - np.count_nonzero(good) / len(jac)
    if frac_bad > 0.01:
        raise RuntimeError(
            f"average_derivative: {frac_bad:.1%} of samples had Jf <= 0")
    logs = 0.5 * np.log(jac[good])
    mean = float(np.mean(logs))
    value = float(np.exp(mean))
    stderr = value * float(np.std(logs, ddof=1)) / np.sqrt(np.count_nonzero(good))
    return AverageDerivativeEstimate(value, stderr, frac_bad)


"""Integral functionals on the disc: circle means, Hardy norms with a
convergence classification, boundary Lp norms, the non-tangential maximal
function, weighted area integrals, and the average derivative.

Divergence is a first-class answer here, not an exception: several experiments
hinge on one divergent and one convergent integral, so every norm that
involves a limit r -> 1 reports {converged, diverging, undetermined}, from
the tail classifier (tail.py) on its dyadic sequence, along with its best
value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

import numpy as np

from .functions import AnalyticFunction, QuasiregularMap
from .geometry import Cone, HyperbolicBall, ball_sample, cone_angular_halfwidth
from .quadrature import TWO_PI, circle_mean, gauss_legendre, wrap_angle
from .tail import (CONVERGED, DIVERGING, TAIL_CAP, UNDETERMINED,
                   classify_tail)

RADIAL_DEPTH = 24  # r_k = 1 - 2^{-k}; 2^{-24} ~ 6e-8 keeps doubles meaningful
BOUNDARY_SCALES = range(7, 12)  # boundary means graded at 10^-k


@dataclass(frozen=True)
class NormEstimate:
    value: float
    error: float
    classification: str
    samples: tuple = field(default_factory=tuple)
    reason: str = ""

    @property
    def why(self):
        """(reason, k) of the verdict, read at the k-th and last sample."""
        return self.reason, len(self.samples)


def radial_schedule(k_max=RADIAL_DEPTH):
    return 1.0 - 2.0 ** -np.arange(1, k_max + 1)


def singular_angles_of(f):
    if isinstance(f, QuasiregularMap):
        return f.singular_pullback_angles()
    return f.singular_angles


def _circle_marks(f, r, scale):
    """Grading marks for circle means of f on |z| = r: f's singular angles at
    the given scale and, for a composite, its symbol's kink angles at
    0.1 (1 - r)."""
    marks = [(t, scale) for t in singular_angles_of(f)]
    if isinstance(f, QuasiregularMap):
        marks += [(t, 0.1 * (1.0 - r)) for t in f.phi.kink_angles(r)]
    return marks


def integral_mean(f, r, p):
    """Mean of |f|^p over the circle of radius r: (1/2pi) int |f(r e^it)|^p dt.

    One circle mean, graded toward the singular angles carried by f (pulled
    back through the symbol for composites) and toward the symbol's kinks.
    Returns (value, error).
    """
    r = float(r)
    if not 0.0 <= r < 1.0:
        raise ValueError("integral_mean needs 0 <= r < 1")
    p = float(p)
    if r == 0.0:
        return float(np.abs(f(np.array([0j])))[0] ** p), 0.0

    def fn(theta):
        return np.abs(f(r * np.exp(1j * theta))) ** p

    return circle_mean(fn, _circle_marks(f, r, 1e-10))


def hardy_norm(f, p, k_max=RADIAL_DEPTH):
    """sup of the circle means over r_k = 1 - 2^{-k}, with the tail verdict of
    the means; value is the norm (p-th root of the sup of the means)."""
    p = float(p)
    means = []
    errs = []
    schedule = radial_schedule(k_max)
    try:
        for r in schedule:
            m, e = integral_mean(f, r, p)
            means.append(m)
            errs.append(e)
    except (FloatingPointError, RuntimeError) as exc:
        return NormEstimate(np.nan, np.nan, UNDETERMINED,
                            tuple(zip(schedule, means)),
                            f"{type(exc).__name__} at k = {len(means) + 1}: {exc}")
    sup = float(np.max(means))
    err = float(np.max(errs))
    value = sup ** (1.0 / p)
    err_value = err / p * sup ** (1.0 / p - 1.0) if sup > 0 else err
    verdict, reason = classify_tail(means, errs)
    return NormEstimate(value, err_value, verdict, tuple(zip(schedule, means)),
                        reason)


def boundary_lp_norm(f, p):
    """Boundary Lp norm ((1/2pi) int |f(e^it)|^p dt)^(1/p) of a composite:
    its mean graded at the pulled-back singular angles down to scale 1e-11.

    The means graded at the scales 10^-k, k in BOUNDARY_SCALES, form the
    sequence whose tail decides: inf if it diverges, nan if undetermined.
    A mean of n nonnegative terms is known to its rounding, n eps times the
    mean; the quadrature estimate is far larger at these scales and would
    hide a log divergence."""
    p = float(p)
    sizes = []

    def fn(t):
        sizes.append(t.size)
        vals = np.abs(f.boundary_trace(t)) ** p
        return np.where(np.isfinite(vals), vals, 0.0)

    angles = singular_angles_of(f)
    means = np.array([circle_mean(fn, [(t, 10.0 ** -k) for t in angles])[0]
                      for k in BOUNDARY_SCALES])
    verdict, _ = classify_tail(means, np.finfo(float).eps * np.array(sizes) * means)
    if verdict == CONVERGED:
        return float(means[-1]) ** (1.0 / p)
    return np.inf if verdict == DIVERGING else np.nan


def nt_maximal(f, xi, aperture=2.0, budget=96):
    """Lower estimate of the non-tangential maximal function at each vertex
    xi (a point or an array of points on the circle): max of |f| over a
    nested cone lattice, with one call of f per cone depth for all vertices.
    Nondecreasing in the budget."""
    xi = np.asarray(xi, dtype=complex)
    if np.any(np.abs(np.abs(xi) - 1.0) > 1e-12):
        raise ValueError("cone vertex must lie on the unit circle")
    # the admissible angular window depends on the aperture only
    cone = Cone(vertex=1.0 + 0j, aperture=aperture)
    n_depths = 12
    level = max(0, int(np.floor(np.log2(max(budget, n_depths) / n_depths))))
    t0 = np.angle(xi).reshape(-1, 1)
    best = np.zeros(t0.shape[0])
    ks = np.arange(-2 ** level, 2 ** level + 1)
    for j in range(1, n_depths + 1):
        d = 1.0 - 2.0 ** -j
        half = cone_angular_halfwidth(cone, d) * (1.0 - 1e-9)
        z = d * np.exp(1j * (t0 + half * ks / 2.0 ** level))
        best = np.maximum(best, np.max(np.abs(f(z)), axis=1))
    return float(best[0]) if xi.ndim == 0 else best.reshape(xi.shape)


def _xi_grid(grid_n, singular_angles, cluster_depth=20):
    """Angle grid for boundary sampling: uniform offset grid plus geometric
    clusters toward each singular angle, with circular midpoint weights."""
    base = -np.pi + TWO_PI * (np.arange(grid_n) + 0.5) / grid_n
    extra = []
    for a in singular_angles:
        offs = np.pi * 2.0 ** -np.arange(2, cluster_depth + 1)
        extra.append(wrap_angle(a + offs))
        extra.append(wrap_angle(a - offs))
    angles = np.unique(np.concatenate([base] + extra)) if extra else np.sort(base)
    gaps = np.diff(np.concatenate([angles, [angles[0] + TWO_PI]]))
    weights = 0.5 * (gaps + np.roll(gaps, 1))
    return angles, weights


def maximal_lp(f, p, aperture=2.0, grid_n=64, budget=96):
    """Discrete Lp norm over the boundary of the non-tangential maximal
    function, with extra grid points graded toward singular pullbacks."""
    p = float(p)
    angles, weights = _xi_grid(grid_n, singular_angles_of(f))
    vals = nt_maximal(f, np.exp(1j * angles), aperture, budget)
    return float((np.sum(weights * vals ** p) / TWO_PI) ** (1.0 / p))


def _deriv_magnitude(f, z):
    if isinstance(f, QuasiregularMap):
        return f.differential(z)[0]
    return np.abs(f.deriv(z))


def _area_truncations(f, p):
    """Truncations of int_D |Df|^p (1-|z|)^(p-1) dm to radius 1 - 2^{-k},
    k = 1, 2, ...: (1 - 2^{-k}, truncation, error of its last shell, error
    of the truncation), one dyadic shell per step."""
    q = p - 1.0
    x, wq = gauss_legendre(8)
    total = 0.0
    toterr = 0.0
    a = 0.0
    for k in count(1):
        b = 1.0 - 2.0 ** -k
        half = 0.5 * (b - a)
        mid = 0.5 * (a + b)
        shell = 0.0
        before = toterr
        for xi, wi in zip(x, wq):
            r = mid + half * xi

            def fn(theta, r=r):
                return _deriv_magnitude(f, r * np.exp(1j * theta)) ** p

            m, e = circle_mean(fn, _circle_marks(f, r, 1e-9), order=12)
            shell += half * wi * m * (1.0 - r) ** q * r * TWO_PI
            toterr += half * wi * e * (1.0 - r) ** q * r * TWO_PI
        total += shell
        yield b, total, toterr - before, toterr
        a = b


def area_integral(f, p, k_max=12):
    """Weighted area integral int_D |Df|^p (1-|z|)^(p-1) dm.

    Tensor quadrature: dyadic radial shells graded toward r = 1, each with 8
    Gauss-Legendre radii, and order-12 circle means graded at singular
    pullbacks and at the symbol's kinks.  The value and error are those of
    the truncation to radius 1 - 2^{-k_max}.  The verdict is the tail of the
    truncations; an increment is one shell, so each truncation carries the
    error of its last shell.  While the verdict is undetermined, one more
    shell at a time is read, up to TAIL_CAP shells; samples hold every
    truncation read.
    """
    shells = _area_truncations(f, float(p))
    read = [next(shells) for _ in range(k_max)]
    value, error = read[-1][1], read[-1][3]

    def verdict():
        return classify_tail([s[1] for s in read], [s[2] for s in read])

    classification, reason = verdict()
    while classification == UNDETERMINED and len(read) < TAIL_CAP:
        read.append(next(shells))
        classification, reason = verdict()
    return NormEstimate(value, error, classification,
                        tuple((s[0], s[1]) for s in read), reason)


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
    1% of them is treated as a diagnostic failure."""
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


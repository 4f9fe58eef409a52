"""Stages of an even integrand on the upper half-disc: the catalog's
declarations of symmetry, the folded circle rule's nodes, and every folded
stage against the full path, forced by clearing the declarations."""

import numpy as np
import pytest

from qchardy import functionals as fn
from qchardy import carleson as ca
from qchardy.boundary import BoundaryHomeo
from qchardy.extension import BAExtension, make_disc_map
from qchardy.functions import cauchy_kernel, compose, hardy_kernel
from qchardy.quadrature import (TWO_PI, WORK, _graded_panels, circle_means,
                                gauss_legendre)

MAPS = ["identity", "thm2_sqrt", "power:0.3", "power:2", "power:5",
        "moebius:0.5", "moebius:-0.9"]


def _close(got, want, rel, abs_):
    """Whether each got is want, NaN for NaN, or within rel or abs_ of it."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    with np.errstate(invalid="ignore"):  # inf - inf
        near = np.abs(got - want) <= np.maximum(rel * np.abs(want), abs_)
    return bool(np.all(near | (got == want) | np.isnan(got) & np.isnan(want)))


def _same_reading(folded, full):
    """The tolerance of the fold: the same verdict, each value within 1e-12
    relative or 1e-15 absolute, each error within 1e-6 or 1e-15."""
    assert folded.classification == full.classification
    assert _close(folded.value, full.value, 1e-12, 1e-15)
    assert _close(folded.error, full.error, 1e-6, 1e-15)


def _same_terms(folded, full):
    """The fold's tolerance on each term (value, error, ...) of two readings."""
    assert len(folded.samples) == len(full.samples)
    for a, b in zip(folded.samples, full.samples):
        assert _close(a[0], b[0], 1e-12, 1e-15)
        assert _close(a[1], b[1], 1e-6, 1e-15)


def _full(spec):
    """The catalog map of spec with its symmetry not declared."""
    phi = make_disc_map(spec)
    phi.symmetric = False
    return phi


@pytest.mark.parametrize("spec", MAPS)
def test_catalog_maps_commute_with_conjugation(spec):
    phi, rng = make_disc_map(spec), np.random.default_rng(1)
    assert phi.symmetric
    z = np.sqrt(rng.random(200)) * 0.999 * np.exp(1j * rng.uniform(-np.pi, np.pi, 200))
    assert np.allclose(phi(np.conj(z)), np.conj(phi(z)), rtol=1e-13, atol=1e-15)
    t = rng.uniform(-np.pi, np.pi, 200)
    assert np.allclose(phi.boundary(-t), -phi.boundary(t), rtol=1e-14, atol=0.0)


def test_real_declarations():
    assert cauchy_kernel().real and hardy_kernel(0.9, 2.0).real
    assert hardy_kernel(-0.5, 1.0).real and not hardy_kernel(0.5j, 1.0).real
    assert compose(cauchy_kernel(), make_disc_map("thm2_sqrt")).real
    assert not compose(cauchy_kernel(), _full("thm2_sqrt")).real
    assert not compose(hardy_kernel(0.5j, 1.0), make_disc_map("identity")).real


def _nodes(marks, order=16):
    """Every node of the folded marks' full layout, as circle_means places
    them."""
    x, _ = gauss_legendre(order)
    mark, away, lo, half, _ = _graded_panels(marks, even=True)
    nodes = mark[:, None] + away[:, None] * ((lo + half)[:, None] + half[:, None] * x)
    return (nodes - TWO_PI * np.round(nodes / TWO_PI)).ravel()


@pytest.mark.parametrize("marks, mirrored", [
    ([[(0.0, 1e-3)], []], True),  # a pole at 0, an unmarked circle
    # the kinks of thm2_sqrt at r = 0.9, two of them past +-pi/2
    ([[(t, 0.01) for t in make_disc_map("thm2_sqrt").kink_angles(0.9)]], True),
    ([[(2.5, 1e-4), (-2.5, 1e-2), (1.0, 1e-3)]], True),
    # a mark at pi: its arcs past pi are not rounded as their mirrors are
    ([[(np.pi, 1e-3), (0.3, 1e-2)], [(-np.pi, 1e-6)]], False)])
def test_folded_nodes_are_the_upper_half_of_the_full_layout(marks, mirrored):
    seen = []

    def record(theta, circle):
        seen.append(theta)
        return np.ones_like(theta)

    means = np.array(list(circle_means(record, marks, even=True)))
    assert np.allclose(means, [1.0, 0.0], rtol=1e-15, atol=1e-15)
    kept, full = np.concatenate(seen), _nodes(marks)
    assert np.array_equal(kept, full[full > 0])
    assert np.count_nonzero(full == 0) == 0
    if mirrored:
        assert np.array_equal(np.sort(-kept), np.sort(full[full < 0]))


def _panels(stage):
    """The circle panels that stage() evaluates."""
    before = WORK["circle_panels"]
    stage()
    return WORK["circle_panels"] - before


def test_what_is_not_declared_evaluates_every_panel():
    # an angle map that is not odd, alpha(0) = -pi/2, slope 1/2 then 3/2
    h = BoundaryHomeo(
        lambda t: np.where(t < 0, 0.5 * t, 1.5 * t) - 0.5 * np.pi,
        lambda s: np.where(s < -0.5 * np.pi, 2.0, 2.0 / 3.0) * (s + 0.5 * np.pi),
        label="skew", cusps=(0.0, np.pi))
    skew = compose(cauchy_kernel(), BAExtension(h))
    marks = fn._circle_marks(skew, fn.radial_schedule().tolist())
    assert _panels(lambda: fn.hardy_norm(skew, 0.5)) == _graded_panels(marks)[0].size
    complex_w = compose(hardy_kernel(0.5j, 1.0), make_disc_map("identity"))
    marks = fn._circle_marks(complex_w, fn.radial_schedule().tolist())
    assert (_panels(lambda: fn.hardy_norm(complex_w, 1.0))
            == _graded_panels(marks)[0].size)
    # a symmetric composite evaluates half of them
    f, g = (compose(cauchy_kernel(), phi) for phi in
            (make_disc_map("thm2_sqrt"), _full("thm2_sqrt")))
    assert 2 * _panels(lambda: fn.hardy_norm(f, 1.0)) == _panels(
        lambda: fn.hardy_norm(g, 1.0))


@pytest.mark.parametrize("spec", MAPS)
def test_folded_stages_match_the_full_path(spec):
    phi, full = make_disc_map(spec), _full(spec)
    for p in (0.5, 1.0, 3.0):
        f, g = compose(cauchy_kernel(), phi), compose(cauchy_kernel(), full)
        folded, whole = fn.hardy_norm(f, p), fn.hardy_norm(g, p)
        _same_reading(folded, whole)
        _same_terms(folded, whole)
        # each sample's error, n eps times the mean, counts every node
        folded, whole = fn.boundary_lp(f, p), fn.boundary_lp(g, p)
        _same_reading(folded, whole)
        _same_terms(folded, whole)
    f, g = (compose(hardy_kernel(0.9, 2.0), m) for m in (phi, full))
    _same_reading(fn.area_integral(f, 2.0), fn.area_integral(g, 2.0))
    assert _close(fn.maximal_lps(f, 2.0, 2.0, (32, 64)),
                  fn.maximal_lps(g, 2.0, 2.0, (32, 64)), 1e-12, 1e-15)
    # a pole at pi, whose vertex clusters are not each other's mirrors
    f, g = (compose(hardy_kernel(-0.9, 2.0), m) for m in (phi, full))
    assert _close(fn.maximal_lps(f, 2.0, 2.0, (32,)),
                  fn.maximal_lps(g, 2.0, 2.0, (32,)), 1e-12, 1e-15)
    folded, whole = ca.kernel_carleson(phi, 10), ca.kernel_carleson(full, 10)
    _same_reading(folded, whole)
    _same_terms(folded, whole)


@pytest.mark.parametrize("spec", MAPS)
def test_folded_ring_maxima_match_the_full_sweep(spec):
    folded, whole = (ca.ring_sweep(ca.bergman_carleson_constant,
                                   ca.DiscPushforward(m))
                     for m in (make_disc_map(spec), _full(spec)))
    _same_reading(folded, whole)
    # a ring's error is its largest ball's |mass - coarse mass|, a
    # difference of two sums the size of the mass, so it moves with the
    # rounding of the mass: within 1e-12 of the ring's maximum
    assert len(folded.samples) == len(whole.samples)
    for a, b in zip(folded.samples, whole.samples):
        assert _close(a[0], b[0], 1e-12, 1e-15)
        assert _close(a[1], b[1], 1e-6, 1e-12 * b[0])

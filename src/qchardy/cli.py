"""Experiment runner: one named, reproducible verification per theorem-scale
claim, with CSV/JSON output.

Usage: qchardy <experiment> --map <name[:params]> --p <real> --depth <k>
       --grid <n> --seed <s> --out <path> --format csv|json

Exit code 0 iff every asserted row passes, so the suite can run in CI.
Tail verdicts may read dyadic depths, ball rings or area shells past
--depth (up to tail.TAIL_CAP); JSON reports each verdict's reason in
metadata["verdicts"].
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import carleson as ca
from . import functionals as fn
from .boundary import lipschitz_modulus_inverse, lipschitz_tail, parse_map_spec
from .extension import cone_image_aperture, make_disc_map
from .functions import AnalyticFunction, cauchy_kernel, compose, hardy_kernel
from .tail import (CONVERGED, DIVERGING, TAIL_CAP, UNDETERMINED,
                   classify_tail)

PASS = "pass"
FAIL = "fail"

EXPERIMENTS = ("thm1", "thm2", "thm3", "thmA", "lemma1", "af_conformal")

# per-experiment defaults (map, p), read by ExperimentSpec and the parser
_DEFAULTS = {
    "thm1": ("identity", 2.0),
    "thm2": ("thm2_sqrt", 1.0),
    "thm3": ("thm2_sqrt", 2.0),
    "thmA": ("thm2_sqrt", 2.0),
    "lemma1": ("thm2_sqrt", 2.0),
    "af_conformal": ("moebius:0.5", 2.0),
}


@dataclass(frozen=True)
class Row:
    quantity: str
    value: float
    error: float
    classification: str


@dataclass
class ExperimentReport:
    name: str
    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, quantity, value, error, classification, why=None):
        """why: (reason, k) of a tail verdict read at term k, kept in
        metadata["verdicts"]."""
        self.rows.append(Row(quantity, float(value), float(error), classification))
        if why:
            self.metadata.setdefault("verdicts", {})[quantity] = {
                "reason": why[0], "at": why[1]}

    def check(self, quantity, ok, value, error=0.0, why=None):
        self.add(quantity, value, error, PASS if ok else FAIL, why)

    def passed(self):
        return all(r.classification != FAIL for r in self.rows)

    def to_csv(self):
        lines = ["quantity,value,error,classification"]
        for r in self.rows:
            lines.append(f"{r.quantity},{r.value:.12g},{r.error:.12g},{r.classification}")
        return "\n".join(lines) + "\n"

    def to_json(self):
        payload = {
            "experiment": self.name,
            "metadata": self.metadata,
            "rows": [
                {"quantity": r.quantity, "value": r.value, "error": r.error,
                 "classification": r.classification}
                for r in self.rows
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@dataclass
class ExperimentSpec:
    name: str
    map_spec: str | None = None  # None: the experiment's entry in _DEFAULTS
    p: float | None = None
    depth: int = 10
    grid: int = 16
    seed: int = 42
    aperture: float = 2.0

    def __post_init__(self):
        if self.name not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.name!r}")
        map_spec, p = _DEFAULTS[self.name]
        self.map_spec = map_spec if self.map_spec is None else self.map_spec
        self.p = p if self.p is None else self.p
        if self.p <= 0 or self.depth < 1 or self.grid < 1 or self.aperture <= 1:
            raise ValueError("experiment parameters must be positive "
                             "(and the cone aperture > 1)")


def _entry_and_map(spec):
    entry = parse_map_spec(spec.map_spec)
    if spec.name == "af_conformal" and entry.name != "moebius":
        raise ValueError(
            f"af_conformal needs a moebius:<a> map, not {spec.map_spec!r}")
    return entry, make_disc_map(entry)


def _lipschitz_row(rep, phi, depth):
    """Add the depth-`depth` modulus row, its verdict read one depth deeper
    at a time while undetermined, up to TAIL_CAP; return the verdict."""
    moduli = deeper = lipschitz_modulus_inverse(phi.boundary, depth)
    verdict, reason = lipschitz_tail(deeper)
    while verdict == UNDETERMINED and len(deeper) < TAIL_CAP:
        deeper = lipschitz_modulus_inverse(phi.boundary, len(deeper) + 1)
        verdict, reason = lipschitz_tail(deeper)
    rep.add("lipschitz_modulus", moduli[-1], 0.0, verdict, (reason, len(deeper)))
    return verdict


def _ring_sweep(tester, mu):
    """Sweep of rings 1-10, 8 balls each, and the verdict on its ring maxima,
    read one ring deeper at a time while undetermined, up to TAIL_CAP:
    (sweep, verdict, (reason, ring))."""
    sweep = tester(mu, ca.make_ball_family(range(1, 11), angles=8))
    ratios = list(sweep.per_ring.values())
    errors = list(sweep.ring_error.values())
    verdict, reason = classify_tail(ratios, errors)
    while verdict == UNDETERMINED and len(ratios) < TAIL_CAP:
        ring = tester(mu, ca.make_ball_family([len(ratios) + 1], angles=8))
        ratios += ring.per_ring.values()
        errors += ring.ring_error.values()
        verdict, reason = classify_tail(ratios, errors)
    return sweep, verdict, (reason, len(ratios))


def run_thm1(spec):
    """Boundedness proxy of the composition operator vs the Lipschitz
    classification of the inverse boundary map; the two must agree."""
    entry, phi = _entry_and_map(spec)
    rep = ExperimentReport("thm1")
    proxy = ca.operator_bound_proxy(phi, spec.p, k_max=spec.depth)
    bounded, reason = proxy.tail()
    rep.add("proxy_sup", proxy.sup, 0.0, bounded, (reason, spec.depth))
    lip = _lipschitz_row(rep, phi, spec.depth)
    ok = bounded == lip != UNDETERMINED
    rep.check("thm1_agreement", ok, float(ok))
    return rep


def run_thm2(spec):
    """The divergent analytic norm against the convergent composite norms."""
    entry, phi = _entry_and_map(spec)
    rep = ExperimentReport("thm2")
    g = cauchy_kernel()
    f = compose(g, phi)
    ng = fn.hardy_norm(g, spec.p)
    rep.add("hardy_norm_g", ng.value, ng.error, ng.classification, ng.why)
    nf = fn.hardy_norm(f, spec.p)
    rep.add("hardy_norm_composite", nf.value, nf.error, nf.classification, nf.why)
    bnorm = fn.boundary_lp_norm(f, spec.p)
    verdict = (CONVERGED if np.isfinite(bnorm)
               else DIVERGING if bnorm == np.inf else UNDETERMINED)
    rep.add("boundary_lp_composite", bnorm, 0.0, verdict,
            ("tail of the boundary means graded at 10^-k", fn.BOUNDARY_SCALES[-1]))
    mnorm = fn.maximal_lp(f, spec.p, spec.aperture, grid_n=4 * spec.grid)
    rep.add("maximal_lp_composite", mnorm, 0.0,
            CONVERGED if np.isfinite(mnorm) else DIVERGING)
    if entry.name == "thm2_sqrt":
        ok = (ng.classification == DIVERGING
              and nf.classification == CONVERGED and np.isfinite(bnorm))
        rep.check("thm2_agreement", ok, float(ok))
    else:
        rep.check("control_run", True, 1.0)
    return rep


def run_thm3(spec):
    """Boundary values, maximal function and weighted derivative integral for
    a composite with an extremal-kernel analytic part."""
    entry, phi = _entry_and_map(spec)
    rep = ExperimentReport("thm3")
    f = compose(hardy_kernel(0.9, spec.p), phi)
    nf = fn.hardy_norm(f, spec.p)
    rep.add("hardy_norm_composite", nf.value, nf.error, nf.classification, nf.why)
    bnorm = fn.boundary_lp_norm(f, spec.p)
    limit_mean, _ = fn.integral_mean(f, 1.0 - 2.0 ** -20, spec.p)
    limit_norm = limit_mean ** (1.0 / spec.p)
    rel = abs(bnorm - limit_norm) / limit_norm
    rep.check("boundary_vs_radial_limit", np.isfinite(bnorm) and rel <= 0.1, rel)
    m1 = fn.maximal_lp(f, spec.p, spec.aperture, grid_n=spec.grid * 2)
    m2 = fn.maximal_lp(f, spec.p, spec.aperture, grid_n=spec.grid * 4)
    rep.check("maximal_lp_grid_stability", abs(m2 - m1) / m1 <= 0.1,
              abs(m2 - m1) / m1)
    rep.check("maximal_dominates_boundary", m2 >= bnorm * (1 - 1e-9), m2)
    if spec.p >= 2:
        area = fn.area_integral(f, spec.p, k_max=max(spec.depth, 12))
        rep.add("area_integral_df", area.value, area.error, area.classification,
                area.why)
        sweep, verdict, why = _ring_sweep(
            ca.luecking_constant,
            ca.DiscPushforward(phi, density=ca.WEIGHTED, p=spec.p))
        rep.check("luecking_stabilized", verdict == CONVERGED, sweep.sup,
                  sweep.error_max, why)
    return rep


def run_thmA(spec):
    """Bergman-Carleson ball tester vs the boundary Lipschitz classification."""
    entry, phi = _entry_and_map(spec)
    rep = ExperimentReport("thmA")
    sweep, bounded, why = _ring_sweep(ca.bergman_carleson_constant,
                                      ca.DiscPushforward(phi))
    rep.add("bergman_constant", sweep.sup, sweep.error_max, bounded, why)
    rep.add("bergman_ring_growth", sweep.per_ring[10] / sweep.per_ring[4], 0.0,
            bounded, why)
    lip = _lipschitz_row(rep, phi, spec.depth)
    ok = bounded == lip != UNDETERMINED
    rep.check("thmA_agreement", ok, float(ok))
    return rep


def run_lemma1(spec):
    """Image-cone aperture over a boundary grid: finite and comparable across
    boundary points (max within 3x of the median)."""
    entry, phi = _entry_and_map(spec)
    rep = ExperimentReport("lemma1")
    thetas = -np.pi + 2 * np.pi * (np.arange(spec.grid) + 0.5) / spec.grid
    aps = [cone_image_aperture(phi, np.exp(1j * t), spec.aperture, samples=96)
           for t in thetas]
    aps = np.asarray(aps)
    rep.add("aperture_max", float(np.max(aps)), 0.0, CONVERGED)
    rep.add("aperture_median", float(np.median(aps)), 0.0, CONVERGED)
    ok = np.all(np.isfinite(aps)) and np.max(aps) <= 3.0 * np.median(aps)
    rep.check("lemma1_comparable", ok, float(np.max(aps) / np.median(aps)))
    return rep


def run_af_conformal(spec):
    """Average derivative of a conformal control map against |f'|."""
    entry, phi = _entry_and_map(spec)
    rep = ExperimentReport("af_conformal")
    f = AnalyticFunction(phi.interior, phi.complex_derivative, label=phi.label)
    est = fn.average_derivative(f, 0.0, mc_samples=10 ** 5, seed=spec.seed)
    target = abs(complex(phi.complex_derivative(np.array([0j]))[0]))
    rep.check("af_at_origin", abs(est.value - target) <= 2 * est.stderr,
              est.value, est.stderr)
    rng = np.random.default_rng(spec.seed)
    ok = True
    worst = 0.0
    for _ in range(8):
        z = 0.8 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
        est = fn.average_derivative(f, z, mc_samples=10 ** 5,
                                    seed=rng.integers(2 ** 32))
        target = abs(complex(phi.complex_derivative(np.array([z]))[0]))
        dev = abs(est.value - target) / (2 * est.stderr)
        worst = max(worst, dev)
        ok = ok and dev <= 1.0
    rep.check("af_matches_fprime", ok, worst)
    return rep


_RUNNERS = {
    "thm1": run_thm1,
    "thm2": run_thm2,
    "thm3": run_thm3,
    "thmA": run_thmA,
    "lemma1": run_lemma1,
    "af_conformal": run_af_conformal,
}

def run(spec):
    """Run the named experiment; deterministic for a fixed spec and seed."""
    start = time.perf_counter()
    rep = _RUNNERS[spec.name](spec)
    rep.metadata.update({
        "spec": {"name": spec.name, "map": spec.map_spec, "p": spec.p,
                 "depth": spec.depth, "grid": spec.grid, "seed": spec.seed,
                 "aperture": spec.aperture},
        "wall_time_s": round(time.perf_counter() - start, 3),
        "versions": {"numpy": np.__version__},
    })
    return rep


def _depth(text):
    """--depth k: k >= 1 and the radius 1 - 2^-k still below 1.0 in doubles."""
    depth = int(text)
    if depth < 1 or 1.0 - 2.0 ** -depth == 1.0:
        raise argparse.ArgumentTypeError(
            f"{depth}: need depth >= 1 with 1 - 2^-depth < 1.0 in doubles")
    return depth


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qchardy",
        description="desk-scale verification experiments for Hardy spaces of "
                    "quasiregular maps")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        spec = ExperimentSpec(name)
        p = sub.add_parser(name)
        p.add_argument("--map", default=spec.map_spec,
                       help="catalog map, e.g. identity, thm2_sqrt, "
                            "power:2, moebius:0.5")
        p.add_argument("--p", type=float, default=spec.p)
        p.add_argument("--depth", type=_depth, default=spec.depth)
        p.add_argument("--grid", type=int, default=spec.grid)
        p.add_argument("--seed", type=int, default=spec.seed,
                       help="Monte Carlo seed (af_conformal only)")
        p.add_argument("--aperture", type=float, default=spec.aperture)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        spec = ExperimentSpec(name=args.experiment, map_spec=args.map, p=args.p,
                              depth=args.depth, grid=args.grid, seed=args.seed,
                              aperture=args.aperture)
        _entry_and_map(spec)
    except ValueError as exc:
        parser.error(str(exc))
    # open --out before the run, so an unwritable path costs no experiment
    try:
        out = open(args.out, "w", encoding="utf-8", newline="") if args.out else None
    except OSError as exc:
        parser.error(f"cannot write report to {args.out}: {exc}")
    report = run(spec)
    text = report.to_csv() if args.format == "csv" else report.to_json()
    if out:
        with out:
            out.write(text)
    sys.stdout.write(text)
    return 0 if report.passed() else 1


if __name__ == "__main__":
    sys.exit(main())

"""Experiment runner: one named, reproducible verification per theorem-scale
claim, with CSV/JSON output.

Usage: qchardy <experiment> --map <name[:params]> [--p <real>] [--depth <k>]
       [--grid <n>] [--aperture <c>] --seed <s> --out <path> --format csv|json
       with only the bracketed flags that the experiment's runner reads

Exit code 0 iff every asserted row passes, so the suite can run in CI.
Tail verdicts may read dyadic depths, ball rings or area shells past
--depth, through tail.read_tail; JSON reports each verdict's reason in
metadata["verdicts"], and for the claims that compare verdicts the evidence
they lack.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from itertools import chain, count

import numpy as np

from . import carleson as ca
from . import functionals as fn
from .boundary import (dyadic_modulus_inverse, lipschitz_modulus_inverse,
                       modulus_rounding, parse_map_spec)
from .extension import cone_image_aperture, make_disc_map
from .functions import AnalyticFunction, cauchy_kernel, compose, hardy_kernel
from .quadrature import WORK
from .tail import CONVERGED, DIVERGING, TAIL_CAP, UNDETERMINED, read_tail

PASS = "pass"
FAIL = "fail"


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


# the point w of thm3's extremal kernel, and the least p at which the
# kernel, (1 - 0.9 z)^(-2/p) = 10^(2/p) at z = 1, is finite in doubles
_THM3_W = 0.9
_THM3_MIN_P = -2.0 * np.log(1.0 - _THM3_W) / np.log(np.finfo(float).max)


@dataclass
class ExperimentSpec:
    name: str
    map_spec: str | None = None  # None: the experiment's default in _TABLE
    p: float | None = None
    depth: int = 10
    grid: int = 16
    seed: int = 42  # accepted and ignored: no experiment samples at random
    aperture: float = 2.0

    def __post_init__(self):
        """The one check of an experiment's input, before it runs."""
        if self.name not in _TABLE:
            raise ValueError(f"unknown experiment {self.name!r}")
        _, map_spec, p, _ = _TABLE[self.name]
        self.map_spec = map_spec if self.map_spec is None else self.map_spec
        self.p = p if self.p is None else self.p
        if not (0 < self.p < np.inf and 1 < self.aperture < np.inf
                and 1 <= self.depth <= TAIL_CAP and self.grid >= 1):
            raise ValueError(
                f"need finite p > 0, finite aperture > 1, 1 <= depth <= "
                f"{TAIL_CAP} and grid >= 1, not p={self.p}, aperture="
                f"{self.aperture}, depth={self.depth}, grid={self.grid}")
        if self.name == "thm3" and self.p < _THM3_MIN_P:
            raise ValueError(f"thm3 needs p >= {_THM3_MIN_P:.6g}, where its "
                             f"kernel is finite in doubles, not p={self.p}")
        map_name = parse_map_spec(self.map_spec)[0]
        if self.name == "af_conformal" and map_name != "moebius":
            raise ValueError(
                f"af_conformal needs a moebius:<a> map, not {self.map_spec!r}")
        # the checks of the builder run uses: gamma > 0, |a| < 1, monotone
        make_disc_map(self.map_spec)


def _lipschitz_row(rep, phi, depth):
    """Add the depth-`depth` modulus row, with the verdict read_tail reads
    on the moduli of depths 1, 2, ...; return the row's claim input (see
    _claim_why)."""
    h = phi.boundary
    moduli = chain(lipschitz_modulus_inverse(h, depth),
                   (dyadic_modulus_inverse(h, d) for d in count(depth + 1)))
    read, verdict, why = read_tail(
        ((m, modulus_rounding(d, m)) for d, m in enumerate(moduli, 1)), depth)
    rep.add("lipschitz_modulus", read[depth - 1][0], 0.0, verdict, why)
    return "lipschitz_modulus", read[depth - 1][0], verdict, why[0]


def _claim_why(*inputs):
    """(reason, None) of a claim on inputs (quantity, value, verdict,
    reason): each input with its verdict, and the value and reason of each
    that is undetermined or NaN, the evidence the claim lacks."""
    parts = []
    for quantity, value, verdict, reason in inputs:
        missing = verdict == UNDETERMINED or np.isnan(value)
        parts.append(f"{quantity} {verdict}"
                     + (f" at {value:.7g}: {reason}" if missing else ""))
    return "; ".join(parts), None


def _boundary_why(verdict, reason, zeroed):
    """(reason, k) of a row on boundary_lp's verdict, read at the finest
    grading scale 10^-k."""
    return (f"boundary means graded at 10^-k {verdict}: {reason}; "
            f"{zeroed} non-finite boundary samples set to 0",
            fn.BOUNDARY_SCALES[-1])


def _ring_terms(tester, mu):
    """(maximum, its error, sweep) of rings 1, 2, ..., 8 balls each: rings
    1-10 from one sweep, then one sweep per ring."""
    sweep = tester(mu, ca.make_ball_family(range(1, 11), angles=8))
    for k in count(1):
        if k > 10:
            sweep = tester(mu, ca.make_ball_family([k], angles=8))
        yield sweep.per_ring[k], sweep.ring_error[k], sweep


def _ring_sweep(tester, mu):
    """Sweep of rings 1-10 and the verdict read_tail reads on the ring
    maxima: (sweep, verdict, (reason, ring)).  If a Newton failure or a
    ratio the sweep cannot form (RuntimeError) strikes rings 1-10, every
    ring maximum of the sweep is NaN."""
    read, verdict, why = read_tail(_ring_terms(tester, mu), 10)
    if read:
        return read[0][2], verdict, why
    unknown = dict.fromkeys(range(1, 11), np.nan)
    return ca.BallSweep(np.nan, unknown, np.nan, unknown), verdict, why


def run_thm1(spec, phi, rep):
    """Kernel Carleson test of the boundary map vs the Lipschitz
    classification of the inverse boundary map; the two must agree.  The
    kernel test holds for every p at once, so thm1 has no --p."""
    test, bounded, why = ca.kernel_carleson(phi, spec.depth)
    top = int(np.argmax(test.ratios[:spec.depth]))
    rep.add("proxy_sup", test.sup, test.errors[top], bounded, why)
    lip = _lipschitz_row(rep, phi, spec.depth)
    ok = bounded == lip[2] != UNDETERMINED
    rep.check("thm1_agreement", ok, float(ok),
              why=_claim_why(("proxy_sup", test.sup, bounded, why[0]), lip))


def run_thm2(spec, phi, rep):
    """The divergent analytic norm against the convergent composite norms."""
    g = cauchy_kernel()
    f = compose(g, phi)
    ng = fn.hardy_norm(g, spec.p)
    rep.add("hardy_norm_g", ng.value, ng.error, ng.classification, ng.why)
    nf = fn.hardy_norm(f, spec.p)
    rep.add("hardy_norm_composite", nf.value, nf.error, nf.classification, nf.why)
    bnorm, bverdict, breason, zeroed = fn.boundary_lp(f, spec.p)
    rep.add("boundary_lp_composite", bnorm, 0.0, bverdict,
            _boundary_why(bverdict, breason, zeroed))
    mnorm = fn.maximal_lp(f, spec.p, spec.aperture, grid_n=4 * spec.grid)
    rep.add("maximal_lp_composite", mnorm, 0.0,
            CONVERGED if np.isfinite(mnorm) else DIVERGING)
    if parse_map_spec(spec.map_spec)[0] == "thm2_sqrt":
        ok = (ng.classification == DIVERGING
              and nf.classification == CONVERGED and bverdict == CONVERGED)
        rep.check("thm2_agreement", ok, float(ok))
    else:
        rep.check("control_run", True, 1.0)


def run_thm3(spec, phi, rep):
    """Boundary values, maximal function and weighted derivative integral for
    a composite with an extremal-kernel analytic part."""
    f = compose(hardy_kernel(_THM3_W, spec.p), phi)
    nf = fn.hardy_norm(f, spec.p)
    rep.add("hardy_norm_composite", nf.value, nf.error, nf.classification, nf.why)
    bnorm, bverdict, breason, zeroed = fn.boundary_lp(f, spec.p)
    # the mean at r = 1 - 2^-20 from the Hardy norm's schedule, NaN if short
    limit_mean = nf.samples[19][1] if len(nf.samples) >= 20 else np.nan
    limit_norm = limit_mean ** (1.0 / spec.p)
    rel = abs(bnorm - limit_norm) / limit_norm
    rep.check("boundary_vs_radial_limit", np.isfinite(bnorm) and rel <= 0.1, rel,
              why=_boundary_why(bverdict, breason, zeroed))
    m1, m2 = fn.maximal_lps(f, spec.p, spec.aperture,
                            (spec.grid * 2, spec.grid * 4))
    rep.check("maximal_lp_grid_stability", abs(m2 - m1) / m1 <= 0.1,
              abs(m2 - m1) / m1)
    rep.check("maximal_dominates_boundary", m2 >= bnorm * (1 - 1e-9), m2,
              why=_claim_why(
                  ("maximal_lp", m2, CONVERGED if np.isfinite(m2) else DIVERGING,
                   "non-finite maximal function"),
                  ("boundary_lp", bnorm, bverdict, breason)))
    if spec.p >= 2:
        area = fn.area_integral(f, spec.p, k_max=max(spec.depth, 12))
        rep.add("area_integral_df", area.value, area.error, area.classification,
                area.why)
        sweep, verdict, why = _ring_sweep(
            ca.luecking_constant,
            ca.DiscPushforward(phi, density=ca.WEIGHTED, p=spec.p))
        rep.check("luecking_stabilized", verdict == CONVERGED, sweep.sup,
                  sweep.error_max, why)


def run_thmA(spec, phi, rep):
    """Bergman-Carleson ball tester vs the boundary Lipschitz classification."""
    sweep, bounded, why = _ring_sweep(ca.bergman_carleson_constant,
                                      ca.DiscPushforward(phi))
    rep.add("bergman_constant", sweep.sup, sweep.error_max, bounded, why)
    rep.add("bergman_ring_growth", sweep.per_ring[10] / sweep.per_ring[4], 0.0,
            bounded, why)
    lip = _lipschitz_row(rep, phi, spec.depth)
    ok = bounded == lip[2] != UNDETERMINED
    rep.check("thmA_agreement", ok, float(ok),
              why=_claim_why(("bergman_constant", sweep.sup, bounded, why[0]),
                             lip))


def run_lemma1(spec, phi, rep):
    """Image-cone aperture over a boundary grid: finite and comparable across
    boundary points (max within 3x of the median)."""
    thetas = -np.pi + 2 * np.pi * (np.arange(spec.grid) + 0.5) / spec.grid
    aps = [cone_image_aperture(phi, np.exp(1j * t), spec.aperture, samples=96)
           for t in thetas]
    aps = np.asarray(aps)
    rep.add("aperture_max", float(np.max(aps)), 0.0, CONVERGED)
    rep.add("aperture_median", float(np.median(aps)), 0.0, CONVERGED)
    ok = np.all(np.isfinite(aps)) and np.max(aps) <= 3.0 * np.median(aps)
    rep.check("lemma1_comparable", ok, float(np.max(aps) / np.median(aps)))


# af_conformal's centers besides the origin: radii 0.8, 0.7, ..., 0.1, one
# per octant, the outermost toward the pole 1/a of a moebius:a map with a > 0
_AF_CENTERS = (0.8 - 0.1 * np.arange(8)) * np.exp(0.25j * np.pi * np.arange(8))


def run_af_conformal(spec, phi, rep):
    """Average derivative of a conformal control map against |f'|, at the
    origin and at _AF_CENTERS: each deviation must lie within the average's
    error.  af_matches_fprime's value is the worst deviation in units of the
    error."""
    f = AnalyticFunction(phi.interior, phi.complex_derivative)
    z = np.concatenate([[0j], _AF_CENTERS])
    value, error = fn.ball_average_derivative(f, z)
    dev = np.abs(value - np.abs(phi.complex_derivative(z))) / error
    rep.check("af_at_origin", dev[0] <= 1.0, value[0], error[0])
    rep.check("af_matches_fprime", np.max(dev[1:]) <= 1.0, np.max(dev[1:]))


# experiment -> (runner, default map, default p, the spec fields besides the
# map that the runner reads, each a flag), read by ExperimentSpec and the
# parser; run calls runner(spec, phi, rep), which adds rows to rep
_TABLE = {
    "thm1": (run_thm1, "identity", 2.0, ("depth",)),
    "thm2": (run_thm2, "thm2_sqrt", 1.0, ("p", "grid", "aperture")),
    "thm3": (run_thm3, "thm2_sqrt", 2.0, ("p", "depth", "grid", "aperture")),
    "thmA": (run_thmA, "thm2_sqrt", 2.0, ("depth",)),
    "lemma1": (run_lemma1, "thm2_sqrt", 2.0, ("grid", "aperture")),
    "af_conformal": (run_af_conformal, "moebius:0.5", 2.0, ()),
}
EXPERIMENTS = tuple(_TABLE)


def run(spec):
    """Run the named experiment on its map; deterministic for a fixed spec,
    whatever its seed."""
    start, before = time.perf_counter(), WORK.copy()
    rep = ExperimentReport(spec.name)
    _TABLE[spec.name][0](spec, make_disc_map(spec.map_spec), rep)
    rep.metadata.update({
        "spec": {"name": spec.name, "map": spec.map_spec, "p": spec.p,
                 "depth": spec.depth, "grid": spec.grid, "seed": spec.seed,
                 "aperture": spec.aperture},
        "wall_time_s": round(time.perf_counter() - start, 3),
        "work": dict(sorted((WORK - before).items())),
        "versions": {"numpy": np.__version__},
    })
    return rep


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
        # every field keeps its default, so args builds an ExperimentSpec
        p.set_defaults(p=spec.p, depth=spec.depth, grid=spec.grid,
                       aperture=spec.aperture)
        for flag in _TABLE[name][3]:
            p.add_argument(f"--{flag}", type=type(getattr(spec, flag)))
        p.add_argument("--seed", type=int, default=spec.seed,
                       help="accepted and ignored: no experiment samples at "
                            "random")
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _attach_signed_values(argv):
    """argv with '--p V' and '--aperture V' written '--p=V' where V starts
    with a single '-': argparse reads a V such as -inf or -1e-3 as an option
    and reports the value missing, instead of the value being checked."""
    args = list(argv)
    for i in reversed(range(len(args) - 1)):
        value = args[i + 1]
        if (args[i] in ("--p", "--aperture") and value.startswith("-")
                and not value.startswith("--")):
            args[i:i + 2] = [f"{args[i]}={value}"]
    return args


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(
        _attach_signed_values(sys.argv[1:] if argv is None else argv))
    try:
        spec = ExperimentSpec(name=args.experiment, map_spec=args.map, p=args.p,
                              depth=args.depth, grid=args.grid, seed=args.seed,
                              aperture=args.aperture)
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

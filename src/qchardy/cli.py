"""Experiment runner: one named, reproducible verification per theorem-scale
claim, with CSV/JSON output.

Usage: qchardy <experiment> --map <name[:params]> [--p <real>] [--depth <k>]
       [--grid <n>] [--aperture <c>] --seed <s> --out <path> --format csv|json
       with only the bracketed flags that the experiment's runner reads

Exit code 0 iff every asserted row passes, so the suite can run in CI.
Every verdict row is a tail.Reading from the module that computes its
terms, which may read dyadic depths, ball rings or area shells past
--depth; JSON reports each tail verdict's reason in metadata["verdicts"],
and for the claims that compare readings the evidence they lack.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from . import carleson as ca
from . import functionals as fn
from .boundary import lipschitz_modulus_inverse, lipschitz_reading
from .extension import cone_image_aperture, make_disc_map, parse_map_spec
from .functions import AnalyticFunction, cauchy_kernel, compose, hardy_kernel
from .quadrature import WORK
from .tail import CONVERGED, TAIL_CAP, UNDETERMINED, read_value

PASS = "pass"
FAIL = "fail"


Row = namedtuple("Row", "quantity value error classification")


@dataclass
class ExperimentReport:
    name: str
    rows: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, quantity, reading):
        """Add the row of a reading, and its reason and at, if it gives a
        reason, to metadata["verdicts"]."""
        self.rows.append(Row(quantity, float(reading.value),
                             float(reading.error), reading.classification))
        if reading.reason:
            self.metadata.setdefault("verdicts", {})[quantity] = {
                "reason": reading.reason, "at": reading.at}

    def check(self, quantity, ok, value, error=0.0, why=None):
        """Add the row of a claim, with the reason and at of why, the
        reading it rests on."""
        self.add(quantity, replace(why or read_value(value), value=value,
                                   error=error, classification=PASS if ok else FAIL))

    def compare(self, quantity, ok, value, readings):
        """Add the row of a claim on readings, {quantity: reading}, whose
        reason lists each with its verdict, and the value and reason of each
        that is undetermined or NaN ("read without a tail" if it has none):
        the evidence the claim lacks."""
        reason = "; ".join(
            f"{name} {r.classification}"
            + (f" at {r.value:.7g}: {r.reason or 'read without a tail'}"
               if r.classification == UNDETERMINED or np.isnan(r.value) else "")
            for name, r in readings.items())
        self.check(quantity, ok, value,
                   why=replace(read_value(value), reason=reason))

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
            "rows": [r._asdict() for r in self.rows],
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


def _agreement(rep, quantity, readings):
    """Add the claim that the readings, {row: reading}, share one verdict,
    and a decided one."""
    verdicts = {r.classification for r in readings.values()}
    ok = len(verdicts) == 1 and UNDETERMINED not in verdicts
    rep.compare(quantity, ok, float(ok), readings)


def run_thm1(spec, phi, rep):
    """Kernel Carleson test of the boundary map vs the Lipschitz
    classification of the inverse boundary map; the two must agree.  The
    kernel test holds for every p at once, so thm1 has no --p."""
    kernel = ca.kernel_carleson(phi, spec.depth)
    rep.add("proxy_sup", kernel)
    lip = lipschitz_reading(phi.boundary,
                            lipschitz_modulus_inverse(phi.boundary, spec.depth))
    rep.add("lipschitz_modulus", lip)
    _agreement(rep, "thm1_agreement", {"proxy_sup": kernel, "lipschitz_modulus": lip})


def run_thm2(spec, phi, rep):
    """Hp norms of the Cauchy kernel g and of g o phi, whose two Hp
    witnesses, its Hardy and boundary verdicts, must agree."""
    g = cauchy_kernel()
    f = compose(g, phi)
    rep.add("hardy_norm_g", fn.hardy_norm(g, spec.p))
    nf = fn.hardy_norm(f, spec.p)
    rep.add("hardy_norm_composite", nf)
    boundary = fn.boundary_lp(f, spec.p)
    rep.add("boundary_lp_composite", boundary)
    rep.add("maximal_lp_composite", read_value(
        fn.maximal_lp(f, spec.p, spec.aperture, grid_n=4 * spec.grid)))
    _agreement(rep, "thm2_agreement", {"hardy_norm_composite": nf,
                                       "boundary_lp_composite": boundary})


def run_thm3(spec, phi, rep):
    """Boundary values, maximal function and weighted derivative integral for
    a composite with an extremal-kernel analytic part."""
    f = compose(hardy_kernel(_THM3_W, spec.p), phi)
    nf = fn.hardy_norm(f, spec.p)
    rep.add("hardy_norm_composite", nf)
    boundary = fn.boundary_lp(f, spec.p)
    # the mean at r = 1 - 2^-20 from the Hardy norm's schedule, NaN if short
    limit_mean = nf.samples[19][0] if len(nf.samples) >= 20 else np.nan
    limit_norm = limit_mean ** (1.0 / spec.p)
    rel = abs(boundary.value - limit_norm) / limit_norm
    rep.check("boundary_vs_radial_limit",
              np.isfinite(boundary.value) and rel <= 0.1, rel, why=boundary)
    m1, m2 = fn.maximal_lps(f, spec.p, spec.aperture,
                            (spec.grid * 2, spec.grid * 4))
    gap = abs((m2 / m1) ** spec.p - 1)  # of the means of M^p, not their roots
    rep.check("maximal_lp_grid_stability", gap <= 0.1, gap)
    rep.compare("maximal_dominates_boundary",
                m2 >= boundary.value * (1 - 1e-9), m2,
                {"maximal_lp": read_value(m2), "boundary_lp": boundary})
    if spec.p >= 2:
        rep.add("area_integral_df",
                fn.area_integral(f, spec.p, k_max=max(spec.depth, 12)))
        rings = ca.ring_sweep(
            ca.luecking_constant,
            ca.DiscPushforward(phi, density=ca.WEIGHTED, p=spec.p))
        rep.check("luecking_stabilized", rings.classification == CONVERGED,
                  rings.value, rings.error, why=rings)


def run_thmA(spec, phi, rep):
    """Bergman-Carleson ball tester vs the boundary Lipschitz classification."""
    rings = ca.ring_sweep(ca.bergman_carleson_constant, ca.DiscPushforward(phi))
    rep.add("bergman_constant", rings)
    # ring 10's maximum over ring 4's, NaN if the sweep of rings 1-10 raised
    rep.add("bergman_ring_growth", replace(rings, error=0.0, value=(
        rings.samples[9][0] / rings.samples[3][0] if rings.samples else np.nan)))
    lip = lipschitz_reading(phi.boundary,
                            lipschitz_modulus_inverse(phi.boundary, spec.depth))
    rep.add("lipschitz_modulus", lip)
    _agreement(rep, "thmA_agreement", {"bergman_constant": rings,
                                       "lipschitz_modulus": lip})


def run_lemma1(spec, phi, rep):
    """Image-cone aperture at the mirror-exact vertices pi k / n, k = 1 - n,
    3 - n, ..., n - 1: finite and comparable (max within 3x of the median)."""
    thetas = np.pi * np.arange(1 - spec.grid, spec.grid, 2) / spec.grid
    aps = cone_image_aperture(phi, np.exp(1j * thetas), spec.aperture, samples=96)
    rep.add("aperture_max", read_value(float(np.max(aps))))
    rep.add("aperture_median", read_value(float(np.median(aps))))
    ok = np.all(np.isfinite(aps)) and np.max(aps) <= 3.0 * np.median(aps)
    with np.errstate(invalid="ignore"):  # inf / inf reads nan
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

"""Workloads of the qchardy benchmark, the verdicts each experiment must reach,
and the runner that times and checks one pass of a workload.

The expected verdicts come from the paper's claims, not from program output:

* the composition operator with symbol phi is bounded on H^p exactly when the
  inverse boundary map of phi is Lipschitz (theorems 1 and A): thm2_sqrt is
  bounded with a Lipschitz inverse, power:g with g > 1 is unbounded, and the
  Moebius maps are conformal automorphisms, hence bounded;
* the Cauchy kernel 1/(1 - z) is not in H^1, while its composite with
  thm2_sqrt has finite boundary, Hardy and maximal norms (theorem 2);
* a composite of an H^p kernel with a bounded symbol has finite Hardy norm and
  area integral (theorem 3).

A bounded quasiconformal symbol must be called "converged".  For a Moebius
symbol "undetermined" is also accepted, because the tail classifier may not
resolve the map's own length scale at the default depth; "diverging" never is.
Numeric rows are checked only where the value is a property of the
mathematics (a closed form or a frozen oracle); values that depend on the
numerical method, and Monte Carlo rows, are checked through their verdicts.

This module imports nothing from qchardy: a pass calls an ``execute``
function, ``argv -> (passed, rows, csv_text)``, that the launcher supplies.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

CONVERGED = "converged"
DIVERGING = "diverging"
UNDETERMINED = "undetermined"
PASS = frozenset({"pass"})

# depth of the dyadic Lipschitz estimator at the CLI default --depth 10
LIPSCHITZ_DEPTH = 10

# frozen oracle: (1/pi^2) int_0^pi s / sin(s/2) ds, the boundary L1 norm of
# 1/(1 - z) composed with the square-root map
SQRT_COMPOSITE_BOUNDARY_L1 = 0.7424537454215444


@dataclass(frozen=True)
class Spec:
    """One CLI experiment: ``qchardy <experiment> --map <map_spec>``, every
    other flag at its CLI default except ``--seed``."""

    experiment: str
    map_spec: str

    @property
    def label(self):
        return f"{self.experiment}_{self.map_spec.replace(':', '')}"

    def argv(self, seed):
        return [self.experiment, "--map", self.map_spec, "--seed", str(seed)]


WORKLOADS = {
    # Hardy norms along r_k = 1 - 2^-k on BA maps: large vectorised BA
    # batches, no derivatives, no Monte Carlo; one bounded and one unbounded
    # symbol, so a fast but wrong boundedness proxy fails.
    "radial_hardy": (
        Spec("thm2", "thm2_sqrt"),
        Spec("thm1", "power:2"),
        Spec("thm1", "thm2_sqrt"),
    ),
    # Seeded Monte Carlo ball pushforwards, Newton inversion and the
    # finite-difference differential: the same BA layer called with small
    # batches.
    "disc_carleson": (
        Spec("thmA", "thm2_sqrt"),
        Spec("thmA", "power:2"),
        Spec("thm3", "thm2_sqrt"),
    ),
    # Conformal symbols with exact interior maps: no BA evaluation at all, so
    # every BA optimisation must leave this workload unchanged.
    "conformal_control": (
        Spec("af_conformal", "moebius:0.5"),
        Spec("thm3", "moebius:0.5"),
        Spec("thmA", "moebius:0.5"),
        Spec("lemma1", "moebius:0.5"),
        Spec("thm1", "moebius:0.99"),
        Spec("thmA", "moebius:0.99"),
    ),
}

# Specs whose wrong verdict is a known defect of the program: the run still
# counts as failed, but the benchmark stays correct as long as the problems
# stay within the listed rows ("exit" is the non-zero exit status).  The
# depth-10 dyadic modulus of moebius(0.99) is 193 against a limit of 199 and
# still growing, so the tail classifiers call this bounded map diverging.
KNOWN_DEFECTS = {
    "thm1_moebius0.99": frozenset({"exit", "lipschitz_modulus",
                                   "thm1_agreement"}),
    "thmA_moebius0.99": frozenset({"exit", "lipschitz_modulus",
                                   "bergman_constant", "bergman_ring_growth",
                                   "thmA_agreement"}),
}


def _symbol(map_spec):
    name, _, param = map_spec.partition(":")
    return name, (float(param) if param else None)


def boundedness_verdicts(map_spec):
    """Verdicts allowed for a row that asks whether C_phi is bounded."""
    name, param = _symbol(map_spec)
    if name in ("identity", "moebius"):
        return frozenset({CONVERGED, UNDETERMINED})
    if name == "thm2_sqrt" or (name == "power" and param <= 1.0):
        return frozenset({CONVERGED})
    if name == "power":
        return frozenset({DIVERGING})
    raise ValueError(f"no expected verdicts for map {map_spec!r}")


def expected_verdicts(spec):
    """Row quantity -> allowed classifications, for one spec."""
    bounded = boundedness_verdicts(spec.map_spec)
    if spec.experiment == "thm1":
        return {"proxy_sup": bounded, "lipschitz_modulus": bounded,
                "thm1_agreement": PASS}
    if spec.experiment == "thmA":
        return {"bergman_constant": bounded, "bergman_ring_growth": bounded,
                "lipschitz_modulus": bounded, "thmA_agreement": PASS}
    if DIVERGING in bounded:
        raise ValueError(f"{spec.experiment} needs a bounded symbol")
    if spec.experiment == "thm2" and spec.map_spec == "thm2_sqrt":
        return {"hardy_norm_g": frozenset({DIVERGING}),
                "hardy_norm_composite": bounded,
                "boundary_lp_composite": bounded,
                "maximal_lp_composite": bounded, "thm2_agreement": PASS}
    if spec.experiment == "thm3":
        return {"hardy_norm_composite": bounded,
                "boundary_vs_radial_limit": PASS,
                "maximal_lp_grid_stability": PASS,
                "maximal_dominates_boundary": PASS,
                "area_integral_df": bounded, "luecking_stabilized": PASS}
    if spec.experiment == "lemma1":
        return {"aperture_max": bounded, "aperture_median": bounded,
                "lemma1_comparable": PASS}
    if spec.experiment == "af_conformal":
        return {"af_at_origin": PASS, "af_matches_fprime": PASS}
    raise ValueError(f"no expected verdicts for {spec.label}")


def dyadic_lipschitz_modulus(map_spec, depth):
    """Closed form of the largest mean slope of the inverse angle map over the
    dyadic arcs of length w = pi 2^-depth (what the CLI's lipschitz_modulus
    row reports at that depth)."""
    name, param = _symbol(map_spec)
    x = 2.0 ** -depth
    if name == "identity":
        return 1.0
    if name in ("thm2_sqrt", "power"):
        gamma = 0.5 if name == "thm2_sqrt" else param
        # inverse s -> pi (s/pi)^(1/gamma): convex for gamma <= 1, so the
        # steepest arc ends at pi; concave otherwise, steepest at 0
        if gamma <= 1.0:
            return (1.0 - (1.0 - x) ** (1.0 / gamma)) / x
        return x ** (1.0 / gamma - 1.0)
    if name == "moebius":
        # the inverse is moebius(-a); its slope peaks at the image of -sign(a)
        a = abs(param)
        w = math.pi * x
        return (w + 2.0 * math.atan(a * math.sin(w) / (1.0 - a * math.cos(w)))) / w
    raise ValueError(f"no closed form for map {map_spec!r}")


def reference_values(spec):
    """Row quantity -> (reference value, relative tolerance)."""
    refs = {}
    if spec.experiment in ("thm1", "thmA"):
        refs["lipschitz_modulus"] = (
            dyadic_lipschitz_modulus(spec.map_spec, LIPSCHITZ_DEPTH), 1e-9)
    if spec.experiment == "thm2" and spec.map_spec == "thm2_sqrt":
        refs["boundary_lp_composite"] = (SQRT_COMPOSITE_BOUNDARY_L1, 1e-4)
    return refs


def check_report(spec, passed, rows):
    """Problems with one experiment report, as (quantity, message) pairs."""
    problems = []
    if not passed:
        problems.append(("exit", "exit status 1"))
    by_quantity = {r.quantity: r for r in rows}
    for quantity, allowed in expected_verdicts(spec).items():
        row = by_quantity.get(quantity)
        if row is None:
            problems.append((quantity, "row missing"))
        elif row.classification not in allowed:
            problems.append((quantity, f"{row.classification}, expected "
                                       f"{'/'.join(sorted(allowed))}"))
    for quantity, (ref, rel) in reference_values(spec).items():
        row = by_quantity.get(quantity)
        if row is None:
            problems.append((quantity, "row missing"))
        elif not abs(row.value - ref) <= rel * abs(ref):
            problems.append((quantity, f"value {row.value!r}, reference "
                                       f"{ref!r} (rel. tol. {rel:g})"))
    return problems


@dataclass
class SpecRun:
    spec: Spec
    seconds: float
    csv: str | None
    problems: list = field(default_factory=list)
    start: float = 0.0
    # calibration kernel times measured just before and just after the run
    calibration: tuple = ()


def run_spec(spec, seed, execute):
    """Time one experiment (run and CSV rendering), then check its report.

    Any exception from the program counts as a failed run, not as a crash of
    the benchmark.
    """
    start = time.perf_counter()
    try:
        passed, rows, csv_text = execute(spec.argv(seed))
    except Exception as exc:  # noqa: BLE001 - a raising spec is a failed run
        return SpecRun(spec, time.perf_counter() - start, None,
                       [("raised", f"{type(exc).__name__}: {exc}")], start)
    seconds = time.perf_counter() - start
    return SpecRun(spec, seconds, csv_text, check_report(spec, passed, rows),
                   start)


@dataclass
class Pass:
    wall: float
    runs: list


def run_pass(specs, seed, execute, tally, calibrate=None):
    """Run the specs back to back (closed loop, one client).

    With ``calibrate``, a function returning a tuple of calibration kernel
    times, it runs before the first spec and after each spec; its time is
    kept out of the pass's wall time.
    """
    runs = []
    wall = 0.0
    before = calibrate() if calibrate else ()
    for spec in specs:
        run = run_spec(spec, seed, execute)
        wall += run.seconds
        if calibrate:
            after = calibrate()
            run.calibration = before + after
            before = after
        runs.append(run)
    for run in runs:
        tally.record(run)
    return Pass(wall, runs)


def run_passes(specs, seed, seconds, execute, tally, count=None,
               calibrate=None):
    """Passes until ``seconds`` have elapsed (the pass under way finishes, and
    there is always at least one), or exactly ``count`` passes."""
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        passes.append(run_pass(specs, seed, execute, tally, calibrate))
        if count is not None:
            if len(passes) >= count:
                return passes
        elif time.perf_counter() >= deadline:
            return passes


class Tally:
    """Counts spec runs and failures, and checks that every run of a spec
    renders the same CSV bytes as its first run."""

    def __init__(self):
        self.first_csv = {}
        self.attempted = 0
        self.failures = []

    def record(self, run):
        self.attempted += 1
        if run.csv is not None:
            first = self.first_csv.setdefault(run.spec.label, run.csv)
            if run.csv != first:
                run.problems.append(("csv", "CSV bytes differ from the first "
                                            "run with this seed"))
        if run.problems:
            self.failures.append(run)

    @property
    def failed(self):
        return len(self.failures)

    def is_known(self, run):
        allowed = KNOWN_DEFECTS.get(run.spec.label, frozenset())
        return all(quantity in allowed for quantity, _ in run.problems)

    @property
    def unexpected(self):
        return [run for run in self.failures if not self.is_known(run)]

"""qchardy benchmark: time to verdict on three workloads of CLI experiments.

Run from the repository root:

    python3 bench/run.py --workload radial_hardy --seed 1 --seconds 10 --trace 0

Each workload (see workloads.py) is a list of experiments run back to back in
this one single-threaded process, through ``qchardy.cli.run`` and
``to_csv()``, with ``--seed`` set to the benchmark seed.  A run makes passes
over the workload until ``--seconds`` have elapsed; the pass under way always
finishes, so a workload whose pass is longer than that makes one pass.

``--trace 0`` prints the end-to-end metrics, measured untraced.  ``--trace 1``
makes the same untraced passes, then as many traced passes, and prints the
per-layer metrics of the traced passes (tracer.py); the spans are written to
``bench/out/``.  Every spec run is checked against the expected verdicts, and
its CSV must repeat byte for byte: after the timed passes of an untraced run
one spec, chosen by the seed, runs once more.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``;
``failed`` counts the spec runs that failed in a way not listed in
``KNOWN_DEFECTS`` (workloads.py).  Runs of a known defect still count against
``passed_frac`` and the ``failed_frac`` report line.

End-to-end times are scaled to a reference CPU speed, because a shared
machine changes speed: on a 2-core Xeon virtual machine it varied by up to
25%, for seconds to minutes at a time.  A fixed calibration kernel is timed three times before
and after every timed interval, and every ``CALIBRATION_INTERVAL_S`` from a
timer signal while the passes run; each interval's time, less the kernel runs
inside it, is multiplied by ``CALIBRATION_REF_S`` times the mean kernel speed
(1 / time) over the kernel runs before, inside and after it.  The raw times
and the median kernel time are printed on the ``meta`` line.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from workloads import WORKLOADS, Tally, run_passes, run_spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 5
# calibration kernel time that defines the reference speed (about that of the
# 2-core Xeon virtual machine the baseline in README.md was measured on)
CALIBRATION_REF_S = 0.004
CALIBRATION_INTERVAL_S = 0.25

END_TO_END = {
    "wall_s": "s",
    "verdict_s_geomean": "s",
    "setup_s": "s",
    "passed_frac": "frac",
    "peak_rss_mb": "MB",
}
ALL_SPECS = tuple(dict.fromkeys(s for specs in WORKLOADS.values() for s in specs))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def import_program():
    """Import qchardy from this checkout's src/, never from elsewhere."""
    if not (SRC / "qchardy" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no qchardy sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qchardy.cli as cli
    if SRC not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"benchmark: imported qchardy from {cli.__file__}")
    return cli


def cli_executor(cli):
    """argv -> (passed, rows, csv_text), the way ``qchardy.cli.main`` runs it."""
    parser = cli.build_parser()

    def execute(argv):
        args = parser.parse_args(argv)
        spec = cli.ExperimentSpec(name=args.experiment, map_spec=args.map,
                                  p=args.p, depth=args.depth, grid=args.grid,
                                  seed=args.seed, aperture=args.aperture)
        report = cli.run(spec)
        return report.passed(), report.rows, report.to_csv()

    return execute


class Calibration:
    """Times a fixed kernel that mixes small numpy calls and Python
    arithmetic, like the program's own work (about 4 ms a run).

    Calling it runs the kernel three times and returns the three times.
    Inside ``sampling()`` a timer signal also runs it every
    ``CALIBRATION_INTERVAL_S``; those runs are kept in ``ticks`` as
    (start, end) pairs.
    """

    def __init__(self):
        import numpy as np

        self._x = np.linspace(-3.0, 3.0, 512)
        self._np = np
        self.ticks = []

    def _kernel(self):
        np, x = self._np, self._x
        acc = 0.0
        for _ in range(120):
            acc += float(np.sum(np.tan(0.5 * np.arctan(x)) * np.exp(-x * x)))
            for i in range(300):
                acc += i * 0.5
        return acc

    def _timed(self):
        start = time.perf_counter()
        self._kernel()
        return start, time.perf_counter()

    def __call__(self):
        return tuple(end - start for start, end in
                     (self._timed() for _ in range(3)))

    def _on_timer(self, signum, frame):
        self.ticks.append(self._timed())

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S,
                         CALIBRATION_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def scaled(seconds, start, samples, ticks=()):
    """``seconds`` from ``start`` at the reference speed: the timer-driven
    kernel runs inside the interval are removed from it and join the
    ``samples`` taken around it in the mean speed."""
    inside = [end - begin for begin, end in ticks
              if start <= begin < start + seconds]
    speed = statistics.fmean(1.0 / t for t in (*samples, *inside))
    return (seconds - sum(inside)) * CALIBRATION_REF_S * speed


def measure_setup(map_specs):
    """(start, seconds) from starting a fresh interpreter to the probe's
    ``ready``."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"),
                           *map_specs], stdout=subprocess.PIPE, text=True,
                          cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return start, elapsed


def metadata(workload, seed, seconds, trace):
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    lines = {p.stem: len(p.read_text(encoding="utf-8").splitlines())
             for p in sorted((SRC / "qchardy").glob("*.py"))}
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": git_commit(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "src_lines": lines, "src_lines_total": sum(lines.values()),
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def spec_seconds(passes, seconds=lambda run: run.seconds):
    """Median of ``seconds(run)`` per spec label over the passes."""
    times = {}
    for p in passes:
        for run in p.runs:
            times.setdefault(run.spec.label, []).append(seconds(run))
    return {label: statistics.median(v) for label, v in times.items()}


def end_to_end(passes, setup, tally, ticks=()):
    """End-to-end metrics, times scaled to the reference speed.  ``setup``
    holds (seconds, start, calibration samples) per probe."""
    def run_seconds(run):
        return scaled(run.seconds, run.start, run.calibration, ticks)

    per_spec = spec_seconds(passes, run_seconds)
    geomean = math.exp(statistics.fmean(math.log(t) for t in per_spec.values()))
    return {
        "wall_s": statistics.median(sum(run_seconds(r) for r in p.runs)
                                    for p in passes),
        "verdict_s_geomean": geomean,
        "setup_s": statistics.median(scaled(*probe) for probe in setup),
        "passed_frac": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, traced, untraced):
    from tracer import layer_metrics

    metrics = layer_metrics(tracer, len(traced))
    per_spec = spec_seconds(traced)
    for spec in ALL_SPECS:
        metrics[f"cli.run.{spec.label}_s"] = (per_spec.get(spec.label, 0.0), "s")
    traced_wall = statistics.median(p.wall for p in traced)
    self_sum = sum(v for k, (v, _) in metrics.items()
                   if k.startswith("layer.") and k.endswith(".self_s"))
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (
        traced_wall - statistics.median(p.wall for p in untraced), "s")
    metrics["trace.self_coverage"] = (self_sum / traced_wall, "frac")
    return metrics


def per_layer_names():
    """Names of the per-layer metrics, in report order."""
    from tracer import Tracer, layer_metrics

    names = list(layer_metrics(Tracer(), 1))
    names += [f"cli.run.{spec.label}_s" for spec in ALL_SPECS]
    names += ["trace.wall_s", "trace.overhead_s", "trace.self_coverage"]
    return names


def print_failures(tally):
    """One line per distinct failure, with the number of runs that had it."""
    seen = {}
    for run in tally.failures:
        key = (tally.is_known(run), run.spec.label, tuple(run.problems))
        seen[key] = seen.get(key, 0) + 1
    for (known, label, problems), count in seen.items():
        detail = "; ".join(f"{q}: {msg}" for q, msg in problems)
        print(f"{'known defect' if known else 'FAILED'}: {label} x{count}: "
              f"{detail}")


def result(tally, metrics):
    """The result line.  A run of a known defect is not a failed operation:
    its wrong verdict is expected until the program is fixed, and it shows in
    ``passed_frac`` instead."""
    unexpected = len(tally.unexpected)
    return {
        "correct": unexpected == 0,
        "attempted": tally.attempted,
        "failed": unexpected,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    cli = import_program()
    execute = cli_executor(cli)
    specs = WORKLOADS[args.workload]
    meta = metadata(args.workload, args.seed, args.seconds, args.trace)
    tally = Tally()

    if args.trace:
        from tracer import Tracer

        untraced = run_passes(specs, args.seed, args.seconds, execute, tally)
        with Tracer() as tracer:
            traced = run_passes(specs, args.seed, 0.0, execute, tally,
                                count=len(untraced))
        metrics = per_layer(tracer, traced, untraced)
        OUT.mkdir(exist_ok=True)
        tracer.write_csv(OUT / f"spans_{args.workload}_seed{args.seed}.csv")
    else:
        calibrate = Calibration()
        maps = sorted({spec.map_spec for spec in specs})
        setup = []
        for _ in range(SETUP_PROBES):
            before = calibrate()
            start, seconds = measure_setup(maps)
            setup.append((seconds, start, before + calibrate()))
        with calibrate.sampling():
            passes = run_passes(specs, args.seed, args.seconds, execute,
                                tally, calibrate=calibrate)
        tally.record(run_spec(specs[args.seed % len(specs)], args.seed, execute))
        metrics = {name: (value, END_TO_END[name]) for name, value in
                   end_to_end(passes, setup, tally, calibrate.ticks).items()}
        meta["raw_pass_wall_s"] = [p.wall for p in passes]
        meta["raw_setup_s"] = [probe[0] for probe in setup]
        meta["calibration_s"] = statistics.median(
            [t for probe in setup for t in probe[2]]
            + [t for p in passes for r in p.runs for t in r.calibration]
            + [end - begin for begin, end in calibrate.ticks])

    meta["failed_frac"] = tally.failed / tally.attempted
    print("meta " + json.dumps(meta, sort_keys=True))
    print_failures(tally)
    print(f"{'failed_frac':48s} {meta['failed_frac']:14.6g} frac")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    print(json.dumps(result(tally, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

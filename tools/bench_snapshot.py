"""Snapshot of qchardy's measured performance, written as one JSON file.

Run from anywhere, on the checkout this script lives in:

    python3 tools/bench_snapshot.py --out BENCH_1.json

It records
  * the three benchmark workloads (bench/run.py) at --trace 0 and --trace 1,
    each the final JSON object that run prints;
  * the wall time of each experiment at its CLI defaults through cli.run,
    the median of --repeats runs after one warm-up run;
  * the Beurling-Ahlfors kernel's nanoseconds per point: a call and a jet
    of thm2_sqrt and power:2 on a fixed seeded batch of BA_POINTS disc
    points, the median of --repeats runs after one warm-up run; and its
    microseconds per call on the first SMALL_BATCHES points of that batch:
    40 points, and 400, near the median call of disc_carleson;
  * per workload, the minor page faults, system and user seconds and wall
    seconds of one warm pass through cli.run (after one warm-up pass), read
    with resource.getrusage(RUSAGE_SELF) in a fresh interpreter of its own;
    and, under the top-level key "work", the work of that pass: the sum over
    its specs of each report's metadata["work"], the counts the package
    keeps where the work is done (README, "Command line");
  * the wall time of the Tier-1 test suite;
  * the net line count of src/;
  * the machine: CPU count and model, Python and numpy versions.
Every part runs in this checkout's src/, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("radial_hardy", "disc_carleson", "conformal_control")
# disc points of the BA kernel timing, one batch budget
# (quadrature._NODES_PER_CALL), and the small batches timed per call
BA_POINTS = 8192
SMALL_BATCHES = (40, 400)


def _env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def workload(name, trace, seed, seconds):
    """The final JSON object of one bench/run.py run."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, env=_env(), capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _median_s(call, repeats):
    """Median seconds of repeats calls of call(), after one warm-up call."""
    call()
    runs = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        runs.append(time.perf_counter() - start)
    return statistics.median(runs)


def experiments(repeats):
    """Seconds per experiment at its CLI defaults, through cli.run."""
    sys.path.insert(0, str(SRC))
    from qchardy import cli

    times = {}
    for name in cli.EXPERIMENTS:
        spec = cli.ExperimentSpec(name)
        times[f"{name}_{spec.map_spec.replace(':', '')}"] = _median_s(
            lambda: cli.run(spec), repeats)
    return times


def _ba_points():
    """BA_POINTS disc points seeded at 0: angles uniform, 1 - |z|
    log-uniform from 2^-1 to 2^-20, as along the radial schedule."""
    import numpy as np

    rng = np.random.default_rng(0)
    return ((1.0 - 2.0 ** -rng.uniform(1.0, 20.0, BA_POINTS))
            * np.exp(1j * rng.uniform(-np.pi, np.pi, BA_POINTS)))


def _ba_methods():
    """(name, bound method) of a call and a jet of thm2_sqrt and power:2."""
    sys.path.insert(0, str(SRC))
    from qchardy.extension import make_disc_map

    for spec in ("thm2_sqrt", "power:2"):
        phi = make_disc_map(spec)
        for name, method in (("call", phi.__call__), ("jet", phi.jet)):
            yield f"{spec.replace(':', '')}_{name}", method


def ba_kernel_ns_per_point(repeats):
    """Nanoseconds per point of a BA map's call and jet, for thm2_sqrt and
    power:2, on the BA_POINTS points of _ba_points.  The warm-up run builds
    the extension's antiderivative table."""
    z = _ba_points()
    return {name: 1e9 * _median_s(lambda: method(z), repeats) / BA_POINTS
            for name, method in _ba_methods()}


def ba_small_batch_us(repeats, calls=50):
    """Microseconds per call of a BA map's call and jet, for thm2_sqrt and
    power:2, on the first n of the _ba_points points for each n in
    SMALL_BATCHES: the median of --repeats runs of `calls` calls."""
    z = _ba_points()
    us = {}
    for name, method in _ba_methods():
        for n in SMALL_BATCHES:
            def run(batch=z[:n], method=method):
                for _ in range(calls):
                    method(batch)
            us[f"{name}_{n}"] = 1e6 * _median_s(run, repeats) / calls
    return us


def warm_pass_usage(name, seed):
    """Minor page faults, system and user seconds and wall seconds of one
    pass of workload `name` through cli.run, after one warm-up pass, read
    with resource.getrusage(RUSAGE_SELF) in this process, and the work of
    that pass: the sum over its specs of each run's metadata["work"]."""
    import resource

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    from qchardy import cli

    def one_pass():
        work = Counter()
        for spec in workloads.WORKLOADS[name]:
            report = cli.run(cli.ExperimentSpec(spec.experiment, spec.map_spec,
                                                seed=seed))
            report.to_csv()
            work.update(report.metadata["work"])
        return work

    one_pass()
    before, start = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
    work = one_pass()
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    return {"minor_faults": after.ru_minflt - before.ru_minflt,
            "sys_s": after.ru_stime - before.ru_stime,
            "user_s": after.ru_utime - before.ru_utime, "wall_s": wall,
            "work": dict(sorted(work.items()))}


def pass_usage(seed):
    """warm_pass_usage of each workload, each in a fresh interpreter with
    one thread per library, as bench/run.py runs it."""
    env = dict(_env(), **{var: "1" for var in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")})
    usage = {}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--warm-pass", name,
             "--seed", str(seed)],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True)
        usage[name] = json.loads(out.stdout)
    return usage


def tier1():
    """(wall seconds, last line of the summary) of the Tier-1 suite."""
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"],
        cwd=ROOT, env=_env(), capture_output=True, text=True)
    return time.perf_counter() - start, out.stdout.strip().splitlines()[-1]


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))


def machine():
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="BENCH_1.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--warm-pass", choices=WORKLOADS,
                        help="print warm_pass_usage of this workload as JSON "
                             "and exit")
    args = parser.parse_args(argv)
    if args.warm_pass:
        print(json.dumps(warm_pass_usage(args.warm_pass, args.seed)))
        return
    snapshot = {
        "workloads": {f"{name}_trace{trace}": workload(name, trace, args.seed,
                                                       args.seconds)
                      for name in WORKLOADS for trace in (0, 1)},
        "experiments_s": experiments(args.repeats),
        "ba_kernel_ns_per_point": ba_kernel_ns_per_point(args.repeats),
        "ba_small_batch_us": ba_small_batch_us(args.repeats),
        "warm_pass": pass_usage(args.seed),
        "src_lines": src_lines(),
        "machine": machine(),
    }
    snapshot["work"] = {name: usage.pop("work")
                        for name, usage in snapshot["warm_pass"].items()}
    snapshot["tier1_s"], snapshot["tier1_summary"] = tier1()
    Path(args.out).write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

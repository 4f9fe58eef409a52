"""Snapshot of qchardy's measured performance, written as one JSON file.

Run from anywhere, on the checkout this script lives in:

    python3 tools/bench_snapshot.py --out BENCH_1.json

It records
  * the three benchmark workloads (bench/run.py) at --trace 0 and --trace 1,
    each the final JSON object that run prints;
  * the wall time of each experiment at its CLI defaults through cli.run,
    the median of --repeats runs after one warm-up run;
  * per workload, the Beurling-Ahlfors points of one pass through cli.run
    and the line-map evaluations they took, counted by wrapping
    BAExtension.halfplane and BAExtension.line_map;
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("radial_hardy", "disc_carleson", "conformal_control")


def _env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def workload(name, trace, seed, seconds):
    """The final JSON object of one bench/run.py run."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, env=_env(), capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def experiments(repeats):
    """Seconds per experiment at its CLI defaults, through cli.run."""
    sys.path.insert(0, str(SRC))
    from qchardy import cli

    times = {}
    for name in cli.EXPERIMENTS:
        spec = cli.ExperimentSpec(name)
        cli.run(spec)
        runs = []
        for _ in range(repeats):
            start = time.perf_counter()
            cli.run(spec)
            runs.append(time.perf_counter() - start)
        times[f"{name}_{spec.map_spec.replace(':', '')}"] = statistics.median(runs)
    return times


def ba_evaluations():
    """Per workload: BA points, line-map evaluations and evaluations per
    point over one pass of its specs through cli.run."""
    import numpy as np

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    from qchardy import cli
    from qchardy.extension import BAExtension

    counts = {}
    line_map, halfplane = BAExtension.line_map, BAExtension.halfplane

    def counted_line_map(self, x):
        counts["evaluations"] += np.size(x)
        return line_map(self, x)

    def counted_halfplane(self, x, y):
        counts["points"] += np.size(x)
        return halfplane(self, x, y)

    out = {}
    BAExtension.line_map, BAExtension.halfplane = counted_line_map, counted_halfplane
    try:
        for name in WORKLOADS:
            counts.update(points=0, evaluations=0)
            for spec in workloads.WORKLOADS[name]:
                cli.run(cli.ExperimentSpec(spec.experiment, spec.map_spec))
            out[name] = dict(counts, per_point=counts["evaluations"]
                             / max(counts["points"], 1))
    finally:
        BAExtension.line_map, BAExtension.halfplane = line_map, halfplane
    return out


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
    args = parser.parse_args(argv)
    snapshot = {
        "workloads": {f"{name}_trace{trace}": workload(name, trace, args.seed,
                                                       args.seconds)
                      for name in WORKLOADS for trace in (0, 1)},
        "experiments_s": experiments(args.repeats),
        "ba_evaluations": ba_evaluations(),
        "src_lines": src_lines(),
        "machine": machine(),
    }
    snapshot["tier1_s"], snapshot["tier1_summary"] = tier1()
    Path(args.out).write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

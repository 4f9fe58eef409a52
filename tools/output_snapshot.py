"""Write the CSV and JSON reports of a fixed set of experiment runs, so that two
checkouts can be compared byte for byte.

Run from anywhere, on the checkout this script lives in:

    python3 tools/output_snapshot.py OUT_DIR

For each run it writes OUT_DIR/<experiment>_<map>_d<depth>.csv and .json,
with _p<p>, _grid<n> and _aperture<c> appended for the fields a VARIED run
sets: to_csv(), and to_json() without metadata["wall_time_s"], the one field
that differs between reruns, and without metadata["work"], the work counts,
which a checkout that counts work otherwise, or not at all, adds or changes.
A run that raises, in building its spec or in running it, writes .err, the
exception's type and message, instead.
Two checkouts give the same reports exactly when

    diff -r OUT_A OUT_B

prints nothing.  Where a numerical method changes, the reports differ in
their last digits, and

    python3 tools/output_snapshot.py --compare OUT_A OUT_B

prints each file in one directory alone, each classification or pass/fail
that moved, and per quantity, over the rows whose classification did not
move, the largest relative and absolute change of its value and of its
error between the JSON reports, and the largest change of its value over
the row's own error in OLD_DIR, so that a move reads against its error bar
(inf where that error is 0 or NaN).  The set is 118 runs: the 21 SPECS at
--depth 3, 10 and 16, thmA and thm3 on each of BALL_MAPS at the default
depth, 9 of which repeat a SPECS run and are written once, the 15 VARIED
runs and the 16 ERROR_PATHS runs; 109 are written, 218 files where none
raises.  The run list is fixed here, not read from the package, so that the
same script runs on any checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# the 12 benchmark specs, then deeper moduli, a Hoelder map below 1, the
# thm3 and lemma1 runs no workload makes, and thm1's default map
SPECS = (
    ("thm2", "thm2_sqrt"), ("thm1", "power:2"), ("thm1", "thm2_sqrt"),
    ("thmA", "thm2_sqrt"), ("thmA", "power:2"), ("thm3", "thm2_sqrt"),
    ("af_conformal", "moebius:0.5"), ("thm3", "moebius:0.5"),
    ("thmA", "moebius:0.5"), ("lemma1", "moebius:0.5"),
    ("thm1", "moebius:0.99"), ("thmA", "moebius:0.99"),
    ("thm1", "moebius:0.999"), ("thmA", "moebius:0.999"),
    ("thm1", "power:1.05"), ("thmA", "power:1.05"), ("thm2", "power:0.3"),
    ("thm3", "moebius:0.99"), ("thm3", "power:2"), ("lemma1", "thm2_sqrt"),
    ("thm1", "identity"),
)
DEPTHS = (3, 10, 16)
# maps whose ball sweeps (thmA, thm3) are compared at the default depth
BALL_MAPS = ("moebius:0.5", "moebius:-0.5", "moebius:0.9", "moebius:-0.9",
             "moebius:0.99", "moebius:-0.99", "moebius:0.999", "thm2_sqrt",
             "power:2", "power:0.3", "power:0.5", "identity")
# runs at a non-default p, grid or aperture, each on an experiment that reads
# the field, and thm3 on the sharpest cusps whose Luecking sweeps pass, at
# the default depth
VARIED = (
    ("thm2", "thm2_sqrt", {"p": 1.5, "grid": 8, "aperture": 3.0}),
    ("thm2", "power:0.3", {"p": 0.5}),
    ("thm3", "thm2_sqrt", {"p": 3.0, "grid": 8, "aperture": 3.0}),
    ("thm3", "moebius:0.5", {"p": 3.0, "grid": 8, "aperture": 3.0}),
    ("thm3", "moebius:0.5", {"p": 1.5}),
    ("thm3", "moebius:0.5", {"p": 0.1}),
    ("thm3", "power:2", {"grid": 4, "aperture": 1.5}),
    ("lemma1", "thm2_sqrt", {"grid": 8, "aperture": 3.0}),
    ("lemma1", "moebius:0.5", {"grid": 32, "aperture": 1.5}),
    # thm2_agreement where its witnesses agree and are right, agree and are
    # wrong (gamma p = 1), and disagree
    ("thm2", "thm2_sqrt", {"p": 2.0}), ("thm2", "power:0.1", {"p": 10.0}),
    ("thm2", "power:5", {"p": 3.0}),
    # node preimages that round onto the circle, and at p 10 the weight
    # |Dphi|^p (1 - |z|)^(p - 1) that overflowed times underflowed
    ("thm3", "power:0.1", {}), ("thm3", "power:0.1", {"p": 10.0}),
    ("thm3", "power:0.2", {"p": 10.0}),
)
# runs that reach an error path, at the default depth: Newton inversions
# that do not converge and whose Jacobian overflows or whose start window
# underflows, a NaN term, an undetermined boundary tail, values that
# overflow or divide by zero, read as verdicts, and a Moebius map so steep
# at +-pi that its angle map misses pi by more than 1e-12
ERROR_PATHS = (
    ("thmA", "power:0.2", {}),
    ("thm3", "thm2_sqrt", {"p": 200.0}), ("thm3", "thm2_sqrt", {"p": 1000.0}),
    ("thm3", "power:5", {}), ("thm2", "moebius:-0.9", {}),
    ("thm2", "thm2_sqrt", {"p": 50.0}), ("thm2", "thm2_sqrt", {"p": 1000.0}),
    ("thm2", "thm2_sqrt", {"p": 1e300}), ("thm2", "power:50", {}),
    ("lemma1", "power:50", {}), ("thm3", "thm2_sqrt", {"p": 500.0}),
    ("af_conformal", "moebius:-0.9999", {}), ("thm1", "moebius:-0.9999", {}),
    ("thmA", "moebius:-0.9999", {}), ("thmA", "power:0.02", {}),
    ("thmA", "power:0.01", {}),
)


def runs():
    """(experiment, map spec, the spec fields it sets) of every run."""
    out = [(name, spec, {"depth": depth})
           for depth in DEPTHS for name, spec in SPECS]
    return (out + [(name, spec, {}) for spec in BALL_MAPS
                   for name in ("thmA", "thm3")]
            + list(VARIED) + list(ERROR_PATHS))


def write(out_dir):
    sys.path.insert(0, str(SRC))
    from qchardy import cli

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    done = set()
    for name, map_spec, fields in runs():
        depth = fields.get("depth", cli.ExperimentSpec.depth)
        stem = f"{out_dir}/{name}_{map_spec.replace(':', '')}_d{depth}"
        stem += "".join(f"_{key}{value:g}" for key, value in fields.items()
                        if key != "depth")
        if stem in done:  # a ball map run at the default depth of SPECS
            continue
        done.add(stem)
        try:
            report = cli.run(cli.ExperimentSpec(name, map_spec, **fields))
        except Exception as exc:  # noqa: BLE001 - a raising run is an output
            Path(stem + ".err").write_text(f"{type(exc).__name__}: {exc}\n")
            continue
        del report.metadata["wall_time_s"]
        report.metadata.pop("work", None)
        Path(stem + ".csv").write_text(report.to_csv())
        Path(stem + ".json").write_text(report.to_json())


def _change(a, b):
    """(relative, absolute) change from a to b; none between equal values,
    NaN and NaN included."""
    if a == b or math.isnan(a) and math.isnan(b):
        return 0.0, 0.0
    return abs(b - a) / abs(a) if a else math.inf, abs(b - a)


def _per_error(a, b):
    """|change| of a row's value from a to b over a's error."""
    change = _change(a["value"], b["value"])[1]
    return change / a["error"] if change and a["error"] > 0 else (
        math.inf if change else 0.0)


def compare(old_dir, new_dir):
    """Print what moved between two snapshot directories, as the module
    docstring describes."""
    old, new = Path(old_dir), Path(new_dir)
    worst = {}  # quantity -> largest changes of value and error, rel and
    # abs, and of value over error
    alone = {p.name for p in old.iterdir()} ^ {p.name for p in new.iterdir()}
    for name in sorted(alone):
        print(f"only in {old_dir if (old / name).exists() else new_dir}: {name}")
    for path in sorted(old.glob("*.json")):
        if not (new / path.name).exists():
            continue
        a, b = ({r["quantity"]: r for r in json.loads(p.read_text())["rows"]}
                for p in (path, new / path.name))
        for q in [q for q in a if q in b]:
            if a[q]["classification"] != b[q]["classification"]:
                print(f"{path.stem} {q}: {a[q]['classification']} -> "
                      f"{b[q]['classification']}")
                continue  # read on its own line, not as a change of digits
            changes = (*_change(a[q]["value"], b[q]["value"]),
                       *_change(a[q]["error"], b[q]["error"]),
                       _per_error(a[q], b[q]))
            worst[q] = [max(x, y) for x, y in zip(worst.get(q, changes), changes)]
        for q in a.keys() ^ b.keys():
            print(f"{path.stem} {q}: in one report only")
    print("quantity,value_rel,value_abs,error_rel,error_abs,value_per_error")
    for q, changes in sorted(worst.items()):
        print(q + "".join(f",{c:.3g}" for c in changes))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir", nargs="?")
    parser.add_argument("--compare", nargs=2, metavar=("OLD_DIR", "NEW_DIR"))
    args = parser.parse_args(argv)
    if (args.out_dir is None) == (args.compare is None):
        parser.error("give OUT_DIR or --compare OLD_DIR NEW_DIR")
    if args.compare:
        compare(*args.compare)
    else:
        write(args.out_dir)


if __name__ == "__main__":
    main()

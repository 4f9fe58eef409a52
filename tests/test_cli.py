import json
import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from qchardy import boundary
from qchardy import carleson as ca
from qchardy import cli, extension, quadrature
from qchardy import functionals as fn
from qchardy.cli import (
    EXPERIMENTS,
    ExperimentReport,
    ExperimentSpec,
    build_parser,
    main,
    run,
)
from qchardy.extension import BAExtension, DiscQCMap, make_disc_map
from qchardy.functions import compose, hardy_kernel
from qchardy.tail import CONVERGED, DIVERGING, TAIL_CAP, UNDETERMINED, Reading

# bounded (converged) or not (diverging) on H^p: the verdict of thm1
THM1_MAPS = {"identity": CONVERGED, "thm2_sqrt": CONVERGED,
             "power:0.5": CONVERGED, "power:1.05": DIVERGING,
             "power:2": DIVERGING, "moebius:0.5": CONVERGED,
             "moebius:0.99": CONVERGED, "moebius:0.999": CONVERGED}

# the spec fields besides the map that each experiment's runner reads, the
# only ones its command line offers as flags
READS = {"thm1": ("depth",), "thm2": ("p", "grid", "aperture"),
         "thm3": ("p", "depth", "grid", "aperture"), "thmA": ("depth",),
         "lemma1": ("grid", "aperture"), "af_conformal": ()}
# argv with a flag its experiment does not read, and the flag as argparse
# names it: each of the 13 unread fields, then values that ExperimentSpec
# would reject or that _attach_signed_values joins to the flag
UNREAD = [([name, f"--{flag}", "3"], f"--{flag} 3")
          for name, flags in READS.items()
          for flag in ("p", "depth", "grid", "aperture") if flag not in flags]
UNREAD += [(["thmA", "--p", "0"], "--p 0"), (["thm1", "--p", "-1"], "--p=-1"),
           (["af_conformal", "--aperture", "-inf"], "--aperture=-inf")]

# a non-default value of each flag, on a map where it moves the CSV; thm3
# reads its area shells to max(--depth, 12), so --depth 13
FLAG_VALUES = [
    ("thm1", "identity", "depth", 4), ("thm2", "thm2_sqrt", "p", 1.5),
    ("thm2", "thm2_sqrt", "grid", 4), ("thm2", "thm2_sqrt", "aperture", 3.0),
    ("thm3", "moebius:0.5", "p", 3.0), ("thm3", "moebius:0.5", "depth", 13),
    ("thm3", "moebius:0.5", "grid", 4), ("thm3", "moebius:0.5", "aperture", 3.0),
    ("thmA", "moebius:0.5", "depth", 4), ("lemma1", "moebius:0.5", "grid", 4),
    ("lemma1", "moebius:0.5", "aperture", 3.0)]

# argv that ExperimentSpec rejects, each with a part of its usage message
BAD_INPUT = [
    (["thm1", "--map", "power:nan"], "finite"),
    (["thm1", "--map", "moebius:nan"], "finite"),
    (["thm1", "--map", "identity:5"], "no parameter"),
    (["thm2", "--map", "thm2_sqrt:0.3"], "no parameter"),
    (["thm2", "--p", "inf"], "p=inf"),
    (["lemma1", "--aperture", "nan"], "aperture=nan"),
    (["lemma1", "--aperture", "inf"], "aperture=inf"),
    # the map builders' own domain checks
    (["thm1", "--map", "power:0"], "gamma > 0"),
    (["thm1", "--map", "power:-1"], "gamma > 0"),
    (["thm1", "--map", "moebius:1"], "|a| < 1"),
    (["thm1", "--map", "moebius:-1.5"], "|a| < 1"),
    # a parameter that is not a number, named with its map
    (["thm1", "--map", "power:2,"], "'power:2,' has a parameter ''"),
    (["thm1", "--map", "power:abc"], "'power:abc' has a parameter 'abc'"),
    # thm3's kernel (1 - 0.9 z)^(-2/p) overflows at z = 1
    (["thm3", "--p", "0.0064"], "p=0.0064"),
    (["thm3", "--p", "1e-300"], "p=1e-300"),
    # a colon with nothing after it is one empty parameter
    (["thm1", "--map", "identity:"], "'identity:' has a parameter ''"),
    (["thm2", "--map", "thm2_sqrt:"], "'thm2_sqrt:' has a parameter ''"),
    (["thm1", "--map", "power:"], "'power:' has a parameter ''"),
]


def _report():
    rep = ExperimentReport("demo")
    rep.add("alpha", Reading(1.0, 0.01, "converged", "", None, ()))
    rep.check("beta", True, np.pi)
    return rep


class TestReport:
    def test_csv_layout(self):
        text = _report().to_csv()
        lines = text.split("\n")
        assert lines[0] == "quantity,value,error,classification"
        assert len(lines) == 4 and lines[-1] == ""
        assert lines[1] == "alpha,1,0.01,converged"

    def test_json_round_trip(self):
        rep = _report()
        payload = json.loads(rep.to_json())
        assert payload["experiment"] == "demo"
        assert payload["rows"][1]["quantity"] == "beta"
        assert payload["rows"][1]["value"] == pytest.approx(np.pi)

    def test_passed(self):
        rep = _report()
        assert rep.passed()
        rep.check("gamma", False, 0.0)
        assert not rep.passed()

    def test_emit_validation(self, capsys, monkeypatch):
        def run(spec):
            raise AssertionError("the experiment ran before the usage error")

        monkeypatch.setattr(cli, "run", run)
        with pytest.raises(SystemExit) as exc:
            main(["lemma1", "--format", "yaml"])
        assert exc.value.code == 2
        assert "yaml" in capsys.readouterr().err

    def test_emit_writes_exact_bytes(self, capsys, monkeypatch, tmp_path):
        rep = _report()
        monkeypatch.setattr(cli, "run", lambda spec: rep)
        for fmt, expected in (("csv", rep.to_csv()), ("json", rep.to_json())):
            path = tmp_path / f"out.{fmt}"
            assert main(["lemma1", "--format", fmt, "--out", str(path)]) == 0
            assert path.read_bytes() == expected.encode()
            assert capsys.readouterr().out == expected


class TestSpec:
    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            ExperimentSpec(name="thm9")

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ExperimentSpec(name="thm1", p=0.0)
        with pytest.raises(ValueError):
            ExperimentSpec(name="thm1", depth=0)
        with pytest.raises(ValueError):
            ExperimentSpec(name="thm1", aperture=1.0)
        with pytest.raises(ValueError):
            ExperimentSpec(name="thm1", depth=TAIL_CAP + 1)
        assert ExperimentSpec(name="thm1", depth=TAIL_CAP).depth == TAIL_CAP

    @pytest.mark.parametrize("argv, message", BAD_INPUT)
    def test_run_rejects_bad_input(self, argv, message):
        args = build_parser().parse_args(argv)
        with pytest.raises(ValueError, match=re.escape(message)):
            run(ExperimentSpec(args.experiment, args.map, args.p, args.depth,
                               args.grid, args.seed, args.aperture))

    def test_thm3_least_p_is_where_its_kernel_leaves_double_range(self):
        at_one = np.array([1.0 + 0j])
        assert np.isfinite(hardy_kernel(0.9, cli._THM3_MIN_P * 1.001)(at_one))
        with np.errstate(over="ignore"):
            assert np.isinf(hardy_kernel(0.9, cli._THM3_MIN_P * 0.999)(at_one))

    def test_default_map_is_the_cli_default(self):
        parser = build_parser()
        for name in EXPERIMENTS:
            assert ExperimentSpec(name=name).map_spec == parser.parse_args([name]).map
        assert ExperimentSpec(name="af_conformal").map_spec == "moebius:0.5"

    def test_parser_defaults_are_the_spec_defaults(self):
        parser = build_parser()
        for name in EXPERIMENTS:
            args = parser.parse_args([name])
            spec = ExperimentSpec(name)
            assert (args.map, args.p, args.depth, args.grid, args.seed,
                    args.aperture) == (spec.map_spec, spec.p, spec.depth,
                                       spec.grid, spec.seed, spec.aperture)
        assert ExperimentSpec("thm2").p == 1.0

    def test_parser_covers_experiments(self):
        parser = build_parser()
        for name in EXPERIMENTS:
            args = parser.parse_args([name])
            assert args.experiment == name

    def test_parser_rejects_unknown(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["thm9"])

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_help_lists_the_flags_the_runner_reads(self, capsys, name):
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        flags = dict.fromkeys(re.findall(r"--\w+", capsys.readouterr().out))
        assert list(flags) == (["--map"] + [f"--{f}" for f in READS[name]]
                               + ["--seed", "--out", "--format", "--help"])


class TestRun:
    def test_af_conformal_passes(self):
        rep = run(ExperimentSpec(name="af_conformal", map_spec="moebius:0.5"))
        assert rep.passed()
        assert "wall_time_s" in rep.metadata

    def test_af_conformal_passes_on_a_steep_moebius_map(self):
        # moebius:-0.9999 fixes +-pi through its inverse (BoundaryHomeo)
        assert run(ExperimentSpec("af_conformal", "moebius:-0.9999")).passed()

    def test_lemma1_identity_passes(self):
        rep = run(ExperimentSpec(name="lemma1", map_spec="identity", grid=8))
        assert rep.passed()

    def test_csv_deterministic_across_reruns(self):
        spec = ExperimentSpec(name="lemma1", map_spec="thm2_sqrt", grid=8)
        a = run(spec).to_csv()
        b = run(spec).to_csv()
        assert a.encode() == b.encode()

    def test_thm2_passes_at_its_defaults(self):
        assert run(ExperimentSpec("thm2")).passed()

    # thm3 on an exact map runs the same ball sweep in a tenth of the time
    @pytest.mark.parametrize("name, map_spec", [("thmA", "thm2_sqrt"),
                                                ("thm3", "moebius:0.5")])
    def test_ball_masses_ignore_the_seed(self, name, map_spec):
        a = run(ExperimentSpec(name, map_spec, seed=1)).to_csv()
        b = run(ExperimentSpec(name, map_spec, seed=42)).to_csv()
        assert a.encode() == b.encode()

    def test_af_conformal_ignores_the_seed(self):
        a = run(ExperimentSpec("af_conformal", seed=1)).to_csv()
        b = run(ExperimentSpec("af_conformal", seed=42)).to_csv()
        assert a.encode() == b.encode()

    def test_classifications_in_vocabulary(self):
        rep = run(ExperimentSpec(name="af_conformal"))
        allowed = {"converged", "diverging", "undetermined", "pass", "fail"}
        assert {r.classification for r in rep.rows} <= allowed

    def test_af_conformal_rejects_a_non_moebius_map(self):
        with pytest.raises(ValueError, match="thm2_sqrt"):
            run(ExperimentSpec("af_conformal", "thm2_sqrt"))


class TestWorkLedger:
    """metadata["work"]: a run's share of the ledger quadrature.WORK."""

    _BA = {"ba_blocks", "ba_calls", "ba_points", "line_map_points"}
    _NEWTON = {"invert_calls", "invert_jet_points", "invert_jets",
               "invert_lanes"}

    # both run Newton on a BA map; thm3 reads circle means too, thmA none
    @pytest.mark.parametrize("name, map_spec, keys", [
        ("thm3", "thm2_sqrt",
         _BA | _NEWTON | {"circle_panels", "circle_stages", "circles"}),
        ("thmA", "power:2", _BA | _NEWTON)])
    def test_counts_equal_those_of_wrappers(self, monkeypatch, name, map_spec,
                                            keys):
        counts = Counter()
        inside = []  # one entry while an invert call runs

        def counted(method, tally):
            def wrapped(self, *args):
                tally(np.size(args[0]))
                return method(self, *args)
            return wrapped

        def ba_map(n):
            counts["ba_calls"] += 1
            counts["ba_points"] += n

        def newton_jet(n):
            if inside:
                counts["invert_jets"] += 1
                counts["invert_jet_points"] += n

        def ba_jet(n):
            ba_map(n)
            newton_jet(n)

        def blocks(n):  # a map call hands halfplane a block at a time
            counts["ba_blocks"] += 1

        def line_map(n):
            counts["line_map_points"] += n

        invert = extension.invert

        def inverts(phi, w, z0=None):
            counts["invert_calls"] += 1
            counts["invert_lanes"] += np.size(w)
            inside.append(True)
            try:
                return invert(phi, w, z0=z0)
            finally:
                inside.pop()

        circle_means = quadrature.circle_means

        def stages(f, marks, order=16, even=False):
            counts["circle_stages"] += 1
            counts["circles"] += len(marks)

            def panels(theta, circle):
                counts["circle_panels"] += theta.size // order
                return f(theta, circle)
            return circle_means(panels, marks, order, even)

        for cls, method, tally in [
                (BAExtension, "__call__", ba_map), (BAExtension, "jet", ba_jet),
                (DiscQCMap, "jet", newton_jet), (BAExtension, "halfplane", blocks),
                (BAExtension, "line_map", line_map)]:
            monkeypatch.setattr(cls, method, counted(getattr(cls, method), tally))
        for module in (extension, ca):
            monkeypatch.setattr(module, "invert", inverts)
        for module in (quadrature, fn, ca):
            monkeypatch.setattr(module, "circle_means", stages)
        work = run(ExperimentSpec(name, map_spec)).metadata["work"]
        assert list(work) == sorted(work)
        assert work == {key: n for key, n in counts.items() if n}
        assert set(work) == keys

    # thm3 reads its Hardy circles, boundary scales and first 12 area
    # shells in one stage each, moebius(0.99) one more shell; lemma1 maps
    # the cone lattices of all 16 vertices, 8 rays at 12 depths each, in
    # one call
    @pytest.mark.parametrize("name, map_spec, counts", [
        ("thm3", "thm2_sqrt", {"circle_stages": 3}),
        ("thm3", "moebius:0.99", {"circle_stages": 4}),
        ("lemma1", "thm2_sqrt", {"ba_calls": 1, "ba_points": 16 * 96})])
    def test_batched_loops_count_one_stage_or_call(self, name, map_spec,
                                                   counts):
        work = run(ExperimentSpec(name, map_spec)).metadata["work"]
        assert {key: work[key] for key in counts} == counts

    def test_a_spec_counts_the_same_work_wherever_it_runs(self):
        spec = ExperimentSpec("thmA", "power:2")
        first = run(spec).metadata["work"]
        run(ExperimentSpec("thm1", "thm2_sqrt"))
        run(ExperimentSpec("af_conformal"))
        assert run(spec).metadata["work"] == first


class TestBatchBudget:
    def test_one_budget_bounds_every_call(self, monkeypatch):
        # quadrature._NODES_PER_CALL bounds every vectorised call whose size
        # grows with the input: circle-mean integrands, nt_maximal's f and
        # every call of a BA map's line map take at most the budget's nodes,
        # or one item (a circle, a cone depth, a point's 12 nodes), and the
        # output does not depend on it; a ball sweep's node run is one fixed
        # family, whole balls of at most rings 1-10 x 8 angles
        budget = 300
        specs = [ExperimentSpec("thmA", "thm2_sqrt"),
                 ExperimentSpec("thm3", "moebius:0.5")]
        default = [run(spec).to_csv() for spec in specs]
        calls = []  # (kind, nodes, whether the call holds one item)

        circle_means = quadrature.circle_means

        def means(f, marks, order=16, even=False):
            def counted(theta, circle):
                calls.append(("circle_means", theta.size,
                              np.unique(circle).size == 1))
                return f(theta, circle)
            return circle_means(counted, marks, order, even)

        nt_maximal = fn.nt_maximal

        def cones(f, xi, aperture=2.0):
            def counted(z):
                calls.append(("nt_maximal", z.size, z.shape[1] == 17))
                return f(z)
            return nt_maximal(counted, xi, aperture)

        line_map = extension.BAExtension.line_map

        def slices(self, x):
            calls.append(("line_map", x.size, x.size <= 12))
            return line_map(self, x)

        invert = ca.invert

        runs = []  # the shape of each ball sweep's node run

        def ball_runs(phi, w, z0=None):
            if z0 is not None:
                runs.append(np.shape(w))
            return invert(phi, w, z0=z0)

        for module in (quadrature, fn, ca):
            monkeypatch.setattr(module, "circle_means", means)
        monkeypatch.setattr(fn, "nt_maximal", cones)
        monkeypatch.setattr(extension.BAExtension, "line_map", slices)
        monkeypatch.setattr(ca, "invert", ball_runs)
        monkeypatch.setattr(quadrature, "_NODES_PER_CALL", budget)
        assert [run(spec).to_csv() for spec in specs] == default
        assert {kind for kind, _, _ in calls} == {
            "circle_means", "nt_maximal", "line_map"}
        assert [c for c in calls if c[1] > budget and not c[2]] == []
        assert runs and all(shape[0] <= 80
                            and shape[1:] == quadrature.BALL_RULE[0].shape
                            for shape in runs)


class TestVerdicts:
    """Tail verdicts of the experiments, and how the JSON report explains them."""

    @pytest.mark.parametrize("name", ["thm1", "thmA"])
    @pytest.mark.parametrize("map_spec, depth, ring", [("moebius:0.99", 11, 12),
                                                       ("moebius:0.999", 14, 15)])
    def test_moebius_maps_are_bounded(self, capsys, name, map_spec, depth, ring):
        # a disc automorphism: every tail converges once the verdict reads
        # past the map's length scale 1 - a
        assert main([name, "--map", map_spec, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {r["classification"] for r in payload["rows"]} == {"converged",
                                                                   "pass"}
        verdicts = payload["metadata"]["verdicts"]
        assert verdicts["lipschitz_modulus"]["at"] == depth
        assert "inside (-1, 1)" in verdicts["lipschitz_modulus"]["reason"]
        if name == "thmA":
            assert verdicts["bergman_constant"]["at"] == ring
        rows = {r["quantity"]: r["value"] for r in payload["rows"]}
        if map_spec == "moebius:0.99":
            # the row keeps the --depth 10 value; only the verdict reads deeper
            assert rows["lipschitz_modulus"] == 193.1430183343716

    @pytest.mark.parametrize("map_spec, sweeps", [("moebius:0.99", 11),
                                                  ("moebius:0.999", 14)])
    def test_deeper_lipschitz_depths_are_computed_once(self, monkeypatch,
                                                        map_spec, sweeps):
        # one dyadic sweep per depth read: 1..10, then one more per step
        calls = []
        edges = boundary.dyadic_edges

        def counted(depth):
            calls.append(depth)
            return edges(depth)

        monkeypatch.setattr(boundary, "dyadic_edges", counted)
        rep = run(ExperimentSpec("thm1", map_spec))
        assert calls == list(range(1, sweeps + 1))
        assert rep.metadata["verdicts"]["lipschitz_modulus"]["at"] == sweeps

    def test_moebius_area_integral_reads_one_more_shell(self):
        rep = run(ExperimentSpec("thm3", "moebius:0.99"))
        assert rep.passed()
        row = {r.quantity: r for r in rep.rows}["area_integral_df"]
        why = rep.metadata["verdicts"]["area_integral_df"]
        assert row.classification == "converged"
        assert why["at"] == 13 and "inside (-1, 1)" in why["reason"]
        # the row keeps the 12-shell value; only the verdict reads deeper
        assert row.value == fn.area_integral(
            compose(hardy_kernel(0.9, 2.0), make_disc_map("moebius:0.99")),
            2.0, k_max=12).value

    def test_power_105_is_unbounded(self):
        rep = run(ExperimentSpec("thm1", "power:1.05"))
        rows = {r.quantity: r.classification for r in rep.rows}
        assert rows == {"proxy_sup": "diverging", "lipschitz_modulus": "diverging",
                        "thm1_agreement": "pass"}

    @pytest.mark.parametrize("map_spec", sorted(THM1_MAPS))
    @pytest.mark.parametrize("depth", [10, 2])
    def test_thm1_kernel_test_agrees_with_lipschitz(self, map_spec, depth):
        rep = run(ExperimentSpec("thm1", map_spec, depth=depth))
        verdict = THM1_MAPS[map_spec]
        rows = {r.quantity: r.classification for r in rep.rows}
        assert rows == {"proxy_sup": verdict, "lipschitz_modulus": verdict,
                        "thm1_agreement": "pass"}
        # at --depth 2 the tail is too short to classify, so it reads on
        at = rep.metadata["verdicts"]["proxy_sup"]["at"]
        assert at == 10 if depth == 10 else at > 2

    def test_thm1_evaluates_no_interior_point(self, capsys, monkeypatch):
        calls = []
        for name in ("__call__", "jet"):
            def counting(self, z, original=getattr(BAExtension, name), name=name):
                calls.append(name)
                return original(self, z)
            monkeypatch.setattr(BAExtension, name, counting)
        assert main(["thm1", "--map", "power:2"]) == 0
        assert calls == []
        make_disc_map("power:2").jet(np.array([0.5j]))
        assert calls == ["jet"]

    @pytest.mark.parametrize("name, ball_rows", [
        ("thmA", ("bergman_constant", "bergman_ring_growth")),
        ("thm3", ("luecking_stabilized",))])
    def test_newton_failure_is_an_undetermined_sweep(self, monkeypatch, name,
                                                     ball_rows):
        message = "invert(moebius(0.5), 0.5) did not converge (residual 1.00e+00)"

        def fail(*args, **kwargs):
            raise RuntimeError(message)

        monkeypatch.setattr(ca, "invert", fail)
        rep = run(ExperimentSpec(name, "moebius:0.5"))
        rows = {r.quantity: r for r in rep.rows}
        for quantity in ball_rows:
            assert np.isnan(rows[quantity].value)
            assert rep.metadata["verdicts"][quantity] == {"reason": message,
                                                          "at": 10}
        if name == "thmA":
            assert rows["bergman_constant"].classification == UNDETERMINED
            # the claim names the sweep as its missing evidence
            why = rep.metadata["verdicts"]["thmA_agreement"]
            assert why["at"] is None
            assert why["reason"].startswith(
                f"bergman_constant undetermined at nan: {message}; "
                "lipschitz_modulus ")
        # an undetermined sweep passes no claim
        assert not rep.passed()

    def test_short_hardy_schedule_reads_no_radial_limit(self, capsys,
                                                         monkeypatch):
        # a Hardy norm whose means raised at k = 6 holds no mean at
        # r = 1 - 2^-20, and the composite that raised is not evaluated again
        reason = "RuntimeError at k = 6: no convergence"
        short = Reading(np.nan, np.nan, UNDETERMINED, reason, 5,
                        tuple((1.0, 0.0, r) for r in fn.radial_schedule(5)))

        def fail(*args):
            raise RuntimeError("integral_mean called")

        monkeypatch.setattr(fn, "hardy_norm", lambda f, p: short)
        monkeypatch.setattr(fn, "integral_mean", fail)
        code = main(["thm3", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        rows = {r["quantity"]: r for r in payload["rows"]}
        assert code == 1
        assert rows["boundary_vs_radial_limit"]["classification"] == "fail"
        assert np.isnan(rows["boundary_vs_radial_limit"]["value"])
        assert payload["metadata"]["verdicts"]["hardy_norm_composite"] == {
            "reason": short.reason, "at": 5}

    def test_claims_name_an_undetermined_boundary_tail(self):
        # the boundary means of power:5 have no tail verdict, so the boundary
        # norm is NaN and both boundary claims fail on it
        rep = run(ExperimentSpec("thm3", "power:5"))
        rows = {r.quantity: r.classification for r in rep.rows}
        assert rows["boundary_vs_radial_limit"] == rows[
            "maximal_dominates_boundary"] == "fail"
        verdicts = rep.metadata["verdicts"]
        limit = verdicts["boundary_vs_radial_limit"]
        assert limit["at"] == 11
        assert limit["reason"].startswith("rho ")
        dominates = verdicts["maximal_dominates_boundary"]
        assert dominates["at"] is None
        assert dominates["reason"].startswith(
            "maximal_lp converged; boundary_lp undetermined at nan: rho ")

    def test_an_aperture_past_double_range_reads_undetermined(self):
        # power:50's cone images round onto the circle in doubles, so the
        # apertures have no distance to divide by and are NaN: undetermined,
        # by the rule for a value read without a tail, and with no entry in
        # metadata["verdicts"]
        rep = run(ExperimentSpec("lemma1", "power:50"))
        rows = {r.quantity: r for r in rep.rows}
        for quantity in ("aperture_max", "aperture_median"):
            assert np.isnan(rows[quantity].value)
            assert rows[quantity].classification == UNDETERMINED
        assert rows["lemma1_comparable"].classification == "fail"
        assert "verdicts" not in rep.metadata

    @pytest.mark.parametrize("name, quantity", [
        ("thm2", "maximal_lp_composite"), ("thm3", "maximal_dominates_boundary")])
    def test_a_nan_maximal_norm_reads_undetermined(self, monkeypatch, name,
                                                    quantity):
        # thm2 and thm3 read the maximal norm by one rule: NaN is no
        # evidence, and the claim that compares it cites it as missing
        monkeypatch.setattr(fn, "maximal_lps",
                            lambda f, p, aperture, grids: [np.nan] * len(grids))
        rep = run(ExperimentSpec(name, "thm2_sqrt"))
        rows = {r.quantity: r.classification for r in rep.rows}
        if name == "thm2":
            assert rows[quantity] == UNDETERMINED
        else:
            assert rows[quantity] == "fail"
            assert rep.metadata["verdicts"][quantity] == {
                "reason": "maximal_lp undetermined at nan: read without a "
                          "tail; boundary_lp converged", "at": None}

    @pytest.mark.parametrize("name", ["thm1", "thmA"])
    def test_decided_agreement_lists_its_inputs(self, name):
        rep = run(ExperimentSpec(name, "thm2_sqrt"))
        first = "proxy_sup" if name == "thm1" else "bergman_constant"
        assert rep.metadata["verdicts"][f"{name}_agreement"] == {
            "reason": f"{first} converged; lipschitz_modulus converged",
            "at": None}

    def test_newton_failure_past_ring_10_keeps_the_sweep(self):
        mu = ca.DiscPushforward(make_disc_map("moebius:0.99"))

        def tester(mu, family):
            if family[0][0] > 10:
                raise RuntimeError("no convergence")
            return ca.bergman_carleson_constant(mu, family)

        rings = ca.ring_sweep(tester, mu)
        assert (rings.classification, rings.reason, rings.at) == (
            UNDETERMINED, "no convergence", 11)
        # a symmetric symbol's sweep holds the balls at angles 0 to pi
        sweep = ca.bergman_carleson_constant(
            mu, [(k, ball) for k, ball in ca.make_ball_family(range(1, 11), 8)
                 if ball.center.imag >= 0])
        assert rings.samples[0][2] == sweep
        assert (rings.value, rings.error) == (sweep.sup, sweep.error_max)

    def test_power2_fails_the_luecking_test(self):
        rep = run(ExperimentSpec("thm3", "power:2"))
        rows = {r.quantity: r.classification for r in rep.rows}
        assert rows["luecking_stabilized"] == "fail" and not rep.passed()
        why = rep.metadata["verdicts"]["luecking_stabilized"]
        assert why["at"] == 10 and why["reason"].startswith("rho 1.4")

    @pytest.mark.parametrize("map_spec", ["thm2_sqrt", "power:2"])
    def test_ba_maps_decide_at_depth_and_ring_10(self, map_spec):
        rep = run(ExperimentSpec("thmA", map_spec))
        verdicts = rep.metadata["verdicts"]
        assert verdicts["bergman_constant"]["at"] == 10
        assert verdicts["lipschitz_modulus"]["at"] == 10

    def test_thm2_reasons(self):
        rep = run(ExperimentSpec("thm2"))
        verdicts = rep.metadata["verdicts"]
        assert set(verdicts) == {"hardy_norm_g", "hardy_norm_composite",
                                 "boundary_lp_composite", "thm2_agreement"}
        assert verdicts["hardy_norm_g"]["at"] == 24
        assert "Aitken" in verdicts["hardy_norm_g"]["reason"]
        assert verdicts["boundary_lp_composite"] == {
            "reason": "rho 0.3162278, 0.3162278, 0.3162278 inside (-1, 1)",
            "at": 11}
        # the claim names the composite's two witnesses and their verdicts
        assert verdicts["thm2_agreement"] == {
            "reason": "hardy_norm_composite converged; "
                      "boundary_lp_composite converged", "at": None}
        assert json.loads(rep.to_json())["metadata"]["verdicts"] == verdicts

    @pytest.mark.parametrize("name, quantity", [
        ("thm2", "boundary_lp_composite"), ("thm3", "boundary_vs_radial_limit")])
    def test_boundary_row_carries_the_reason_boundary_lp_gives(
            self, monkeypatch, name, quantity):
        boundary_lp = fn.boundary_lp

        def stub(f, p):
            return replace(boundary_lp(f, p), reason="stub reason")

        monkeypatch.setattr(fn, "boundary_lp", stub)
        rep = run(ExperimentSpec(name, "moebius:0.5"))
        assert rep.metadata["verdicts"][quantity] == {"reason": "stub reason",
                                                      "at": 11}

    def test_power50_composite_norms_read_undetermined(self):
        # phi rounds onto the Cauchy kernel's pole: the composite reads NaN
        # there, which is no growth, so neither norm diverges
        rep = run(ExperimentSpec("thm2", "power:50"))
        rows = {r.quantity: r for r in rep.rows}
        for quantity in ("hardy_norm_composite", "boundary_lp_composite"):
            assert rows[quantity].classification == UNDETERMINED
            assert np.isnan(rows[quantity].value)
            assert rep.metadata["verdicts"][quantity]["reason"] == "NaN term"

    @pytest.mark.parametrize("p", [0.05, 0.1])
    def test_grid_stability_compares_means_of_the_maximal_function(self, p):
        # |k_w|^p = |1 - conj(w) z|^-2, so the grids' means of M^p, and the
        # claim's value, do not depend on p; their p-th roots drift apart
        # like 1/p as p shrinks
        def stability(p):
            rep = run(ExperimentSpec("thm3", "moebius:0.5", p=p))
            return next(r for r in rep.rows
                        if r.quantity == "maximal_lp_grid_stability")

        row = stability(p)
        assert row.classification == "pass"
        assert row.value == pytest.approx(stability(2.0).value, rel=1e-9)


class TestMain:
    def test_exit_zero_and_output(self, capsys, tmp_path):
        out = tmp_path / "rep.csv"
        code = main(["lemma1", "--map", "identity", "--grid", "4",
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("quantity,value,error,classification")
        assert out.read_text() == captured.out

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_out_file_bytes_equal_stdout(self, capsys, tmp_path, fmt):
        out = tmp_path / f"rep.{fmt}"
        main(["lemma1", "--map", "identity", "--grid", "4", "--format", fmt,
              "--out", str(out)])
        assert out.read_bytes() == capsys.readouterr().out.encode()

    def test_json_output(self, capsys):
        code = main(["lemma1", "--map", "identity", "--grid", "4",
                     "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["experiment"] == "lemma1"
        assert payload["metadata"]["spec"]["map"] == "identity"

    @pytest.mark.parametrize("name, map_spec, flag, value", FLAG_VALUES)
    def test_each_flag_reaches_the_spec(self, capsys, name, map_spec, flag,
                                        value):
        code = main([name, "--map", map_spec, f"--{flag}", str(value)])
        report = run(ExperimentSpec(name, map_spec, **{flag: value}))
        assert capsys.readouterr().out == report.to_csv()
        assert code == (0 if report.passed() else 1)
        assert report.to_csv() != run(ExperimentSpec(name, map_spec)).to_csv()

    @pytest.mark.parametrize("p, reason", [
        ("200", "ring 4: a mass is NaN, |Dphi|^p overflowing where "
                "(1 - |z|)^(p - 1) underflows"),
        ("1000", "ring 1: r_B^(1 + p) underflows to 0"),
        ("1e300", "ring 1: r_B^(1 + p) underflows to 0")])
    def test_large_p_reads_the_luecking_sweep_undetermined(self, capsys, p,
                                                           reason):
        # the sweep once died on a ring whose ratios were all NaN (KeyError)
        # or on no ring at all (ValueError); the overflows it reads as
        # verdicts raise no numpy warning
        code = main(["thm3", "--p", p, "--format", "json"])
        out, err = capsys.readouterr()
        assert err == ""
        payload = json.loads(out)
        rows = {r["quantity"]: r for r in payload["rows"]}
        assert code == 1
        assert rows["luecking_stabilized"]["classification"] == "fail"
        assert np.isnan(rows["luecking_stabilized"]["value"])
        assert payload["metadata"]["verdicts"]["luecking_stabilized"] == {
            "reason": reason, "at": 10}
        # an area shell is NaN: at p = 1000 inf |Df|^p times a weight that
        # underflows to 0, at 200 and 1e300 a sum that underflows to 0.  No
        # evidence either way, and no later shell can decide it, so the
        # reading stops at the first batch of 12 shells
        assert rows["area_integral_df"]["classification"] == UNDETERMINED
        assert np.isnan(rows["area_integral_df"]["value"])
        # and so is its error: an undetermined NaN carries no error of 0
        assert np.isnan(rows["area_integral_df"]["error"])
        assert payload["metadata"]["verdicts"]["area_integral_df"] == {
            "reason": "NaN term", "at": 12}


    def test_newton_overflow_prints_no_warning(self, capsys):
        # power:50's Newton steps overflow on lanes that then fail
        code = main(["thmA", "--map", "power:50", "--format", "json"])
        out, err = capsys.readouterr()
        assert (code, err) == (1, "")
        why = json.loads(out)["metadata"]["verdicts"]["bergman_constant"]
        assert "ba[power(50)]" in why["reason"]
        assert "did not converge" in why["reason"]

    @pytest.mark.parametrize("argv", [
        ["thm2", "--p", "50"], ["thm2", "--p", "1000"], ["thm2", "--p", "1e300"],
        ["thm2", "--map", "power:50"], ["lemma1", "--map", "power:50"],
        ["thm3", "--p", "500"]], ids=" ".join)
    def test_values_past_double_range_print_no_warning(self, capsys, argv):
        # overflows and divisions by zero that a verdict already reads:
        # |f|^p and its means' error estimates, the maximal function's
        # power, the Cauchy kernel and cone apertures at a symbol that
        # rounds to the circle, and ball ratios past double range
        main(argv)
        assert capsys.readouterr().err == ""

    def test_thm3_runs_clean_just_above_its_least_p(self, capsys):
        main(["thm3", "--p", "0.0066", "--format", "json"])
        out, err = capsys.readouterr()
        assert err == ""
        rows = {r["quantity"]: r for r in json.loads(out)["rows"]}
        assert rows["hardy_norm_composite"]["classification"] == CONVERGED


class TestUsageErrors:
    """Bad input ends in a usage error: exit 2 and a message on stderr,
    before any experiment runs."""

    @pytest.fixture(autouse=True)
    def _no_run(self, monkeypatch):
        def run(spec):
            raise AssertionError("the experiment ran before the usage error")

        monkeypatch.setattr(cli, "run", run)

    def _usage_error(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and message in err

    def test_moebius_without_parameter(self, capsys):
        self._usage_error(capsys, ["thm1", "--map", "moebius"], "one parameter")

    def test_unknown_map(self, capsys):
        self._usage_error(capsys, ["thm1", "--map", "nosuchmap"], "nosuchmap")

    def test_depth_beyond_double_precision(self, capsys):
        # depths from TAIL_CAP + 1 up: 52 would still give a radius below 1.0
        # in doubles, but ask for a 2^53-double array of dyadic edges
        for depth in (TAIL_CAP + 1, 52, 53):
            self._usage_error(capsys, ["thm1", "--depth", str(depth)],
                              f"depth={depth}")

    @pytest.mark.parametrize("argv, message", BAD_INPUT)
    def test_bad_input(self, capsys, argv, message):
        self._usage_error(capsys, argv, message)

    @pytest.mark.parametrize("argv, message", [
        (["thm2", "--p", "-inf"], "p=-inf"),
        (["thm2", "--p", "-1e-3"], "p=-0.001"),
        (["lemma1", "--aperture", "-inf"], "aperture=-inf"),
        (["lemma1", "--aperture", "-1e-3"], "aperture=-0.001"),
    ])
    def test_value_starting_with_a_dash_is_named(self, capsys, argv, message):
        # argparse takes -inf or -1e-3 after --p for an option, not a value;
        # the usage error names the value as it does for --p=-inf
        self._usage_error(capsys, argv, message)
        self._usage_error(capsys, argv[:-2] + ["=".join(argv[-2:])], message)

    def test_af_conformal_rejects_a_non_moebius_map(self, capsys):
        self._usage_error(capsys, ["af_conformal", "--map", "power:2"],
                          "power:2")

    @pytest.mark.parametrize("argv, flag", UNREAD)
    def test_a_flag_the_runner_does_not_read_is_unrecognized(self, capsys,
                                                             argv, flag):
        # refused by name, whatever its value, even one ExperimentSpec
        # would reject
        self._usage_error(capsys, argv, f"unrecognized arguments: {flag}")

    def test_unwritable_out_path(self, capsys, tmp_path):
        path = tmp_path / "nodir" / "out.csv"
        self._usage_error(capsys, ["lemma1", "--out", str(path)], str(path))

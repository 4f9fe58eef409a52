import json

import numpy as np
import pytest

from qchardy import cli
from qchardy import functionals as fn
from qchardy.cli import (
    EXPERIMENTS,
    ExperimentReport,
    ExperimentSpec,
    build_parser,
    main,
    run,
)
from qchardy.extension import make_disc_map
from qchardy.functions import compose, hardy_kernel


def _report():
    rep = ExperimentReport("demo")
    rep.add("alpha", 1.0, 0.01, "converged")
    rep.add("beta", np.pi, 0.0, "pass")
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


class TestRun:
    def test_af_conformal_passes(self):
        rep = run(ExperimentSpec(name="af_conformal", map_spec="moebius:0.5"))
        assert rep.passed()
        assert "wall_time_s" in rep.metadata

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

    def test_classifications_in_vocabulary(self):
        rep = run(ExperimentSpec(name="af_conformal"))
        allowed = {"converged", "diverging", "undetermined", "pass", "fail"}
        assert {r.classification for r in rep.rows} <= allowed

    def test_af_conformal_rejects_a_non_moebius_map(self):
        with pytest.raises(ValueError, match="thm2_sqrt"):
            run(ExperimentSpec("af_conformal", "thm2_sqrt"))


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
                                 "boundary_lp_composite"}
        assert verdicts["hardy_norm_g"]["at"] == 24
        assert "Aitken" in verdicts["hardy_norm_g"]["reason"]
        assert verdicts["boundary_lp_composite"]["at"] == 11
        assert json.loads(rep.to_json())["metadata"]["verdicts"] == verdicts


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


class TestUsageErrors:
    """Bad input ends in a usage error: exit 2 and a message on stderr."""

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
        depth = 1
        while 1.0 - 2.0 ** -depth < 1.0:
            depth += 1
        assert build_parser().parse_args(
            ["thm1", "--depth", str(depth - 1)]).depth == depth - 1
        self._usage_error(capsys, ["thm1", "--depth", str(depth)], "--depth")

    def test_af_conformal_rejects_a_non_moebius_map(self, capsys):
        self._usage_error(capsys, ["af_conformal", "--map", "power:2"],
                          "power:2")

    def test_unwritable_out_path(self, capsys, monkeypatch, tmp_path):
        def run(spec):
            raise AssertionError("the experiment ran before the usage error")

        monkeypatch.setattr(cli, "run", run)
        path = tmp_path / "nodir" / "out.csv"
        self._usage_error(capsys, ["lemma1", "--out", str(path)], str(path))

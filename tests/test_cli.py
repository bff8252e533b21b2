import json
import math
import os

import pytest

from qruler import cli
from qruler.acceptance import CriterionResult


def run_cli(args):
    return cli.main(args)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestWkCommand:
    def test_artifacts_and_product(self, tmp_path):
        out = tmp_path / "wk"
        code = run_cli([
            "wk", "--probe", "gaussian:sigma=1", "--ruler", "gaussian:dphi=0.5",
            "--out", str(out),
        ])
        assert code == 0
        names = sorted(os.listdir(out))
        assert names == [
            "coherence.csv", "manifest.json", "probe_state.csv",
            "statistics.csv", "summary.json",
        ]
        summary = read_json(out / "summary.json")
        assert summary["wk_product"] == pytest.approx(math.sqrt(math.pi), abs=1e-6)
        assert summary["delta2_lambda"] == pytest.approx(0.5, rel=1e-8)
        manifest = read_json(out / "manifest.json")
        assert manifest["command"] == "wk"
        assert "config_digest" in manifest
        assert "manifest.json" not in manifest["outputs"]

    def test_sg_probe(self, tmp_path):
        out = tmp_path / "wksg"
        assert run_cli(["wk", "--probe", "sg:xi=0.9", "--ruler", "ideal", "--out", str(out)]) == 0
        summary = read_json(out / "summary.json")
        assert summary["delta2_lambda"] == pytest.approx(
            math.pi * (0.19 / 1.81) ** 2, rel=1e-8
        )

    def test_csv_format_skips_json(self, tmp_path):
        out = tmp_path / "csvonly"
        run_cli([
            "wk", "--probe", "gaussian:sigma=1", "--ruler", "ideal",
            "--out", str(out), "--format", "csv",
        ])
        names = sorted(os.listdir(out))
        assert "summary.json" not in names
        assert "statistics.csv" in names

    def test_custom_grid(self, tmp_path):
        out = tmp_path / "grid"
        code = run_cli([
            "wk", "--probe", "gaussian:sigma=1", "--ruler", "ideal",
            "--grid", "gmin=-10,gmax=10,n=256", "--out", str(out),
        ])
        assert code == 0
        lines = (out / "probe_state.csv").read_text().splitlines()
        assert len(lines) == 257

    def test_too_narrow_grid_is_domain_error(self, tmp_path):
        code = run_cli([
            "wk", "--probe", "gaussian:sigma=2", "--ruler", "ideal",
            "--grid", "gmin=-4,gmax=4,n=128", "--out", str(tmp_path / "x"),
        ])
        assert code == 3


class TestOptimizeCommand:
    def test_nonlinear_optimum(self, tmp_path):
        out = tmp_path / "opt"
        assert run_cli([
            "optimize", "--objective", "nonlinear", "--budget", "4", "--out", str(out),
        ]) == 0
        payload = read_json(out / "optimum.json")
        assert payload["split"] == 0.75
        assert payload["ratio_to_qfi"] == 0.375

    def test_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep"
        run_cli([
            "optimize", "--objective", "linear", "--budget", "8",
            "--sweep-samples", "33", "--out", str(out),
        ])
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "split,value"
        assert len(lines) == 34


class TestValidateRulerCommand:
    def test_all_pass_report(self, tmp_path):
        out = tmp_path / "vr"
        assert run_cli(["validate-ruler", "--ruler", "gaussian:dphi=1", "--out", str(out)]) == 0
        report = read_json(out / "ruler_report.json")
        assert report["all_pass"] is True
        assert report["diagonal_residual"] < 1e-10


class TestFisherCommand:
    def test_rotation_scenario(self, tmp_path):
        out = tmp_path / "fcs"
        assert run_cli([
            "fisher", "--scenario", "phase-cs", "--vxs", "0.2", "--vxm", "0.5",
            "--out", str(out),
        ]) == 0
        payload = read_json(out / "fisher.json")
        assert payload["closed_form"]["fisher"] == pytest.approx(0.9, abs=1e-12)
        assert payload["agreement_rel"] < 1e-3


class TestScenarioCommand:
    def test_linear_distributions(self, tmp_path):
        out = tmp_path / "sc"
        assert run_cli([
            "scenario", "--scenario", "linear", "--dxs", "0.5", "--dxm", "0.5",
            "--lambdas", "0,1.7", "--out", str(out),
        ]) == 0
        summary = read_json(out / "summary.json")
        assert len(summary["distributions"]) == 2
        assert summary["distributions"][1]["mean"] == pytest.approx(1.7, abs=1e-9)
        assert summary["wk_product"] == pytest.approx(math.sqrt(math.pi), abs=1e-6)

    def test_joint_distribution_csv(self, tmp_path):
        out = tmp_path / "joint"
        assert run_cli([
            "scenario", "--scenario", "nonlinear", "--vxs", "0.25", "--vxm", "0.25",
            "--lambdas", "0", "--out", str(out),
        ]) == 0
        lines = (out / "distribution_000.csv").read_text().splitlines()
        assert lines[0] == "m,k,p"
        assert len(lines) == 256 * 256 + 1
        summary = read_json(out / "summary.json")
        assert summary["distributions"][0]["mass"] == pytest.approx(1.0, abs=1e-9)

    def test_domain_error_exit_code(self, tmp_path):
        code = run_cli([
            "scenario", "--scenario", "phase", "--nmean", "10", "--dns", "5",
            "--out", str(tmp_path / "bad"),
        ])
        assert code == 3


class TestConfigHandling:
    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"objective": "linear", "budget": 8.0}))
        out = tmp_path / "opt"
        assert run_cli(["optimize", "--config", str(cfg), "--out", str(out)]) == 0
        assert read_json(out / "optimum.json")["delta2_lambda"] == pytest.approx(0.5)

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"objective": "linear", "budget": 8.0}))
        out = tmp_path / "opt"
        run_cli(["optimize", "--config", str(cfg), "--budget", "2", "--out", str(out)])
        assert read_json(out / "optimum.json")["budget"] == 2.0

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"objective": "linear", "budget": 8.0, "bogus": 1}))
        assert run_cli(["optimize", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    def test_missing_required_parameter(self, tmp_path):
        assert run_cli(["optimize", "--budget", "4", "--out", str(tmp_path / "x")]) == 2

    def test_bad_minispec(self, tmp_path):
        assert run_cli([
            "wk", "--probe", "gaussian:sigma=1", "--ruler", "warped:q=1",
            "--out", str(tmp_path / "x"),
        ]) == 2

    def test_config_values_are_validated(self, tmp_path):
        # argparse choices do not guard values arriving through --config
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"objective": "banana", "budget": 4.0}))
        assert run_cli(["optimize", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 2
        cfg.write_text(json.dumps({"scenario": "bogus", "xi": 0.5}))
        assert run_cli(["fisher", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 2
        cfg.write_text(json.dumps({"objective": "linear", "budget": 4.0, "format": "yaml"}))
        assert run_cli(["optimize", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 2

    def test_outdir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        assert run_cli(["optimize", "--objective", "linear", "--budget", "4"]) == 0
        assert (tmp_path / "envout" / "optimum.json").exists()


class TestNonFiniteValues:
    """inf and nan are config errors (exit 2) at every entry point."""

    def test_float_flag(self, tmp_path):
        assert run_cli([
            "fisher", "--scenario", "linear", "--dxs", "nan", "--dxm", "0.5",
            "--out", str(tmp_path / "x"),
        ]) == 2

    def test_budget(self, tmp_path):
        assert run_cli([
            "optimize", "--objective", "linear", "--budget", "inf", "--out", str(tmp_path / "x"),
        ]) == 2

    def test_lambdas(self, tmp_path):
        assert run_cli([
            "scenario", "--scenario", "linear", "--dxs", "0.5", "--dxm", "0.5",
            "--lambdas", "0,nan", "--out", str(tmp_path / "x"),
        ]) == 2

    def test_minispec_value(self, tmp_path):
        assert run_cli([
            "wk", "--probe", "gaussian:sigma=1", "--ruler", "gaussian:dphi=nan",
            "--out", str(tmp_path / "x"),
        ]) == 2

    def test_config_file_value(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"objective": "linear", "budget": math.inf}))
        assert run_cli(["optimize", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        out = tmp_path / "det"
        args = [
            "scenario", "--scenario", "sg", "--xi", "0.5",
            "--lambdas", "0,0.4", "--out", str(out),
        ]
        assert run_cli(args) == 0
        first = {n: (out / n).read_bytes() for n in os.listdir(out)}
        assert run_cli(args) == 0
        second = {n: (out / n).read_bytes() for n in os.listdir(out)}
        assert first == second


class TestAcceptanceCommand:
    def test_single_criterion(self, tmp_path, capsys):
        out = tmp_path / "acc"
        assert run_cli(["acceptance", "--only", "5", "--out", str(out)]) == 0
        assert "criterion 5" in capsys.readouterr().out
        report = read_json(out / "acceptance.json")
        assert report["all_pass"] is True

    def test_unknown_criterion_number(self, tmp_path):
        assert run_cli(["acceptance", "--only", "99", "--out", str(tmp_path / "x")]) == 2

    def test_only_runs_no_other_criterion(self, tmp_path, monkeypatch):
        def refuse():
            raise AssertionError("--only must not run the whole suite")

        monkeypatch.setattr(cli, "run_all", refuse)
        assert run_cli(["acceptance", "--only", "9", "--out", str(tmp_path / "acc")]) == 0
        assert run_cli(["acceptance", "--only", "0", "--out", str(tmp_path / "x")]) == 2

    def test_failure_exit_code(self, tmp_path, monkeypatch):
        fake = [CriterionResult(index=1, name="fake", passed=False, checks=["FAIL: x"])]
        monkeypatch.setattr(cli, "run_all", lambda: fake)
        assert run_cli(["acceptance", "--out", str(tmp_path / "acc")]) == 4

import dataclasses
import json
import math
import os
import warnings

import numpy as np
import pytest
import scipy.fft

from qruler import cli, scenarios
from qruler.acceptance import CriterionResult
from qruler.errors import GridTooNarrow
from qruler.fisher import FisherReport
from qruler.scenarios import SCENARIOS


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

    def test_grid_point_count_must_be_an_integer(self, tmp_path):
        out = tmp_path / "x"
        assert run_cli([
            "wk", "--probe", "gaussian:sigma=1", "--ruler", "ideal",
            "--grid", "gmin=-10,gmax=10,n=256.9", "--out", str(out),
        ]) == 2
        assert not (out / "probe_state.csv").exists()

    def test_too_narrow_grid_is_domain_error(self, tmp_path):
        code = run_cli([
            "wk", "--probe", "gaussian:sigma=2", "--ruler", "ideal",
            "--grid", "gmin=-4,gmax=4,n=128", "--out", str(tmp_path / "x"),
        ])
        assert code == 3


class TestWkProbeSpec:
    """Every probe takes the generic route: ruler on probe.grid, Gamma, statistics."""

    def test_sg_nmax_sets_the_truncation(self, tmp_path):
        out = tmp_path / "nmax"
        assert run_cli([
            "wk", "--probe", "sg:xi=0.9,nmax=200", "--ruler", "ideal", "--out", str(out),
        ]) == 0
        assert len((out / "probe_state.csv").read_text().splitlines()) == 1 + 201

    def test_sg_nmax_too_short_for_xi_is_domain_error(self, tmp_path):
        # n_max=50 is below the sg grid floor of 64: InvalidGrid, not raised to 64
        assert run_cli([
            "wk", "--probe", "sg:xi=0.9,nmax=50", "--ruler", "ideal",
            "--out", str(tmp_path / "x"),
        ]) == 3

    @pytest.mark.parametrize("args", (["fisher", "--scenario", "sg", "--xi", "0.99999999"],
                                      ["wk", "--probe", "sg:xi=0.5,nmax=1e9", "--ruler", "ideal"]),
                             ids=("fisher-xi", "wk-nmax"))
    def test_sg_lattice_above_the_ceiling_exits_3(self, args, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(np, "arange", lambda *a, **kw: pytest.fail("the lattice was allocated"))
        assert run_cli([*args, "--out", str(tmp_path / "x")]) == 3
        assert "above MAX_LATTICE_POINTS" in capsys.readouterr().err

    def test_sg_nmax_below_the_floor_is_domain_error(self, tmp_path):
        out = tmp_path / "x"
        assert run_cli([
            "wk", "--probe", "sg:xi=0.5,nmax=5", "--ruler", "ideal", "--out", str(out),
        ]) == 3
        assert not (out / "probe_state.csv").exists()

    def test_sg_without_xi(self, tmp_path, capsys):
        assert run_cli([
            "wk", "--probe", "sg:nmax=5", "--ruler", "ideal", "--out", str(tmp_path / "x"),
        ]) == 2
        assert "needs xi" in capsys.readouterr().err

    def test_sg_nmax_must_be_an_integer(self, tmp_path):
        assert run_cli([
            "wk", "--probe", "sg:xi=0.5,nmax=80.5", "--ruler", "ideal",
            "--out", str(tmp_path / "x"),
        ]) == 2

    def test_grid_does_not_apply_to_sg(self, tmp_path):
        assert run_cli([
            "wk", "--probe", "sg:xi=0.9", "--ruler", "ideal",
            "--grid", "gmin=0,gmax=100,n=101", "--out", str(tmp_path / "x"),
        ]) == 2

    @pytest.mark.parametrize("probe, n", [("gaussian:sigma=1", 512), ("sg:xi=0.9", 133)])
    def test_statistics_on_the_exact_dual_grid(self, tmp_path, probe, n):
        # wk transforms Gamma on its transform length, the smallest fast odd
        # one >= 2n-1, like the shift runs, and writes one outcome per lag
        out = tmp_path / "dual"
        assert run_cli(["wk", "--probe", probe, "--ruler", "ideal", "--out", str(out)]) == 0
        assert len((out / "probe_state.csv").read_text().splitlines()) == 1 + n
        rows = len((out / "coherence.csv").read_text().splitlines()) - 1
        assert rows % 2 == 1 and rows >= 2 * n - 1 and scipy.fft.next_fast_len(rows) == rows
        assert len((out / "statistics.csv").read_text().splitlines()) == 1 + rows

    def test_coherence_csv_lists_every_lag(self, tmp_path):
        # Gamma is stored by its lags tau >= 0; wk writes all M' of them, tau < 0 mirrored
        out = tmp_path / "lags"
        assert run_cli([
            "wk", "--probe", "gaussian:sigma=1,kc=0.7", "--ruler", "gaussian:dphi=0.5",
            "--out", str(out),
        ]) == 0
        lines = (out / "coherence.csv").read_text().splitlines()
        assert lines[0] == "tau,re_gamma,im_gamma"
        tau, re, im = np.array([[float(v) for v in line.split(",")] for line in lines[1:]]).T
        rows = len(tau)
        assert rows % 2 == 1 and rows >= 2 * 512 - 1 and scipy.fft.next_fast_len(rows) == rows
        assert len((out / "statistics.csv").read_text().splitlines()) == 1 + rows
        assert tau[rows // 2] == 0.0 and np.max(np.abs(im)) > 1e-3
        # Gamma(-tau) = conj Gamma(tau) bit for bit on every pair tau != 0
        mid = rows // 2
        assert np.array_equal(tau, -tau[::-1])
        assert np.array_equal(re, re[::-1]) and np.array_equal(im[:mid], -im[:mid:-1])

    def test_width_zero_is_the_ideal_ruler(self, tmp_path):
        ideal, zero = tmp_path / "ideal", tmp_path / "zero"
        assert run_cli(["wk", "--probe", "sg:xi=0.9", "--ruler", "ideal", "--out", str(ideal)]) == 0
        assert run_cli(["wk", "--probe", "sg:xi=0.9", "--ruler", "gaussian:dphi=0", "--out", str(zero)]) == 0
        for name in ("coherence.csv", "statistics.csv"):
            assert (ideal / name).read_bytes() == (zero / name).read_bytes()
        assert read_json(ideal / "summary.json") == {**read_json(zero / "summary.json"), "ruler": "ideal"}

    def test_sg_under_gaussian_phase_blur(self, tmp_path):
        out = tmp_path / "blur"
        assert run_cli([
            "wk", "--probe", "sg:xi=0.9", "--ruler", "gaussian:dphi=0.3", "--out", str(out),
        ]) == 0
        summary = read_json(out / "summary.json")
        assert summary["wk_product"] == pytest.approx(math.sqrt(math.pi), abs=1e-6)
        assert summary["delta2_lambda"] > math.pi * (0.19 / 1.81) ** 2


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

    @pytest.mark.parametrize("grid", ["gmin=-1e308,gmax=1e308,n=512", "gmin=0,gmax=5e-324,n=512"],
                             ids=["infinite-spacing", "zero-spacing"])
    def test_spacing_must_be_finite_and_positive(self, grid, tmp_path, capsys):
        out = tmp_path / "x"
        assert run_cli(["validate-ruler", "--ruler", "ideal", "--grid", grid, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "not finite and positive" in err and "Traceback" not in err
        assert not (out / "ruler_report.json").exists()

    def test_points_must_be_distinct(self, tmp_path, capsys):
        # a span of 1000 at 1e16, where floats step by 2
        out = tmp_path / "x"
        grid = "gmin=1e16,gmax=1.0000000000001e16,n=512"
        assert run_cli(["validate-ruler", "--ruler", "gaussian:dphi=1", "--grid", grid, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "too close for the float step" in err and "Traceback" not in err
        assert not (out / "ruler_report.json").exists()


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

    def test_symmetric_vacuum_has_zero_qfi(self, tmp_path):
        # F = F_Q = 0: no ratio to the quantum bound, no relative agreement
        out = tmp_path / "fvac"
        assert run_cli([
            "fisher", "--scenario", "phase-cs", "--vxs", "0.5", "--vxm", "0.5",
            "--out", str(out),
        ]) == 0
        payload = read_json(out / "fisher.json")
        assert payload["qfi"] == 0.0
        assert payload["numerical"]["fisher"] == 0.0
        assert payload["closed_form"]["fisher"] == 0.0
        assert payload["agreement_rel"] is None

    def test_nonlinear_step_widens_the_sized_range(self, tmp_path):
        # the stencil reaches 2*step = 0.06, beyond the default lambda_pad 0.05
        out = tmp_path / "fnl"
        assert run_cli([
            "fisher", "--scenario", "nonlinear", "--vxs", "0.25", "--vxm", "0.25",
            "--step", "0.03", "--out", str(out),
        ]) == 0
        payload = read_json(out / "fisher.json")
        assert payload["step"] == 0.03
        assert payload["numerical"]["fisher"] == pytest.approx(4.0, rel=1e-6)

    def test_nonlinear_stencil_past_lambda_pad_is_too_narrow(self, tmp_path):
        # the command takes the exact derivative, on axes sized for lambda_pad = 0.05
        # alone; the default step 1e-3*sqrt(crb) is 0.181 here, so its stencil reaches
        # 0.362 and needs a spec built with that lambda_pad
        out = tmp_path / "fnld"
        assert run_cli([
            "fisher", "--scenario", "nonlinear", "--vxs", "20", "--vxm", "0.25", "--out", str(out),
        ]) == 0
        payload = read_json(out / "fisher.json")
        assert payload["step"] is None
        assert payload["closed_form"]["fisher"] == pytest.approx(3.048e-05, rel=1e-3)
        assert payload["agreement_rel"] < 1e-6  # measured 4.0e-10
        spec = SCENARIOS["nonlinear"](vx_s=20.0, vx_m=0.25)
        run = spec.run()
        assert run.default_step == pytest.approx(0.1811, rel=1e-3)
        with pytest.raises(GridTooNarrow, match="sized range"):
            run.fisher(step=run.default_step)
        wide = dataclasses.replace(spec, lambda_pad=2.0 * run.default_step).run()
        exact = wide.fisher().fisher
        assert wide.fisher(step=wide.default_step).fisher == pytest.approx(exact, rel=1e-12)  # measured 2e-16
        # the m axis sized for 0.05 against the one sized for 0.362: measured 1.5e-12
        assert payload["numerical"]["fisher"] == pytest.approx(exact, rel=1e-11)

    def test_nonlinear_step_too_large_fails_richardson(self, tmp_path, capsys):
        assert run_cli([
            "fisher", "--scenario", "nonlinear", "--vxs", "0.25", "--vxm", "0.25",
            "--step", "0.2", "--out", str(tmp_path / "fbig"),
        ]) == 3
        err = capsys.readouterr().err
        assert "Richardson residual" in err and "sized range" not in err

    @pytest.mark.parametrize("step", ["--step=0", "--step=-0.01"])
    def test_non_positive_step_is_config_error(self, step, tmp_path, capsys):
        out = tmp_path / "fstep"
        assert run_cli([
            "fisher", "--scenario", "linear", "--dxs", "0.5", "--dxm", "0.5", step,
            "--out", str(out),
        ]) == 2
        assert "--step must be > 0" in capsys.readouterr().err
        assert not (out / "fisher.json").exists()

    @pytest.mark.parametrize("step", ["1e308", "9e307"])
    def test_signal_beyond_the_exact_split_is_domain_error(self, step, tmp_path, capsys):
        # the stencil's first member, lambda0 - step; a float64 phase gave "min p = nan"
        out = tmp_path / "fhuge"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli([
                "fisher", "--scenario", "sg", "--xi", "0.9", "--step", step, "--out", str(out),
            ]) == 3
        err = capsys.readouterr().err
        assert f"signal shift delta = {-float(step)!r} on lags" in err and "exact split" in err
        assert "nan" not in err
        assert not (out / "fisher.json").exists()

    @pytest.mark.parametrize("step", ["0.12", "0.13"])
    def test_fisher_above_the_quantum_bound_is_domain_error(self, step, tmp_path, capsys):
        # the ideal linear readout saturates F_Q = 4; these steps pass the
        # Richardson gate but overshoot the bound by more than QFI_SLACK
        out = tmp_path / "fq"
        assert run_cli([
            "fisher", "--scenario", "linear", "--dxs", "0.5", "--dxm", "0", "--step", step,
            "--out", str(out),
        ]) == 3
        assert "exceeds quantum bound 4.0" in capsys.readouterr().err
        assert not (out / "fisher.json").exists()

    def test_sg_vacuum_has_zero_qfi(self, tmp_path):
        out = tmp_path / "fsg0"
        assert run_cli(["fisher", "--scenario", "sg", "--xi", "0", "--out", str(out)]) == 0
        payload = read_json(out / "fisher.json")
        assert payload["qfi"] == 0.0
        # exact by default: the vacuum's i*tau*Gamma vanishes on every lag, so F is 0.0
        assert payload["step"] is None
        assert payload["numerical"]["fisher"] == 0.0
        assert payload["agreement_rel"] is None

    def test_exact_fisher_above_the_quantum_bound_is_domain_error(self, tmp_path, capsys, monkeypatch):
        # an understated bound F_Q = 1 beneath the exact F = 2 of linear (0.5, 0.5)
        monkeypatch.setattr(scenarios, "closed_form_linear", lambda dx_s, dx_m: FisherReport(1.0, 1.0))
        out = tmp_path / "fqx"
        assert run_cli([
            "fisher", "--scenario", "linear", "--dxs", "0.5", "--dxm", "0.5", "--out", str(out),
        ]) == 3
        assert "Fisher 1.99999" in capsys.readouterr().err
        assert not (out / "fisher.json").exists()

    @pytest.mark.parametrize("args", [
        ["--nmean", "100", "--dns", "5", "--dphim", "60"],
        ["--nmean", "1920", "--dns", "23.42", "--dphim", "17.91"],
    ], ids=["dphim-60", "fuzz-draw"])
    def test_phase_blur_that_wraps_the_circle_is_domain_error(self, args, tmp_path, capsys):
        # without the wrap gate the lattice gives F = 0 and 9.8e-140 against
        # closed forms of 2.8e-4 and 3.1e-3
        out = tmp_path / "fwrap"
        assert run_cli(["fisher", "--scenario", "phase", *args, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "wraps" in err and "Traceback" not in err
        assert not (out / "fisher.json").exists()


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

    @pytest.mark.parametrize("lambdas, members", [("0,0.3,0.6", [0.0, 0.3, 0.6]), ("0.3", [0.3, 0.0])])
    def test_wk_product_reuses_the_zero_member(self, lambdas, members, tmp_path, monkeypatch):
        calls, build = [], cli._scenario_run

        def counted(*args):
            run, params = build(*args)
            return dataclasses.replace(run, family=lambda lam: calls.append(lam) or run.family(lam)), params

        monkeypatch.setattr(cli, "_scenario_run", counted)
        out = tmp_path / "sg"
        assert run_cli(["scenario", "--scenario", "sg", "--xi", "0.9", "--lambdas", lambdas, "--out", str(out)]) == 0
        assert calls == members
        assert read_json(out / "summary.json")["wk_product"] == pytest.approx(math.sqrt(math.pi), rel=1e-12)

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

    @pytest.mark.parametrize("x0", ["99", "150", "1e6"])
    def test_linear_center_off_the_axis_exits_3(self, x0, tmp_path, capsys):
        # the (0.5, 0.5) axis spans +/- 100.24 and the law 8 sigmas = 5.66 about x0,
        # so |x0| <= 94.58; x0 = 99 used to print mean 93.15, x0 = 150 mean -50.67
        assert run_cli([
            "scenario", "--scenario", "linear", "--dxs", "0.5", "--dxm", "0.5", "--x0", x0,
            "--out", str(tmp_path / "far"),
        ]) == 3
        assert "leave the outcome axis" in capsys.readouterr().err

    def test_linear_center_inside_the_axis(self, tmp_path):
        out = tmp_path / "near"
        assert run_cli([
            "scenario", "--scenario", "linear", "--dxs", "0.5", "--dxm", "0.5", "--x0", "94",
            "--out", str(out),
        ]) == 0
        record = read_json(out / "summary.json")["distributions"][0]
        assert record["mean"] == pytest.approx(94.0, rel=1e-12)
        assert record["variance"] == pytest.approx(0.5, rel=1e-9)

    def test_sharp_phase_law_passes_the_negativity_gate(self, tmp_path):
        # min p = -1.6e-12 is FFT roundoff on a peak of about 1,600: -1.0e-15 of it
        assert run_cli([
            "scenario", "--scenario", "phase", "--nmean", "16000.3", "--dns", "2000",
            "--lambdas=0,-0.03", "--out", str(tmp_path / "sharp"),
        ]) == 0


class TestEmptyLambdas:
    """A --lambdas value that names no signal value is a config error."""

    @pytest.mark.parametrize("lambdas", ["--lambdas=,", "--lambdas="])
    def test_flag(self, lambdas, tmp_path, capsys):
        out = tmp_path / "empty"
        assert run_cli(["scenario", "--scenario", "sg", "--xi", "0.9", lambdas, "--out", str(out)]) == 2
        assert "gives no signal value" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_config_file_value(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "sg", "xi": 0.9, "lambdas": ","}))
        out = tmp_path / "empty"
        assert run_cli(["scenario", "--config", str(cfg), "--out", str(out)]) == 2
        assert not (out / "summary.json").exists()


class TestScenarioFlags:
    """Scenario flags, required values and params come from scenarios.SCENARIOS."""

    def test_flags_are_the_spec_fields_without_underscores(self):
        assert set(cli.SCENARIO_FLAGS) == {
            "dxs", "dxm", "nmean", "dns", "dphim", "xi", "vxs", "vxm", "x0", "p0",
        }

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_required_fields(self, name, tmp_path, capsys):
        assert run_cli(["fisher", "--scenario", name, "--out", str(tmp_path / "x")]) == 2
        needs = {"linear": "--dxs, --dxm", "phase": "--nmean, --dns", "sg": "--xi",
                 "nonlinear": "--vxs, --vxm", "phase-cs": "--vxs, --vxm"}[name]
        assert f"needs {needs}" in capsys.readouterr().err

    def test_unread_flags_rejected(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert run_cli([
            "fisher", "--scenario", "linear", "--dxs", "0.5", "--dxm", "0.5",
            "--xi", "0.3", "--nmean", "7", "--out", str(out),
        ]) == 2
        assert "does not read --nmean, --xi" in capsys.readouterr().err
        assert not (out / "fisher.json").exists()

    def test_params_are_the_flags_read(self, tmp_path):
        out = tmp_path / "p"
        assert run_cli([
            "fisher", "--scenario", "linear", "--dxs", "0.5", "--dxm", "0.5", "--x0", "0.25",
            "--out", str(out),
        ]) == 0
        assert read_json(out / "fisher.json")["params"] == {"dxs": 0.5, "dxm": 0.5, "x0": 0.25}

    def test_step_is_fisher_only(self, tmp_path):
        assert run_cli([
            "scenario", "--scenario", "linear", "--dxs", "0.5", "--dxm", "0.5",
            "--step", "1e9", "--out", str(tmp_path / "x"),
        ]) == 2


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


class TestConfigTyping:
    """Config values are numbers or strings, parsed like the flag they set."""

    def test_string_number_matches_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"objective": "linear", "budget": "4"}))
        assert run_cli(["optimize", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
        assert run_cli([
            "optimize", "--objective", "linear", "--budget", "4", "--out", str(tmp_path / "f"),
        ]) == 0
        assert (tmp_path / "c" / "optimum.json").read_bytes() == (
            tmp_path / "f" / "optimum.json"
        ).read_bytes()

    def test_string_scenario_fields(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "linear", "dxs": "0.5", "dxm": "0.5"}))
        assert run_cli(["fisher", "--config", str(cfg), "--out", str(tmp_path / "c")]) == 0
        assert run_cli([
            "fisher", "--scenario", "linear", "--dxs", "0.5", "--dxm", "0.5",
            "--out", str(tmp_path / "f"),
        ]) == 0
        assert (tmp_path / "c" / "fisher.json").read_bytes() == (
            tmp_path / "f" / "fisher.json"
        ).read_bytes()

    @pytest.mark.parametrize("command, config", [
        ("optimize", {"objective": "linear", "budget": "four"}),
        ("optimize", {"objective": "linear", "budget": True}),
        ("optimize", {"objective": "linear", "budget": None}),
        ("optimize", {"objective": "linear", "budget": 4, "sweep_samples": 33.5}),
        ("optimize", {"objective": "linear", "budg": 4}),
        ("optimize", {"objective": "linear", "budget": 4, "config": "other.json"}),
        ("fisher", {"scenario": "linear", "dxs": [0.5], "dxm": 0.5}),
        ("scenario", {"scenario": "sg", "xi": 0.5, "lambdas": [0, 0.3]}),
    ])
    def test_bad_values_rejected(self, tmp_path, command, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2

    def test_too_few_sweep_samples(self, tmp_path):
        assert run_cli([
            "optimize", "--objective", "linear", "--budget", "4", "--sweep-samples", "8",
            "--format", "json", "--out", str(tmp_path / "x"),
        ]) == 2


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


class TestExtremeWidths:
    """A width whose square leaves the float range fails typed (exit 3): no traceback, no NaN artifact."""

    @pytest.mark.parametrize("args, message", [
        (["wk", "--probe", "gaussian:sigma=1e-170", "--ruler", "ideal"], "square underflows to 0"),
        (["wk", "--probe", "gaussian:sigma=1e200", "--ruler", "ideal"], "square overflows"),
        (["validate-ruler", "--ruler", "gaussian:dphi=1e200"], "square overflows"),
        (["fisher", "--scenario", "linear", "--dxs", "1e170", "--dxm", "0.5"], "float range"),
        (["fisher", "--scenario", "linear", "--dxs", "1e-170", "--dxm", "0.5"], "float range"),
        (["fisher", "--scenario", "nonlinear", "--vxs", "1e-170", "--vxm", "0.25"], "float range"),
        (["fisher", "--scenario", "phase-cs", "--vxs", "1e170", "--vxm", "0.25"], "float range"),
        (["fisher", "--scenario", "phase-cs", "--vxs", "1e-170", "--vxm", "0.25"], "float range"),
        (["wk", "--probe", "gaussian:sigma=1e-160", "--ruler", "ideal"], "float range"),
    ], ids=["wk-nan", "wk-overflow", "ruler-overflow", "fisher-overflow", "fisher-underflow",
            "nonlinear-underflow", "phase-cs-overflow", "phase-cs-underflow", "wk-dlam-overflow"])
    def test_domain_error(self, args, message, tmp_path, capsys):
        out = tmp_path / "x"
        assert run_cli(args + ["--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not any(out.iterdir())


class TestDeterminism:
    def test_config_error_leaves_the_cached_parser_intact(self, tmp_path):
        # the parser is built once per process; a rejected parse in between
        # must not change what the next good call writes
        out = tmp_path / "good"
        good = ["fisher", "--scenario", "linear", "--dxs", "0.5", "--dxm", "0.5", "--out", str(out)]
        cli.build_parser.cache_clear()
        assert run_cli(good) == 0
        first = {n: (out / n).read_bytes() for n in os.listdir(out)}
        assert run_cli(["fisher", "--scenario", "linear", "--dxs", "half", "--out", str(tmp_path / "bad")]) == 2
        assert run_cli(good) == 0
        assert {n: (out / n).read_bytes() for n in os.listdir(out)} == first
        assert cli.build_parser.cache_info().misses == 1

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

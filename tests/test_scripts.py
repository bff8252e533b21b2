"""The experiment scripts run with their default arguments and write their CSVs."""

import csv
import os
import runpy
import sys

import pytest

SCRIPTS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")

# script -> {csv written: (header, data rows)}
EXPECTED = {
    "wk_demo.py": {
        "wk_sweep.csv": (["dphi_m", "tau_c", "delta_lambda", "product", "closed_d2lam"], 30),
    },
    "budget_curves.py": {
        "budget_linear.csv": (["split", "value"], 201),
        "budget_nonlinear.csv": (["split", "value"], 201),
    },
    "generator_power_widths.py": {
        "generator_power_widths.csv": (["sigma", "tau_c_linear", "tau_c_squared"], 7),
    },
}


@pytest.mark.parametrize("script", sorted(EXPECTED))
def test_script_writes_its_csv(script, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [script])
    runpy.run_path(os.path.join(SCRIPTS_DIR, script), run_name="__main__")
    assert "wrote" in capsys.readouterr().out
    for name, (header, n_rows) in EXPECTED[script].items():
        with open(tmp_path / name, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == header
        assert len(rows) - 1 == n_rows
        assert all(len(row) == len(header) for row in rows[1:])

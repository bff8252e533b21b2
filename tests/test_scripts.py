"""The experiment scripts run with their default arguments and write their CSVs;
``artifact_diff.py`` reports each kind of artifact change; every
``mutation_check.py`` defect still names a line and a test that exist."""

import ast
import csv
import json
import os
import runpy
import sys

import pytest

SCRIPTS_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")
ROOT = os.path.join(SCRIPTS_DIR, os.pardir)

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


def test_artifact_diff_reports_each_kind_of_change(tmp_path, monkeypatch, capsys):
    # two artifact trees, one example directory each: a file identical on
    # both sides, a CSV value change, a JSON leaf change and a file on one side only
    trees = {}
    for side, p_last, b, c in (("old", "2.0", 2.0, "x"), ("new", "2.5", 2.5, "y")):
        trees[side] = {
            "same.csv": "mu,p\n0.0,1.0\n",
            "values.csv": f"mu,p\n-1.0,1.0\n1.0,{p_last}\n",
            "summary.json": json.dumps({"a": {"b": b, "c": c}, "n": [1, 2]}),
        }
    trees["old"]["gone.csv"] = "mu,p\n0.0,1.0\n"
    trees["new"]["added.json"] = "{}"
    for side, files in trees.items():
        (tmp_path / side / "ex").mkdir(parents=True)
        for name, text in files.items():
            (tmp_path / side / "ex" / name).write_text(text, encoding="utf-8")
    script = runpy.run_path(os.path.join(SCRIPTS_DIR, "artifact_diff.py"))
    monkeypatch.setattr(sys, "argv", ["artifact_diff.py", str(tmp_path / "old"), str(tmp_path / "new")])
    assert script["main"]() == 0
    assert capsys.readouterr().out.splitlines() == [
        "ex/added.json: only in NEW",
        "ex/gone.csv: only in OLD",
        "ex/same.csv: identical",
        "ex/summary.json: differs",
        "  leaves 4 -> 4",
        "  a.b: abs 0.5, rel 0.25",
        "  a.c: 'x' -> 'y'",
        "ex/values.csv: differs",
        "  rows 2 -> 2",
        "  mu: max abs 0, rel to max|old| 0",
        "  p: max abs 0.5, rel to max|old| 0.25",
    ]


def _defines(path, names):
    """Whether the module at ``path`` defines the nested class/function ``names``, outermost first."""
    with open(path, encoding="utf-8") as fh:
        body = ast.parse(fh.read()).body
    for name in names:
        node = next((n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name), None)
        if node is None:
            return False
        body = node.body
    return True


def test_mutation_defects_are_current():
    # the mutation run takes minutes; a defect whose old line is gone or
    # repeated, or whose expected test was renamed, fails here at once
    stale = []
    for path, old, _, expected in runpy.run_path(os.path.join(SCRIPTS_DIR, "mutation_check.py"))["DEFECTS"]:
        with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
            if fh.read().split("\n").count(old) != 1:
                stale.append(f"{path}: {old.strip()}")
        if expected is not None:
            test_file, *names = expected.split("[")[0].split("::")
            if not _defines(os.path.join(ROOT, test_file), names):
                stale.append(expected)
    assert not stale

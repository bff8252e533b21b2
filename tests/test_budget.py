import numpy as np
import pytest

from qruler.budget import (
    golden_section,
    linear_objective,
    nonlinear_objective,
    optimize_linear,
    optimize_nonlinear,
    sweep_budget,
)
from qruler.errors import NonPositiveBudget


def test_golden_section_quadratic():
    x, fx = golden_section(lambda x: (x - 0.3) ** 2 + 1.0, 0.0, 1.0)
    assert x == pytest.approx(0.3, abs=1e-10)
    assert fx == pytest.approx(1.0, abs=1e-14)


class TestLinearOptimum:
    def test_worked_example(self):
        opt = optimize_linear(8.0)
        assert opt.split == 0.5
        assert opt.probe_variance == pytest.approx(0.25)
        assert opt.delta2_lambda == pytest.approx(0.5)
        assert abs(opt.split_numeric - 0.5) < 1e-8

    def test_brute_force_oracle(self):
        # dense grid search over the split as an independent minimizer
        c = 8.0
        s = np.linspace(0.01, 0.99, 9801)
        vals = [linear_objective(c, si) for si in s]
        assert s[int(np.argmin(vals))] == pytest.approx(0.5, abs=1e-4)
        assert min(vals) == pytest.approx(optimize_linear(c).delta2_lambda, rel=1e-6)

    def test_hyperbola_scaling(self):
        for c in (0.5, 2.0, 8.0, 64.0):
            assert optimize_linear(c).delta2_lambda == pytest.approx(4.0 / c)

    def test_interior_strict_convexity(self):
        c = 8.0
        assert linear_objective(c, 0.4) > linear_objective(c, 0.5)

    def test_bad_budget(self):
        with pytest.raises(NonPositiveBudget):
            optimize_linear(0.0)


class TestNonlinearOptimum:
    def test_worked_example(self):
        opt = optimize_nonlinear(4.0)
        assert opt.split == 0.75
        assert opt.probe_variance == pytest.approx(1.0 / 3.0)
        assert opt.ratio_to_qfi == pytest.approx(0.375)
        assert abs(opt.split_numeric - 0.75) < 1e-8
        assert opt.fisher_numeric / opt.qfi == pytest.approx(0.375, abs=1e-10)

    def test_brute_force_oracle(self):
        c = 4.0
        s = np.linspace(0.01, 0.99, 9801)
        vals = [nonlinear_objective(c, si) for si in s]
        assert s[int(np.argmax(vals))] == pytest.approx(0.75, abs=1e-4)
        assert max(vals) == pytest.approx(optimize_nonlinear(c).fisher, rel=1e-6)

    def test_probe_to_ruler_coherence_ratio(self):
        opt = optimize_nonlinear(4.0)
        assert 1.0 / opt.probe_variance == pytest.approx(3.0 * (1.0 / (0.25 * 4.0)))

    def test_extremes_vanish(self):
        c = 4.0
        assert nonlinear_objective(c, 1e-9) < 1e-20
        assert nonlinear_objective(c, 1.0 - 1e-9) < 1e-7


class TestSweep:
    def test_linear_minimum_bin(self):
        sweep = sweep_budget(8.0, "linear", 101)
        assert sweep.splits[sweep.optimum_index] == pytest.approx(0.5, abs=1e-2)

    def test_nonlinear_maximum_bin(self):
        sweep = sweep_budget(4.0, "nonlinear", 101)
        assert sweep.splits[sweep.optimum_index] == pytest.approx(0.75, abs=1e-2)

    def test_unimodal_segments(self):
        sweep = sweep_budget(4.0, "nonlinear", 101)
        i = sweep.optimum_index
        assert np.all(np.diff(sweep.values[: i + 1]) > 0)
        assert np.all(np.diff(sweep.values[i:]) < 0)

    @pytest.mark.parametrize("objective", ["linear", "nonlinear"])
    def test_values_are_the_objective(self, objective):
        sweep = sweep_budget(4.0, objective, 101)
        fn = linear_objective if objective == "linear" else nonlinear_objective
        expected = np.array([fn(4.0, s) for s in sweep.splits])
        assert np.array_equal(sweep.values, expected)

    def test_fn_is_an_unknown_objective(self):
        # the rotation generator's F_N has no optimum under the budget: it grows
        # without bound as s -> 0, so it is not an objective
        with pytest.raises(ValueError, match="unknown objective"):
            sweep_budget(4.0, "fn", 33)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            sweep_budget(4.0, "linear", 8)

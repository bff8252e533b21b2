"""Resolution optimization under a fixed coherence budget.

The budget fixes C = 1/vx_s + 1/vx_m, the total inverse-variance
(coherence) shared between probe and measurement; a split s assigns
1/vx_s = s*C and 1/vx_m = (1-s)*C.  The linear objective minimizes the
signal variance vx_s + vx_m (optimum: balanced split); the quadratic
generator maximizes (vx_m/vx_s)/(vx_m+vx_s)^2 = C^2 s^3 (1-s) (optimum:
probe coherence three times the measurement's).  ``OBJECTIVES`` holds these
two, the ones ``sweep_budget`` tabulates and the command line offers.  The
rotation generator's F_N has no optimum under this budget: it grows
without bound, about 4/(s C^2), as s -> 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonPositiveBudget

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
SPLIT_EPS = 1e-6
BRACKET_TOL = 1e-10


def golden_section(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """Minimize a unimodal f on [a, b] to bracket width ``BRACKET_TOL``.

    Pure golden-section stalls once function differences drop into
    floating-point noise, so the converged bracket is polished with one
    three-point parabolic step whose offset sits safely above that noise
    floor; on smooth quadratic bottoms this recovers several extra digits.
    """
    a0, b0 = a, b
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > BRACKET_TOL:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = f(x2)
    xm = 0.5 * (a + b)
    fm = f(xm)
    step = max(1e-5 * (b0 - a0), 16.0 * BRACKET_TOL)
    lo, hi = xm - step, xm + step
    if lo > a0 and hi < b0:
        fl, fh = f(lo), f(hi)
        curvature = fl - 2.0 * fm + fh
        if curvature > 0.0 and math.isfinite(curvature):
            xv = xm + 0.5 * step * (fl - fh) / curvature
            if abs(xv - xm) <= step:
                return xv, f(xv)
    return xm, fm


@dataclass(frozen=True)
class LinearOptimum:
    budget: float
    split: float              # analytic: 1/2
    delta2_lambda: float      # analytic: 4/C, twice the ideal resolution
    probe_variance: float
    split_numeric: float
    delta2_lambda_numeric: float


def linear_objective(c: float, s: float) -> float:
    """Signal variance vx_s + vx_m at split s of budget c."""
    return 1.0 / (s * c) + 1.0 / ((1.0 - s) * c)


def optimize_linear(c: float) -> LinearOptimum:
    """Balanced split minimizes the linear signal variance: s* = 1/2."""
    if not c > 0:
        raise NonPositiveBudget(f"budget must be > 0, got {c}")
    s_num, val_num = golden_section(lambda s: linear_objective(c, s), SPLIT_EPS, 1.0 - SPLIT_EPS)
    return LinearOptimum(
        budget=c,
        split=0.5,
        delta2_lambda=4.0 / c,
        probe_variance=2.0 / c,
        split_numeric=s_num,
        delta2_lambda_numeric=val_num,
    )


@dataclass(frozen=True)
class NonlinearOptimum:
    budget: float
    split: float              # analytic: 3/4, i.e. 1/vx_s = 3/vx_m
    fisher: float             # analytic: 27 C^2 / 256
    probe_variance: float
    qfi: float                # 1/(2 vx_s^2) at the optimal probe
    ratio_to_qfi: float       # analytic: 3/8
    split_numeric: float
    fisher_numeric: float


def nonlinear_objective(c: float, s: float) -> float:
    """Quadratic-generator Fisher information C^2 s^3 (1-s) at split s."""
    return c * c * s**3 * (1.0 - s)


def optimize_nonlinear(c: float) -> NonlinearOptimum:
    """Probe-heavy split maximizes the quadratic-generator term: s* = 3/4.

    At the optimum the Fisher information reaches 3/8 of the probe's
    quantum Fisher information 1/(2 vx_s^2).
    """
    if not c > 0:
        raise NonPositiveBudget(f"budget must be > 0, got {c}")
    s_num, neg = golden_section(
        lambda s: -nonlinear_objective(c, s), SPLIT_EPS, 1.0 - SPLIT_EPS
    )
    vx_s = 1.0 / (0.75 * c)
    fisher = 27.0 * c * c / 256.0
    return NonlinearOptimum(
        budget=c,
        split=0.75,
        fisher=fisher,
        probe_variance=vx_s,
        qfi=0.5 * (0.75 * c) ** 2,
        ratio_to_qfi=0.375,
        split_numeric=s_num,
        fisher_numeric=-neg,
    )


# name -> (objective, the index of its optimum over a sweep's values)
OBJECTIVES = {"linear": (linear_objective, np.argmin), "nonlinear": (nonlinear_objective, np.argmax)}


@dataclass(frozen=True, eq=False)
class BudgetSweep:
    splits: np.ndarray
    values: np.ndarray
    optimum_index: int  # argmin for linear, argmax for nonlinear


def sweep_budget(c: float, objective: str, n_samples: int) -> BudgetSweep:
    """Tabulate an ``OBJECTIVES`` entry over splits s in (0, 1) for plotting."""
    if not c > 0:
        raise NonPositiveBudget(f"budget must be > 0, got {c}")
    if n_samples < 16:
        raise ValueError("n_samples must be >= 16")
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    f, optimum = OBJECTIVES[objective]
    splits = np.linspace(SPLIT_EPS, 1.0 - SPLIT_EPS, n_samples)
    values = np.array([f(c, s) for s in splits])
    splits.flags.writeable = False
    values.flags.writeable = False
    return BudgetSweep(splits=splits, values=values, optimum_index=int(optimum(values)))

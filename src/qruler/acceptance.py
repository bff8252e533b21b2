"""Acceptance suite: the package's end-to-end exit criteria.

Each criterion is a deterministic function returning a
:class:`CriterionResult`; randomized parameter draws use a fixed seed.
``run_all`` executes every criterion in order.  The pytest module
``tests/test_acceptance.py`` and the ``qruler acceptance`` CLI command
both drive these functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .budget import optimize_linear, optimize_nonlinear
from .coherence import (
    appendix_coherence,
    coherence_function,
    coherence_time,
    direct_statistics,
    signal_uncertainty,
    statistics_from_coherence,
    wk_product,
)
from .fisher import closed_form_fn
from .grids import grid_for_gaussian
from .ruler import FLAT_DIAGONAL, RulerSeed, make_gaussian_ruler, make_ideal_ruler, validate_ruler
from .scenarios import SCENARIOS, ScenarioRun, phase_distribution_ws, sg_fisher_variance, sg_wk_variance
from .states import GaussianProbeSpec, make_gaussian_probe

SEED = 20240917
SQRT_PI = math.sqrt(math.pi)


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    checks: list[str] = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.index}: {self.name}"


class _Recorder:
    def __init__(self):
        self.checks: list[str] = []
        self.ok = True

    def require(self, condition: bool, message: str) -> None:
        self.ok &= bool(condition)
        self.checks.append(f"{'ok' if condition else 'FAIL'}: {message}")

    def note(self, message: str) -> None:
        self.checks.append(f"info: {message}")


def _run(kind: str, **fields) -> ScenarioRun:
    """The run of the ``SCENARIOS`` kind ``kind`` on a spec with ``fields``."""
    entry = SCENARIOS[kind]
    return entry.run(entry.spec(**fields))


def criterion_1_wk_pair() -> CriterionResult:
    """Transform and direct-trace statistics agree; tau_c * dlam = sqrt(pi)."""
    rec = _Recorder()
    rng = np.random.default_rng(SEED)
    worst_gap = 0.0
    worst_product = 0.0
    for _ in range(100):
        sigma = rng.uniform(0.5, 2.0)
        center = rng.uniform(-1.0, 1.0)
        k0 = rng.uniform(-1.0, 1.0)
        dphi_m = rng.uniform(0.05, 1.5)
        grid = grid_for_gaussian(center, sigma, 256)
        probe = make_gaussian_probe(GaussianProbeSpec(center, sigma, k0), grid)
        ruler = make_gaussian_ruler(dphi_m, grid)
        gamma = coherence_function(probe, ruler)
        p_t = statistics_from_coherence(gamma)
        p_d = direct_statistics(probe, ruler, p_t.mu_grid)
        worst_gap = max(worst_gap, float(np.max(np.abs(p_t.density - p_d.density))))
        worst_product = max(worst_product, abs(wk_product(gamma, p_t) - SQRT_PI))
    rec.require(worst_gap <= 1e-8, f"100 pairs: max |p_transform - p_direct| = {worst_gap:.3e} <= 1e-8")
    rec.require(worst_product <= 1e-5, f"100 pairs: max |tau_c*dlam - sqrt(pi)| = {worst_product:.3e} <= 1e-5")
    return CriterionResult(1, "wiener-kintchine pair and product law", rec.ok, rec.checks)


def criterion_2_gaussian_resolution() -> CriterionResult:
    """Sampled squared signal uncertainty matches the additive closed forms."""
    rec = _Recorder()
    for dphi_m, expected in ((0.0, 0.01), (0.1, 0.02)):
        run = _run("phase", n_mean=100.0, dn_s=5.0, dphi_m=dphi_m)
        got = signal_uncertainty(run.family(0.0)) ** 2
        rel = abs(got / expected - 1.0)
        rec.require(rel <= 1e-6, f"phase dphi_m={dphi_m}: d2lam={got:.12e} vs {expected} (rel {rel:.2e})")
    run = _run("linear", dx_s=0.5, dx_m=0.5)
    got = signal_uncertainty(run.family(0.0)) ** 2
    rel = abs(got / 0.5 - 1.0)
    rec.require(rel <= 1e-6, f"linear dx_s=dx_m=0.5: d2lam={got:.12e} vs 0.5 (rel {rel:.2e})")
    return CriterionResult(2, "gaussian resolution closed forms", rec.ok, rec.checks)


def criterion_3_crb_coincidence() -> CriterionResult:
    """Numerical Fisher of the linear family equals the additive CRB."""
    rec = _Recorder()
    cases = (("blurred", 0.5, 2.0, "2"), ("ideal", 0.0, 4.0, "4*Var(P)=4"))
    for label, dx_m, expected, target in cases:
        fisher = _run("linear", dx_s=0.5, dx_m=dx_m).fisher().fisher
        rel = abs(fisher / expected - 1.0)
        rec.require(rel <= 1e-4, f"{label}: F={fisher:.10f} vs {target} (rel {rel:.2e})")
    return CriterionResult(3, "cramer-rao coincidence, linear scenario", rec.ok, rec.checks)


def criterion_4_joint_fisher() -> CriterionResult:
    """Joint (m, k) Fisher reproduces the rotation and quadratic closed forms."""
    rec = _Recorder()
    rng = np.random.default_rng(SEED + 4)
    for kind, x0_max, generator in (("phase-cs", 1.5, "rotation"), ("nonlinear", 1.0, "quadratic")):
        worst = 0.0
        for _ in range(10):
            run = _run(
                kind,
                vx_s=rng.uniform(0.2, 1.0),
                vx_m=rng.uniform(0.2, 1.0),
                x0=rng.uniform(-x0_max, x0_max),
                p0=rng.uniform(-1.5, 1.5),
            )
            worst = max(worst, abs(run.fisher().fisher / run.closed_form.fisher - 1.0))
        rec.require(worst <= 1e-3, f"{generator} generator, 10 draws: worst rel {worst:.2e}")

    # worked examples; sub-Heisenberg variance quartets are realized through
    # the uncertainty-consistent doubling, which leaves every term intact
    rec.require(
        closed_form_fn(0.25, 0.25, 0.25, 0.25, 0.0, 0.0).fisher == 0.0,
        "closed form: symmetric undisplaced quartet gives F=0",
    )
    f2 = closed_form_fn(0.25, 0.25, 0.25, 0.25, 1.0, 0.0).fisher
    rec.require(abs(f2 - 2.0) < 1e-12, f"closed form: displaced quartet gives F={f2} = 2")
    f3 = closed_form_fn(0.1, 0.625, 0.25, 0.25, 0.0, 0.0).fisher
    rec.require(abs(f3 - 0.9) < 1e-12, f"closed form: squeezed quartet gives F={f3} = 0.9")

    f_sym = _run("phase-cs", vx_s=0.5, vx_m=0.5).fisher().fisher
    rec.require(f_sym <= 1e-6, f"numerical: symmetric vacuum F={f_sym:.2e} ~ 0")
    f_disp = _run("phase-cs", vx_s=0.5, vx_m=0.5, x0=math.sqrt(2.0)).fisher().fisher
    rec.require(
        abs(f_disp / 2.0 - 1.0) <= 1e-3,
        f"numerical: displaced vacuum F={f_disp:.8f} vs 2",
    )
    f_sq = _run("phase-cs", vx_s=0.2, vx_m=0.5).fisher().fisher
    rec.require(
        abs(f_sq / 0.9 - 1.0) <= 1e-3,
        f"numerical: squeezed vacuum F={f_sq:.8f} vs 0.9",
    )
    return CriterionResult(4, "joint-readout fisher closed forms", rec.ok, rec.checks)


def criterion_5_optima() -> CriterionResult:
    """Budget optima: balanced linear split, 1:3 quadratic split."""
    rec = _Recorder()
    lin = optimize_linear(8.0)
    rec.require(abs(lin.split_numeric - 0.5) <= 1e-8, f"linear split {lin.split_numeric!r} vs 0.5")
    rec.require(
        abs(lin.delta2_lambda_numeric - 2.0 * lin.probe_variance) <= 1e-8,
        f"linear optimum {lin.delta2_lambda_numeric!r} = 2*vx_s = {2*lin.probe_variance!r}",
    )
    non = optimize_nonlinear(4.0)
    rec.require(abs(non.split_numeric - 0.75) <= 1e-8, f"nonlinear split {non.split_numeric!r} vs 0.75")
    ratio_num = non.fisher_numeric / non.qfi
    rec.require(abs(ratio_num - 0.375) <= 1e-8, f"nonlinear F*/QF = {ratio_num!r} vs 3/8")
    return CriterionResult(5, "coherence-budget optima", rec.ok, rec.checks)


def criterion_6_sg_scenario() -> CriterionResult:
    """Geometric-series probe: both width routes and their limiting ratio."""
    rec = _Recorder()
    for xi in (0.5, 0.9, 0.99):
        run = _run("sg", xi=xi)
        d2_wk = signal_uncertainty(run.family(0.0)) ** 2
        rel_wk = abs(d2_wk / sg_wk_variance(xi) - 1.0)
        rec.require(rel_wk <= 1e-6, f"xi={xi}: sampled d2lam rel err {rel_wk:.2e}")
        rel_f = abs(run.fisher().crb / sg_fisher_variance(xi) - 1.0)
        rec.require(rel_f <= 1e-4, f"xi={xi}: fisher crb rel err {rel_f:.2e}")
    xi = 0.999
    run = _run("sg", xi=xi)
    d2_wk = signal_uncertainty(run.family(0.0)) ** 2
    ratio = d2_wk / run.fisher().crb
    rec.require(
        abs(ratio / (math.pi / 2.0) - 1.0) <= 0.02,
        f"xi={xi}: width ratio {ratio:.6f} vs pi/2 = {math.pi/2:.6f} within 2%",
    )
    return CriterionResult(6, "non-gaussian phase probe widths", rec.ok, rec.checks)


def criterion_7_appendix() -> CriterionResult:
    """Generator vs squared-generator coherence: forms, scalings, p0 effects."""
    rec = _Recorder()
    dp = 1.0
    grid = grid_for_gaussian(0.0, dp, 1024)
    probe = make_gaussian_probe(GaussianProbeSpec(0.0, dp), grid)
    g1 = coherence_function(probe, make_ideal_ruler(grid))  # Gamma1 / (2*pi), on its own lags
    near = np.abs(g1.tau_grid) <= 4.0 * dp**2  # the 8-sigma grid truncates Gamma1 beyond
    form1 = np.exp(-(g1.tau_grid[near] ** 2) / (8.0 * dp**2))
    err1 = float(np.max(np.abs(2.0 * np.pi * g1.values[near] - form1)))
    rec.require(err1 <= 1e-6, f"linear-generator coherence matches gaussian form: {err1:.2e}")
    tau = np.linspace(-4.0 * dp**2, 4.0 * dp**2, 801)
    g2 = appendix_coherence(probe, tau)
    err2 = float(np.max(np.abs(g2.values - np.exp(-np.abs(tau) / (4.0 * dp**2)))))
    rec.require(err2 <= 1e-6, f"squared-generator coherence matches laplace form: {err2:.2e}")

    dps = np.array([0.5, 1.0, 2.0, 4.0])
    tc1, tc2 = [], []
    for s in dps:
        pr = make_gaussian_probe(GaussianProbeSpec(0.0, s), grid_for_gaussian(0.0, s, 1024))
        tc1.append(coherence_time(coherence_function(pr, make_ideal_ruler(pr.grid))))
        tc2.append(coherence_time(appendix_coherence(pr)))
    slope1 = float(np.polyfit(np.log(dps), np.log(tc1), 1)[0])
    slope2 = float(np.polyfit(np.log(dps), np.log(tc2), 1)[0])
    rec.require(abs(slope1 - 1.0) <= 0.01, f"coherence-time slope vs width: {slope1:.6f} vs 1")
    rec.require(abs(slope2 - 2.0) <= 0.01, f"squared-generator slope: {slope2:.6f} vs 2")

    shifted = make_gaussian_probe(GaussianProbeSpec(2.0, dp), grid_for_gaussian(2.0, dp, 1024))
    g2_shift = appendix_coherence(shifted, tau)
    dev2 = float(np.max(np.abs(g2_shift.values - g2.values)))
    rec.require(dev2 > 1e-3, f"squared-generator coherence depends on the center: dev {dev2:.3e}")
    # same spacing and length, so both coherence functions share their lags
    g1_shift = coherence_function(shifted, make_ideal_ruler(shifted.grid))
    dev1 = 2.0 * np.pi * float(np.max(np.abs(np.abs(g1_shift.values) - np.abs(g1.values))))
    rec.require(dev1 < 1e-10, f"|linear-generator coherence| center-independent: dev {dev1:.3e}")
    return CriterionResult(7, "generator-power coherence functions", rec.ok, rec.checks)


def criterion_8_ruler_legitimacy() -> CriterionResult:
    """Gaussian seeds pass the legitimacy checks; violations are caught."""
    rec = _Recorder()
    grid = grid_for_gaussian(0.0, 1.0, 256)
    for dphi in (0.5, 1.0):
        rep = validate_ruler(make_gaussian_ruler(dphi, grid))
        rec.require(
            rep.all_pass and rep.diagonal_residual < 1e-10,
            f"gaussian seed dphi={dphi}: all pass, diag residual {rep.diagonal_residual:.2e}",
        )
    doubled = RulerSeed(grid, make_gaussian_ruler(0.5, grid).symbol * 2.0)
    rep_d = validate_ruler(doubled)
    rec.require(
        not rep_d.flat_diagonal and abs(rep_d.diagonal_residual - FLAT_DIAGONAL) < 1e-12,
        f"doubled kernel: diagonal check fails with residual {rep_d.diagonal_residual:.12e}",
    )
    rng = np.random.default_rng(SEED + 8)
    half = rng.normal(size=grid.n_points) + 1j * rng.normal(size=grid.n_points)  # K(tau >= 0)
    half[0] = FLAT_DIAGONAL
    indefinite = RulerSeed(grid, np.concatenate([half[:0:-1].conj(), half]))
    rep_i = validate_ruler(indefinite)
    rec.require(not rep_i.positive, f"random hermitian kernel: positivity fails (min eig {rep_i.min_eigenvalue:.3e})")
    return CriterionResult(8, "ruler legitimacy validation", rec.ok, rec.checks)


def criterion_9_phase_distribution() -> CriterionResult:
    """Radial phase distribution matches its closed-form profile."""
    rec = _Recorder()
    pd = phase_distribution_ws(0.35, 0.875)
    rec.require(
        pd.profile_residual <= 1e-3,
        f"sampled profile sup-norm gap {pd.profile_residual:.2e} <= 1e-3",
    )
    rec.require(
        abs(pd.delta2_phi0 - 0.35 * 0.875 / 0.525) <= 1e-10,
        f"heuristic width {pd.delta2_phi0!r} vs 0.58333...",
    )
    # displacement terms of the rotation Fisher vs summed inverse phase
    # uncertainties: reported as a diagnostic only, never asserted
    vx_s, vp_s, vx_m, vp_m, x0, p0 = 0.1, 0.625, 0.25, 0.25, 1.0, 0.5
    f_n = closed_form_fn(vx_s, vp_s, vx_m, vp_m, x0, p0).fisher
    vxt, vpt = vx_s + vx_m, vp_s + vp_m
    inv_sum = abs(vxt - vpt) / (vxt * vpt) + x0**2 / vpt + p0**2 / vxt
    rec.note(f"diagnostic: F_N / sum(1/d2phi) = {f_n / inv_sum:.6f} (not asserted)")
    return CriterionResult(9, "phase-space phase distribution", rec.ok, rec.checks)


CRITERIA = (
    criterion_1_wk_pair,
    criterion_2_gaussian_resolution,
    criterion_3_crb_coincidence,
    criterion_4_joint_fisher,
    criterion_5_optima,
    criterion_6_sg_scenario,
    criterion_7_appendix,
    criterion_8_ruler_legitimacy,
    criterion_9_phase_distribution,
)


def run_all() -> list[CriterionResult]:
    return [fn() for fn in CRITERIA]

"""Acceptance suite: the package's end-to-end exit criteria.

Each criterion is a deterministic function returning a
:class:`CriterionResult`, which records its checks as they run;
randomized parameter draws use a fixed seed.  Scenario runs are built
through ``scenarios.SCENARIOS``.
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
from .scenarios import SCENARIOS, phase_distribution_ws, sg_fisher_variance, sg_wk_variance
from .states import GaussianProbeSpec, make_gaussian_probe

SEED = 20240917
SQRT_PI = math.sqrt(math.pi)
# exact-derivative F against the finite-difference route (Richardson at the
# default step), relative; each gate is 10x or more above its largest measured gap
LINEAR_EXACT_FD_REL = 1e-12  # criterion 3, measured 5.9e-14
JOINT_EXACT_FD_REL = 3e-12   # criterion 4, measured 2.0e-13
SG_EXACT_FD_REL = 5e-11      # criterion 6, measured 3.2e-12


def _exact_fd_gap(run, exact: float) -> float:
    """|F_exact / F_fd - 1| against the run's Richardson F at its default step."""
    return abs(exact / run.fisher(step=run.default_step).fisher - 1.0)


@dataclass
class CriterionResult:
    """A criterion's outcome: it passes until a ``require`` fails."""

    index: int
    name: str
    passed: bool = True
    checks: list[str] = field(default_factory=list)

    def require(self, condition: bool, message: str) -> None:
        self.passed &= bool(condition)
        self.checks.append(f"{'ok' if condition else 'FAIL'}: {message}")

    def note(self, message: str) -> None:
        self.checks.append(f"info: {message}")

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.index}: {self.name}"


def criterion_1_wk_pair() -> CriterionResult:
    """Transform and direct-trace statistics agree; tau_c * dlam = sqrt(pi)."""
    rec = CriterionResult(1, "wiener-kintchine pair and product law")
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
    return rec


def criterion_2_gaussian_resolution() -> CriterionResult:
    """Sampled squared signal uncertainty matches the additive closed forms."""
    rec = CriterionResult(2, "gaussian resolution closed forms")
    for dphi_m, expected in ((0.0, 0.01), (0.1, 0.02)):
        run = SCENARIOS["phase"](n_mean=100.0, dn_s=5.0, dphi_m=dphi_m).run()
        got = signal_uncertainty(run.family(0.0)) ** 2
        rel = abs(got / expected - 1.0)
        rec.require(rel <= 1e-6, f"phase dphi_m={dphi_m}: d2lam={got:.12e} vs {expected} (rel {rel:.2e})")
    run = SCENARIOS["linear"](dx_s=0.5, dx_m=0.5).run()
    got = signal_uncertainty(run.family(0.0)) ** 2
    rel = abs(got / 0.5 - 1.0)
    rec.require(rel <= 1e-6, f"linear dx_s=dx_m=0.5: d2lam={got:.12e} vs 0.5 (rel {rel:.2e})")
    return rec


def criterion_3_crb_coincidence() -> CriterionResult:
    """Numerical Fisher of the linear family equals the additive CRB."""
    rec = CriterionResult(3, "cramer-rao coincidence, linear scenario")
    cases = (("blurred", 0.5, 2.0, "2"), ("ideal", 0.0, 4.0, "4*Var(P)=4"))
    gap = 0.0
    for label, dx_m, expected, target in cases:
        run = SCENARIOS["linear"](dx_s=0.5, dx_m=dx_m).run()
        fisher = run.fisher().fisher
        rel = abs(fisher / expected - 1.0)
        rec.require(rel <= 1e-4, f"{label}: F={fisher:.10f} vs {target} (rel {rel:.2e})")
        gap = max(gap, _exact_fd_gap(run, fisher))
    rec.require(
        gap <= LINEAR_EXACT_FD_REL,
        f"exact vs finite-difference F, both cases: rel gap {gap:.1e} <= {LINEAR_EXACT_FD_REL}",
    )
    return rec


def criterion_4_joint_fisher() -> CriterionResult:
    """Joint (m, k) Fisher reproduces the rotation and quadratic closed forms."""
    rec = CriterionResult(4, "joint-readout fisher closed forms")
    rng = np.random.default_rng(SEED + 4)
    gap = 0.0
    for kind, x0_max, generator in (("phase-cs", 1.5, "rotation"), ("nonlinear", 1.0, "quadratic")):
        worst = 0.0
        for draw in range(10):
            run = SCENARIOS[kind](
                vx_s=rng.uniform(0.2, 1.0),
                vx_m=rng.uniform(0.2, 1.0),
                x0=rng.uniform(-x0_max, x0_max),
                p0=rng.uniform(-1.5, 1.5),
            ).run()
            fisher = run.fisher().fisher
            worst = max(worst, abs(fisher / run.closed_form.fisher - 1.0))
            if draw == 0:  # five more readouts; one draw per generator keeps the criterion short
                gap = max(gap, _exact_fd_gap(run, fisher))
        rec.require(worst <= 1e-3, f"{generator} generator, 10 draws: worst rel {worst:.2e}")
    rec.require(
        gap <= JOINT_EXACT_FD_REL,
        f"exact vs finite-difference F, first draw of each generator: rel gap {gap:.1e} <= {JOINT_EXACT_FD_REL}",
    )

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

    f_sym = SCENARIOS["phase-cs"](vx_s=0.5, vx_m=0.5).run().fisher().fisher
    rec.require(f_sym <= 1e-6, f"numerical: symmetric vacuum F={f_sym:.2e} ~ 0")
    f_disp = SCENARIOS["phase-cs"](vx_s=0.5, vx_m=0.5, x0=math.sqrt(2.0)).run().fisher().fisher
    rec.require(
        abs(f_disp / 2.0 - 1.0) <= 1e-3,
        f"numerical: displaced vacuum F={f_disp:.8f} vs 2",
    )
    f_sq = SCENARIOS["phase-cs"](vx_s=0.2, vx_m=0.5).run().fisher().fisher
    rec.require(
        abs(f_sq / 0.9 - 1.0) <= 1e-3,
        f"numerical: squeezed vacuum F={f_sq:.8f} vs 0.9",
    )
    return rec


def criterion_5_optima() -> CriterionResult:
    """Budget optima: balanced linear split, 1:3 quadratic split."""
    rec = CriterionResult(5, "coherence-budget optima")
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
    return rec


def criterion_6_sg_scenario() -> CriterionResult:
    """Geometric-series probe: both width routes and their limiting ratio."""
    rec = CriterionResult(6, "non-gaussian phase probe widths")
    gap = 0.0
    for xi in (0.5, 0.9, 0.99):
        run = SCENARIOS["sg"](xi=xi).run()
        d2_wk = signal_uncertainty(run.family(0.0)) ** 2
        rel_wk = abs(d2_wk / sg_wk_variance(xi) - 1.0)
        rec.require(rel_wk <= 1e-6, f"xi={xi}: sampled d2lam rel err {rel_wk:.2e}")
        fisher = run.fisher()
        rel_f = abs(fisher.crb / sg_fisher_variance(xi) - 1.0)
        rec.require(rel_f <= 1e-4, f"xi={xi}: fisher crb rel err {rel_f:.2e}")
        gap = max(gap, _exact_fd_gap(run, fisher.fisher))
    xi = 0.999
    run = SCENARIOS["sg"](xi=xi).run()
    d2_wk = signal_uncertainty(run.family(0.0)) ** 2
    fisher = run.fisher()
    ratio = d2_wk / fisher.crb
    rec.require(
        abs(ratio / (math.pi / 2.0) - 1.0) <= 0.02,
        f"xi={xi}: width ratio {ratio:.6f} vs pi/2 = {math.pi/2:.6f} within 2%",
    )
    gap = max(gap, _exact_fd_gap(run, fisher.fisher))
    rec.require(
        gap <= SG_EXACT_FD_REL,
        f"exact vs finite-difference F, all four xi: rel gap {gap:.1e} <= {SG_EXACT_FD_REL}",
    )
    return rec


def criterion_7_appendix() -> CriterionResult:
    """Generator vs squared-generator coherence: forms, scalings, p0 effects."""
    rec = CriterionResult(7, "generator-power coherence functions")
    dp = 1.0
    grid = grid_for_gaussian(0.0, dp, 1024)
    probe = make_gaussian_probe(GaussianProbeSpec(0.0, dp), grid)
    g1 = coherence_function(probe, make_ideal_ruler(grid))  # Gamma1 / (2*pi), on its own lags
    near = g1.tau_grid <= 4.0 * dp**2  # the 8-sigma grid truncates Gamma1 beyond
    form1 = np.exp(-(g1.tau_grid[near] ** 2) / (8.0 * dp**2))
    err1 = float(np.max(np.abs(2.0 * np.pi * g1.values[near] - form1)))
    rec.require(err1 <= 1e-6, f"linear-generator coherence matches gaussian form: {err1:.2e}")
    g2 = appendix_coherence(probe)
    near = g2.tau_grid <= 4.0 * dp**2
    err2 = float(np.max(np.abs(g2.values[near] - np.exp(-g2.tau_grid[near] / (4.0 * dp**2)))))
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
    g2_shift = appendix_coherence(shifted)  # the same variance: g2's lags, to 1e-15 relative
    dev2 = float(np.max(np.abs(g2_shift.values - g2.values)))
    rec.require(dev2 > 1e-3, f"squared-generator coherence depends on the center: dev {dev2:.3e}")
    # same spacing and length, so both coherence functions share their lags
    g1_shift = coherence_function(shifted, make_ideal_ruler(shifted.grid))
    dev1 = 2.0 * np.pi * float(np.max(np.abs(np.abs(g1_shift.values) - np.abs(g1.values))))
    rec.require(dev1 < 1e-10, f"|linear-generator coherence| center-independent: dev {dev1:.3e}")
    return rec


def criterion_8_ruler_legitimacy() -> CriterionResult:
    """Gaussian seeds pass the legitimacy checks; violations are caught."""
    rec = CriterionResult(8, "ruler legitimacy validation")
    grid = grid_for_gaussian(0.0, 1.0, 256)
    checked = []
    for dphi in (0.5, 1.0):
        seed = make_gaussian_ruler(dphi, grid)
        rep = validate_ruler(seed)
        checked.append((seed, rep))
        rec.require(
            rep.all_pass and rep.diagonal_residual < 1e-10 and rep.positivity_route == "gaussian-bound",
            f"gaussian seed dphi={dphi}: all pass by the gaussian bound, diag residual {rep.diagonal_residual:.2e}, "
            f"min eig >= {rep.min_eigenvalue_lower_bound:.2e}, max eig >= {rep.max_eigenvalue_lower_bound:.6f}",
        )
    doubled = RulerSeed(grid, make_gaussian_ruler(0.5, grid).symbol * 2.0)
    rep_d = validate_ruler(doubled)
    checked.append((doubled, rep_d))
    rec.require(
        not rep_d.flat_diagonal and abs(rep_d.diagonal_residual - FLAT_DIAGONAL) < 1e-12,
        f"doubled kernel: diagonal check fails with residual {rep_d.diagonal_residual:.12e}",
    )
    rng = np.random.default_rng(SEED + 8)
    half = rng.normal(size=grid.n_points) + 1j * rng.normal(size=grid.n_points)  # K(tau >= 0)
    half[0] = FLAT_DIAGONAL
    indefinite = RulerSeed(grid, half)
    rep_i = validate_ruler(indefinite)
    checked.append((indefinite, rep_i))
    rec.require(
        not rep_i.positive and rep_i.positivity_route == "real-form",
        f"random hermitian kernel: positivity fails in the real form (min eig {rep_i.min_eigenvalue:.3e})",
    )
    # against eigvalsh of the dense complex section: the certified bounds lie
    # below its extremes, and the real-form extremes match them
    gap, bounds_hold = 0.0, True
    for seed, rep in checked:
        eig = np.linalg.eigvalsh(seed.kernel * grid.spacing)
        bounds_hold &= rep.min_eigenvalue_lower_bound <= eig[0] and rep.max_eigenvalue_lower_bound <= eig[-1]
        if rep.positivity_route == "real-form":
            scale = max(abs(eig[0]), abs(eig[-1]))
            gap = max(gap, abs(rep.min_eigenvalue - eig[0]) / scale, abs(rep.max_eigenvalue - eig[-1]) / scale)
    rec.require(bounds_hold, f"certified bounds <= dense eigvalsh extremes on all {len(checked)} seeds")
    rec.require(gap <= 1e-13, f"real-form extremes vs dense eigvalsh: gap {gap:.1e} of max|eig| <= 1e-13")
    return rec


def criterion_9_phase_distribution() -> CriterionResult:
    """Phase distribution from its Gamma matches its closed profile and WK pair."""
    rec = CriterionResult(9, "phase-space phase distribution")
    vx, vp = 0.35, 0.875
    pd = phase_distribution_ws(vx, vp)
    rec.require(
        pd.profile_residual <= 1e-3,
        f"sampled profile sup-norm gap {pd.profile_residual:.2e} <= 1e-3",
    )
    rec.require(
        abs(pd.delta2_phi0 - 0.35 * 0.875 / 0.525) <= 1e-10,
        f"heuristic width {pd.delta2_phi0!r} vs 0.58333...",
    )
    # tau_c = (1+r^2)/(1-r^2) on dtau = 1, so Delta phi^2 = pi/tau_c^2 = 4 pi vx vp/(vx+vp)^2
    d2_phi = signal_uncertainty(pd.dist) ** 2
    closed = 4.0 * math.pi * vx * vp / (vx + vp) ** 2
    rec.require(
        abs(d2_phi / closed - 1.0) <= 1e-10,
        f"Delta phi^2 {d2_phi!r} vs 4 pi vx vp/(vx+vp)^2 = {closed!r} (rel 1e-10)",
    )
    gap = abs(wk_product(pd.gamma, pd.dist) - SQRT_PI)
    rec.require(gap <= 1e-5, f"|tau_c * Delta phi - sqrt(pi)| = {gap:.3e} <= 1e-5")
    # displacement terms of the rotation Fisher vs summed inverse phase
    # uncertainties: reported as a diagnostic only, never asserted
    vx_s, vp_s, vx_m, vp_m, x0, p0 = 0.1, 0.625, 0.25, 0.25, 1.0, 0.5
    f_n = closed_form_fn(vx_s, vp_s, vx_m, vp_m, x0, p0).fisher
    vxt, vpt = vx_s + vx_m, vp_s + vp_m
    inv_sum = abs(vxt - vpt) / (vxt * vpt) + x0**2 / vpt + p0**2 / vxt
    rec.note(f"diagnostic: F_N / sum(1/d2phi) = {f_n / inv_sum:.6f} (not asserted)")
    return rec


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

#!/usr/bin/env python3
"""Mutation check: every gate and closed-form bound must be able to fail Tier-1.

    python3 scripts/mutation_check.py

Holds a fixed list of single-line defects, each (file, exact old line, new
line, the test expected to catch it).  For each defect in turn it copies
``src/``, ``tests/``, ``scripts/``, ``README.md`` and ``pyproject.toml``
into a fresh temporary directory, replaces the old line (which must occur
exactly once) by the new one, runs Tier-1 there with ``-x`` and reports
``caught`` with the first failing test, or ``NOT CAUGHT``.  The working
tree is never edited.

A defect whose expected test is None is a known gap: it is reported like
the others, and its outcome does not set the exit status.  Exits 0 when
every other defect is caught and every old line is found.  A defect takes
2 to 20 s on a 2-core host (84 defects in about 6 min), so this script
is not part of the test suite.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "scripts", "README.md", "pyproject.toml")

GATES = "tests/test_coherence.py::TestGates::"
SHIFT = "tests/test_coherence.py::TestExactShift::"
OFFSET_BLUR = "tests/test_coherence.py::TestDirectStatistics::test_offset_blur_seed"
CRITERION_8 = "tests/test_acceptance.py::test_criterion[criterion_8_ruler_legitimacy]"
RULER_ORACLE = "tests/test_ruler.py::test_symbol_report_equals_dense_report"

# (file, exact old line, new line, test expected to catch it first under -x, or None)
DEFECTS = [
    # a grid's spacing: finite and positive
    ("src/qruler/grids.py",
     "        if not 0.0 < self.spacing < np.inf:  # the span overflows, or its share of n-1 underflows",
     "        if False:",
     "tests/test_cli.py::TestValidateRulerCommand::test_spacing_must_be_finite_and_positive"),
    # a grid's points distinct and evenly rounded at the magnitude of its bounds
    ("src/qruler/grids.py",
     "        if math.ulp(max(abs(self.g_min), abs(self.g_max))) > ULP_SHARE * self.spacing:",
     "        if False:",
     "tests/test_cli.py::TestValidateRulerCommand::test_points_must_be_distinct"),
    # a Gaussian probe's 4*sigma^2, which must not underflow to 0
    ("src/qruler/states.py",
     "    if var4 == 0.0:",
     "    if False:",
     "tests/test_cli.py::TestExtremeWidths::test_domain_error[wk-nan]"),
    # the Gamma(0) gates of the coherence function, NaN-safe: a NaN fails them
    ("src/qruler/coherence.py",
     "        if not 2.0 * abs(self.values[0].imag) <= SYMMETRY_TOL:  # hfft would drop Im Gamma(0)",
     "        if False:",
     GATES + "test_gamma0_real_gate"),
    ("src/qruler/coherence.py",
     "    if not abs(g0 - FLAT_DIAGONAL) <= GAMMA0_TOL:",
     "    if False:",
     GATES + "test_gamma0_normalization_gate"),
    ("src/qruler/coherence.py",
     "    if not abs(g0 - FLAT_DIAGONAL) <= GAMMA0_TOL:",
     "    if abs(g0 - FLAT_DIAGONAL) > GAMMA0_TOL:",
     GATES + "test_nan_fails_each_gate"),
    ("src/qruler/coherence.py",
     "        if self.tau_grid[0] != 0.0:  # a symmetric tau grid would make gamma0 read Gamma(-tau_max)",
     "        if False:",
     "tests/test_coherence.py::TestCoherenceFunction::test_first_lag_is_zero"),
    # the exact-argument shift: s = dtau*delta as four split pieces, the
    # coarse stride B of the two-level table, Gamma(0) untouched, the guards
    ("src/qruler/coherence.py",
     "    return (*_split(p), *_split(e))",
     "    return (*_split(p), 0.0, 0.0)",
     SHIFT + "test_phase_error_is_a_few_ulps"),
    ("src/qruler/coherence.py",
     "    return (*_split(p), *_split(e))",
     "    return (p, 0.0, *_split(e))",
     "tests/test_coherence.py::TestHermitianTransform::test_matches_complex_fft_route"),
    ("src/qruler/coherence.py",
     "        k = np.concatenate([np.arange(coarse) * float(fine), np.arange(fine, dtype=float)])",
     "        k = np.concatenate([np.arange(coarse) * float(coarse), np.arange(fine, dtype=float)])",
     "tests/test_acceptance.py::test_criterion"),
    ("src/qruler/coherence.py",
     "        out[0] = self.values[0]",
     "        pass",
     "tests/test_acceptance.py::test_criterion"),
    ("src/qruler/coherence.py",
     "        if not math.isfinite(delta):",
     "        if False:",
     SHIFT + "test_signal_out_of_range_is_refused"),
    ("src/qruler/coherence.py",
     "        if not max(abs(delta), abs(dtau), abs(dtau * delta)) <= SPLIT_MAX:",
     "        if False:",
     "tests/test_cli.py::TestFisherCommand::test_signal_beyond_the_exact_split_is_domain_error"),
    ("src/qruler/coherence.py",
     "        if not h <= EXACT_INDEX:",
     "        if False:",
     SHIFT + "test_lags_beyond_the_exact_index_are_refused"),
    # the density gates of _finalize_density
    ("src/qruler/coherence.py",
     "        if not max_imag <= IMAG_TOL * max(1.0, float(np.max(np.abs(raw.real)))):",
     "        if False:",
     GATES + "test_realness_gate"),
    ("src/qruler/coherence.py",
     "    if not low >= -NEGATIVE_CLIP * peak:",
     "    if False:",
     GATES + "test_negative_gate_and_clip"),
    # ... relative to the peak: an absolute gate refuses a sharp law's roundoff
    ("src/qruler/coherence.py",
     "    if not low >= -NEGATIVE_CLIP * peak:",
     "    if not low >= -NEGATIVE_CLIP:",
     GATES + "test_negative_gate_and_clip"),
    ("src/qruler/coherence.py",
     "    np.maximum(dens, 0.0, out=dens)  # what np.clip(dens, 0.0, None) calls, without its wrapper",
     "    pass",
     GATES + "test_negative_gate_and_clip"),
    ("src/qruler/coherence.py",
     "    if not abs(norm - 1.0) <= NORM_HARD_TOL:",
     "    if False:",
     GATES + "test_norm_gate"),
    ("src/qruler/coherence.py",
     "    dens /= norm",
     "    pass",
     "tests/test_coherence.py::TestOutcomeAxis::test_product_law_to_roundoff"),
    # the orientation of a complex seed: the one mirror, the direct route's kernel, Gamma's K(tau)
    ("src/qruler/ruler.py",
     "    return sliding_window_view(np.concatenate([np.conj(k[:0:-1]), k]), k.size)[:, ::-1]",
     "    return sliding_window_view(np.concatenate([k[:0:-1], k]), k.size)[:, ::-1]",
     CRITERION_8),
    ("src/qruler/coherence.py",
     "    b = np.outer(psi, np.conj(psi)) * ruler.kernel.T",
     "    b = np.outer(psi, np.conj(psi)) * ruler.kernel",
     OFFSET_BLUR),
    ("src/qruler/coherence.py",
     "    gamma = ruler.symbol * corr[-np.arange(n)] * probe.grid.spacing  # Gamma(tau) reads corr at -tau",
     "    gamma = np.conj(ruler.symbol) * corr[-np.arange(n)] * probe.grid.spacing",
     OFFSET_BLUR),
    # a Gaussian seed's width: 0 is the ideal ruler, a negative or NaN width is refused
    ("src/qruler/ruler.py",
     "    if not delta_phi_m >= 0:",
     "    if False:",
     "tests/test_ruler.py::test_non_positive_width"),
    ("src/qruler/ruler.py",
     "    if not delta_phi_m >= 0:",
     "    if delta_phi_m < 0:",
     "tests/test_ruler.py::test_non_positive_width"),
    # ruler legitimacy: the real form's gate
    ("src/qruler/ruler.py",
     '        route, positive = "real-form", lo >= -POSITIVITY_REL_TOL * max(hi, 0.0)',
     '        route, positive = "real-form", lo >= -1e-2 * max(hi, 0.0)',
     "tests/test_ruler.py::test_positivity_gate_trips_at_its_tolerance"),
    # the O(n) Gaussian-reference certificate: its gate, the l1 distance, the
    # roundoff term, the Rayleigh quotient (swapped for the sum of |t_k|, an
    # upper bound on lambda_max, which loosens the gate), the fallback to the
    # real form, and the rate read at the farthest well-conditioned lag
    ("src/qruler/ruler.py",
     "    if math.isfinite(hi_bound) and lo_bound >= -POSITIVITY_REL_TOL * max(hi_bound, 0.0):  # else -inf >= -tol * inf",
     "    if math.isfinite(hi_bound) and lo_bound >= -1e-2 * max(hi_bound, 0.0):",
     "tests/test_ruler.py::test_positivity_gate_trips_at_its_tolerance"),
    ("src/qruler/ruler.py",
     "    if math.isfinite(hi_bound) and lo_bound >= -POSITIVITY_REL_TOL * max(hi_bound, 0.0):  # else -inf >= -tol * inf",
     "    if lo_bound >= -POSITIVITY_REL_TOL * max(hi_bound, 0.0):",
     "tests/test_ruler.py::test_a_non_finite_symbol_is_not_certified"),
    ("src/qruler/ruler.py",
     "        ell1 = 2.0 * dist.sum() - dist[0]",
     "        ell1 = 0.0",
     CRITERION_8),
    ("src/qruler/ruler.py",
     "        roundoff = EPS * ((n + 3) * ell1 + 2.0 * mass - 4.0 * (c + mag[0]))",
     "        roundoff = 0.0",
     CRITERION_8),
    ("src/qruler/ruler.py",
     "        rho = y[0].real + 2.0 / n * np.dot(n - k[1:], y[1:].real)",
     "        rho = 2.0 * mag.sum() - mag[0]",
     CRITERION_8),
    ("src/qruler/ruler.py",
     "        lo, hi = _section_extremes(t)",
     "        lo, hi = lo_bound, hi_bound",
     CRITERION_8),
    ("src/qruler/ruler.py",
     "    far = max(n - 1 - int(np.argmax(mag[::-1] >= FIT_FLOOR * c)), 1)  # any r <= 0 is sound; this one is tight",
     "    far = 1",
     "tests/test_ruler.py::test_every_gaussian_seed_takes_the_certificate"),
    # the Toeplitz section's real form: the Hankel's sign and lag, the
    # complex symbol's coupling block, an odd n's middle weight, Re K(0)
    ("src/qruler/ruler.py",
     "    plus = lead + hankel",
     "    plus = lead - hankel",
     CRITERION_8),
    ("src/qruler/ruler.py",
     "    hankel = sliding_window_view(np.conj(t[::-1][: 2 * p - 1]), p)  # [a, b] -> t_{a+b-(n-1)}",
     "    hankel = sliding_window_view(np.conj(t[-2::-1][: 2 * p - 1]), p)",
     CRITERION_8),
    ("src/qruler/ruler.py",
     "    m[p:, :p] = plus.imag[:q]",
     "    m[p:, :p] = 0.0",
     CRITERION_8),
    ("src/qruler/ruler.py",
     "        plus[-1, :-1] *= np.sqrt(0.5)",
     "        pass",
     RULER_ORACLE),
    ("src/qruler/ruler.py",
     "        plus[-1, -1] *= 0.5",
     "        pass",
     RULER_ORACLE),
    ("src/qruler/ruler.py",
     "        plus[-1, -1] *= 0.5",
     "        plus[-1, -1] *= 1.0",
     RULER_ORACLE),
    # a NaN or infinite lag, refused before either route runs
    ("src/qruler/ruler.py",
     "    if not np.isfinite(t).all():",
     "    if False:",
     "tests/test_ruler.py::test_a_non_finite_symbol_is_not_certified"),
    ("src/qruler/ruler.py",
     "    t[0] = t[0].real",
     "    pass",
     "tests/test_ruler.py::test_imaginary_k0_is_not_in_the_section"),
    # an outcome density's axes: the shape check, the joint cell, the family's shared axes
    ("src/qruler/coherence.py",
     "        if self.density.shape != shape:",
     "        if False:",
     "tests/test_coherence.py::TestOutcomeAxis::test_shape_must_match_the_axes"),
    ("src/qruler/coherence.py",
     "        return self.mu_grid.spacing * (1.0 if self.k_grid is None else self.k_grid.spacing)",
     "        return self.mu_grid.spacing",
     "tests/test_acceptance.py::test_criterion"),
    ("src/qruler/fisher.py",
     "            if dist.mu_grid != center.mu_grid or dist.k_grid != center.k_grid:",
     "            if False:",
     "tests/test_fisher.py::TestFisherFromFamily::test_joint_members_on_different_k_axes"),
    # the finite-difference Fisher information
    ("src/qruler/fisher.py",
     "    mask = center.density >= DENSITY_FLOOR * np.max(center.density)",
     "    mask = center.density >= 1e-3 * np.max(center.density)",
     "tests/test_acceptance.py::test_criterion"),
    # the streamed stencil: the +/- 2*step members dropped (d2 = d1, so the
    # Richardson combination is d1), and d2's divisor 4*step
    ("src/qruler/fisher.py",
     "    d1, d2 = difference(1), difference(2)",
     "    d1, d2 = difference(1), difference(1)",
     "tests/test_acceptance.py::test_criterion"),
    ("src/qruler/fisher.py",
     "        diff /= 2.0 * d * step",
     "        diff /= 2.0 * step",
     "tests/test_acceptance.py::test_criterion"),
    ("src/qruler/fisher.py",
     "    if f_r > FISHER_FLOOR and residual > RESIDUAL_GATE:",
     "    if False:",
     "tests/test_cli.py::TestFisherCommand::test_nonlinear_step_too_large_fails_richardson"),
    # closed-form quantum Fisher informations
    ("src/qruler/scenarios.py",
     "    qfi = 2.0 * fisher  # QFI = 4 Var(N) = 2 F here, 0 for the vacuum",
     "    qfi = 4.0 * fisher",
     "tests/test_scenarios.py::TestClosedFormQfi::test_sg_number_qfi"),
    ("src/qruler/fisher.py",
     "        qfi = 8.0 * vp_s**2 + 16.0 * p0**2 * vp_s  # 4*Var(P^2), Gaussian probe",
     "        qfi = 8.0 * vp_s**2 + 32.0 * p0**2 * vp_s",
     "tests/test_scenarios.py::TestClosedFormQfi::test_quadratic_generator_qfi"),
    ("src/qruler/scenarios.py",
     "    return 2.0 * (vx**2 + vp**2) - 1.0 + 4.0 * (vx * x0**2 + vp * p0**2)",
     "    return 2.0 * (vx**2 + vp**2) - 1.0 + 8.0 * (vx * x0**2 + vp * p0**2)",
     "tests/test_scenarios.py::TestJointReadout::test_qfi_comes_from_the_closed_form"),
    ("src/qruler/budget.py",
     "        qfi=0.5 * (0.75 * c) ** 2,",
     "        qfi=1.0 * (0.75 * c) ** 2,",
     "tests/test_acceptance.py::test_criterion"),
    # the phase-cs momentum wavefunction: the quarter turn's means (p0, -x0) and swapped variances
    ("src/qruler/scenarios.py",
     "    turned = (vp_s, sc.p0, -sc.x0)",
     "    turned = (vp_s, sc.p0, +sc.x0)",
     "tests/test_scenarios.py::TestJointReadout::test_coherent_squeezed_matches_oracle"),
    ("src/qruler/scenarios.py",
     "    turned = (vp_s, sc.p0, -sc.x0)",
     "    turned = (sc.vx_s, sc.p0, -sc.x0)",
     "tests/test_acceptance.py::test_criterion"),
    # the joint readout as one FFT per window: the twist e^{i j dp m_0}, the
    # fold modulo M, and the state grid's dual spacing dp*dm = 2*pi/M
    ("src/qruler/scenarios.py",
     "    twist = np.exp(1j * grid.spacing * m_grid.g_min * np.arange(grid.n_points))",
     "    twist = np.ones(grid.n_points)",
     "tests/test_scenarios.py::TestCoherentSqueezed::test_quarter_turn_permutes_outcomes"),
    ("src/qruler/scenarios.py",
     "            rows[:, : grid.n_points - j] += window[:, j : j + m] * twisted[j : j + m]",
     "            pass",
     "tests/test_scenarios.py::test_joint_build_and_fisher_keep_no_phase_table"),
    ("src/qruler/scenarios.py",
     "    dp = 2.0 * math.pi / (m_grid.n_points * m_grid.spacing)",
     "    dp = 2.0 * math.pi / ((m_grid.n_points - 1) * m_grid.spacing)",
     "tests/test_acceptance.py::test_criterion"),
    # the 1-D transform's fftshift: the negative-mu half starts at output h
    ("src/qruler/coherence.py",
     "    np.multiply(dtau, raw[h:], out=out[: h - 1])",
     "    np.multiply(dtau, raw[h - 1 : -1], out=out[: h - 1])",
     "tests/test_acceptance.py::test_criterion"),
    # the exact-derivative Fisher information: dp of the 1-D transform and
    # of the joint readout, its share of the norm, the rotation's dpsi, the bound
    ("src/qruler/coherence.py",
     "    raw, d_raw = _transform(gamma, values), _transform(gamma, 1j * gamma.tau_grid * values)",
     "    raw, d_raw = _transform(gamma, values), _transform(gamma, values)",
     "tests/test_acceptance.py::test_criterion"),
    ("src/qruler/scenarios.py",
     "        dp /= np.pi",
     "        dp /= 2.0 * np.pi",
     "tests/test_acceptance.py::test_criterion"),
    ("src/qruler/scenarios.py",
     "        dp += np.multiply(overlap.imag, d_overlap.imag, out=d_overlap.imag)  # in dO's place",
     "        dp -= np.multiply(overlap.imag, d_overlap.imag, out=d_overlap.imag)",
     "tests/test_acceptance.py::test_criterion"),
    ("src/qruler/coherence.py",
     "        arr /= norm",
     "        pass",
     "tests/test_coherence.py::TestGates::test_scaled_arrays_share_the_norm"),
    ("src/qruler/scenarios.py",
     "    g = -2.0 * alpha * (x_axis - mean_x) + 1j * mean_p",
     "    g = -2.0 * alpha * (x_axis - mean_x) - 1j * mean_p",
     "tests/test_scenarios.py::test_exact_fisher_matches_finite_differences"),
    # the one quantum-bound gate, its absolute floor, and a NaN or negative F
    ("src/qruler/fisher.py",
     "        if self.qfi is not None and not self.fisher <= self.qfi * (1.0 + QFI_SLACK) + FISHER_FLOOR:",
     "        if False:",
     "tests/test_cli.py::TestFisherCommand::test_fisher_above_the_quantum_bound_is_domain_error"),
    ("src/qruler/fisher.py",
     "        if self.qfi is not None and not self.fisher <= self.qfi * (1.0 + QFI_SLACK) + FISHER_FLOOR:",
     "        if self.qfi is not None and not self.fisher <= self.qfi * (1.0 + QFI_SLACK):",
     "tests/test_fisher.py::TestFisherReport::test_bound_headroom_is_relative_plus_the_floor"),
    ("src/qruler/fisher.py",
     "        if not self.fisher >= 0:",
     "        if self.fisher < 0:",
     "tests/test_fisher.py::TestFisherReport::test_negative_or_nan_fisher_is_domain_error"),
    # the Richardson step a run derives from its closed-form CRB
    ("src/qruler/scenarios.py",
     "        return 1e-3 * math.sqrt(crb) if 0 < crb < math.inf else 1e-4",
     "        return 1e-2 * math.sqrt(crb) if 0 < crb < math.inf else 1e-4",
     "tests/test_cli.py::TestFisherCommand::test_nonlinear_stencil_past_lambda_pad_is_too_narrow"),
    # the nonlinear run's sized lambda range, which a stencil must stay inside
    ("src/qruler/scenarios.py",
     "        if abs(lam) > sc.lambda_pad * (1.0 + 1e-9):",
     "        if False:",
     "tests/test_scenarios.py::TestNonlinear::test_lambda_outside_sized_range"),
    # the linear outcome axis must hold x0 and its SPAN_SIGMAS sigmas, or the law wraps
    ("src/qruler/scenarios.py",
     "    if not abs(sc.x0) + SPAN_SIGMAS * math.hypot(sc.dx_s, sc.dx_m) <= (half := run.gamma.dual_axis.g_max):",
     "    if False:",
     "tests/test_cli.py::TestScenarioCommand::test_linear_center_off_the_axis_exits_3"),
    # the joint state grid: the span each runner asks of it, the fewest
    # points, the ceiling and its NaN-safe comparison
    ("src/qruler/scenarios.py",
     "    grid = state_grid(sc.p0, SPAN_SIGMAS * sigma_p, m_grid)",
     "    grid = state_grid(sc.p0, sigma_p, m_grid)",
     "tests/test_scenarios.py::test_joint_build_and_fisher_keep_no_phase_table"),
    ("src/qruler/scenarios.py",
     "    grid = state_grid(0.0, half_state, m_grid)",
     "    grid = state_grid(0.0, 0.5 * half_state, m_grid)",
     "tests/test_scenarios.py::test_joint_build_and_fisher_keep_no_phase_table"),
    ("src/qruler/scenarios.py",
     "    n = max(MIN_POINTS, math.ceil(cells) + 1)",
     "    n = max(MIN_POINTS, math.ceil(cells) + 2)",
     "tests/test_scenarios.py::TestStateSampling::test_state_grid_is_the_fewest_that_span_the_m_axis"),
    ("src/qruler/scenarios.py",
     "    if not cells + 1.0 <= MAX_STATE_POINTS:",
     "    if False:",
     "tests/test_scenarios.py::TestStateSampling::test_a_count_out_of_range_is_too_narrow"),
    ("src/qruler/scenarios.py",
     "    if not cells + 1.0 <= MAX_STATE_POINTS:",
     "    if cells + 1.0 > MAX_STATE_POINTS:",
     "tests/test_scenarios.py::TestStateSampling::test_a_count_out_of_range_is_too_narrow"),
    # the phase-space phase distribution's Poisson-kernel Gamma and its tail gate
    ("src/qruler/scenarios.py",
     "    vals[::2] = r ** np.arange((h + 1) // 2) / (2.0 * np.pi)",
     "    vals[: (h + 1) // 2] = r ** np.arange((h + 1) // 2) / (2.0 * np.pi)",
     "tests/test_acceptance.py::test_criterion"),
    ("src/qruler/scenarios.py",
     "    r = (s - 1.0) / (s + 1.0)",
     "    r = (1.0 - s) / (s + 1.0)",
     "tests/test_acceptance.py::test_criterion"),
    ("src/qruler/scenarios.py",
     "    if tail > TAIL_TOL:",
     "    if False:",
     "tests/test_scenarios.py::TestPhaseDistribution::test_poisson_tail_gate"),
    # the phase lattice: its lower-edge gate, the wrap gate of its continuum
    # closed form, unit spacing and the ceiling on its size
    ("src/qruler/scenarios.py",
     "    if not SPAN_SIGMAS * sc.dn_s <= sc.n_mean < math.inf:",
     "    if not 5.0 * sc.dn_s <= sc.n_mean < math.inf:",
     "tests/test_scenarios.py::TestPhaseGaussian::test_lower_edge_keeps_the_lattice_in_n_nonnegative"),
    ("src/qruler/scenarios.py",
     "    if not sigma_phi <= math.pi / WRAP_SIGMAS:",
     "    if False:",
     "tests/test_cli.py::TestFisherCommand::test_phase_blur_that_wraps_the_circle_is_domain_error[dphim-60]"),
    ("src/qruler/scenarios.py",
     "    probe = make_gaussian_probe(GaussianProbeSpec(sc.n_mean, sc.dn_s), GeneratorGrid(lo, hi, hi - lo + 1))",
     "    probe = make_gaussian_probe(GaussianProbeSpec(sc.n_mean, sc.dn_s), GeneratorGrid(lo, hi, hi - lo + 2))",
     "tests/test_scenarios.py::TestPhaseGaussian::test_probe_sits_on_the_integer_lattice"),
    ("src/qruler/scenarios.py",
     "    if not hi - lo < MAX_LATTICE_POINTS:",
     "    if False:",
     "tests/test_scenarios.py::TestPhaseGaussian::test_lattice_above_the_ceiling_is_refused_before_allocation"),
    # the sg number lattice's ceiling, derived or explicit n_max
    ("src/qruler/states.py",
     "    if not n_max < MAX_LATTICE_POINTS:",
     "    if False:",
     "tests/test_cli.py::TestWkProbeSpec::test_sg_lattice_above_the_ceiling_exits_3"),
    # each budget objective's optimum: the nonlinear one is a maximum
    ("src/qruler/budget.py",
     'OBJECTIVES = {"linear": (linear_objective, np.argmin), "nonlinear": (nonlinear_objective, np.argmax)}',
     'OBJECTIVES = {"linear": (linear_objective, np.argmin), "nonlinear": (nonlinear_objective, np.argmin)}',
     "tests/test_budget.py::TestSweep::test_nonlinear_maximum_bin"),
    # the m axis's drift 2*lambda*p0 under the shear, over +/- lambda_pad
    ("src/qruler/scenarios.py",
     "    m_half += 2.0 * sc.lambda_pad * abs(sc.p0)",
     "    pass",
     "tests/test_scenarios.py::TestGaussianLaw::test_axes_hold_the_law_over_the_lambda_range"),
]

FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def mutated_copy(dest: str, path: str, old: str, new: str) -> bool:
    """Copy the tree into ``dest`` with ``old`` replaced; False when ``old`` is not there exactly once."""
    for name in COPIED:
        src = os.path.join(ROOT, name)
        if os.path.isdir(src):
            shutil.copytree(src, os.path.join(dest, name),
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, os.path.join(dest, name))
    target = os.path.join(dest, path)
    with open(target, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    if lines.count(old) != 1:
        return False
    lines[lines.index(old)] = new
    with open(target, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    return True


def first_failure(workdir: str) -> str | None:
    """Run Tier-1 with -x in ``workdir``; the first failing test, or None when all pass."""
    env = {**os.environ, "PYTHONPATH": os.path.join(workdir, "src")}
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=workdir, env=env, capture_output=True, text=True,
    )
    if out.returncode == 0:
        return None
    found = FAILED.search(out.stdout)
    return found.group(1) if found else f"pytest exit {out.returncode}"


def main() -> int:
    ok = True
    for i, (path, old, new, expected) in enumerate(DEFECTS):
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="mutation-") as tmp:
            if not mutated_copy(tmp, path, old, new):
                print(f"STALE {i}: {path}: old line not found exactly once: {old.strip()}")
                ok = False
                continue
            caught = first_failure(tmp)
        took = time.perf_counter() - start
        verdict = f"caught by {caught}" if caught else "NOT CAUGHT"
        known = "known gap" if expected is None else f"expected {expected}"
        print(f"{i:2d} {path}: {old.strip()} -> {new.strip()}: {verdict} ({known}; {took:.0f} s)",
              flush=True)
        if expected is not None and caught is None:
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

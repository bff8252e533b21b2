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
4 to 16 s on a 2-core host (40 defects in 4.6 to 6.1 min), so this script
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
    # the density gates of _finalize_density
    ("src/qruler/coherence.py",
     "        if not max_imag <= IMAG_TOL * max(1.0, float(np.max(np.abs(raw.real)))):",
     "        if False:",
     GATES + "test_realness_gate"),
    ("src/qruler/coherence.py",
     "    if not float(np.min(dens)) >= -NEGATIVE_CLIP:",
     "    if False:",
     GATES + "test_negative_gate_and_clip"),
    ("src/qruler/coherence.py",
     "    np.clip(dens, 0.0, None, out=dens)",
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
    # ruler legitimacy
    ("src/qruler/ruler.py",
     "        positive=lo >= -POSITIVITY_REL_TOL * max(hi, 0.0),",
     "        positive=lo >= -1e-2 * max(hi, 0.0),",
     "tests/test_ruler.py::test_positivity_gate_trips_at_its_tolerance"),
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
     "        if dist.mu_grid != center.mu_grid or dist.k_grid != center.k_grid:",
     "        if False:",
     "tests/test_fisher.py::TestFisherFromFamily::test_joint_members_on_different_k_axes"),
    # the finite-difference Fisher information
    ("src/qruler/fisher.py",
     "    mask = center.density >= DENSITY_FLOOR * np.max(center.density)",
     "    mask = center.density >= 1e-3 * np.max(center.density)",
     "tests/test_acceptance.py::test_criterion"),
    ("src/qruler/fisher.py",
     "    dr = (4.0 * d1 - d2) / 3.0",
     "    dr = d1",
     "tests/test_cli.py::TestFisherCommand::test_nonlinear_step_widens_the_sized_range"),
    ("src/qruler/fisher.py",
     "    if f_r > 1e-12 and residual > RESIDUAL_GATE:",
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
     "        grid, sc.vx_m, m_grid, k_grid, lambda lam: rotate_gaussian(vp_s, sc.p0, -sc.x0, lam, grid.points)",
     "        grid, sc.vx_m, m_grid, k_grid, lambda lam: rotate_gaussian(vp_s, sc.p0, +sc.x0, lam, grid.points)",
     "tests/test_scenarios.py::TestJointReadout::test_coherent_squeezed_matches_oracle"),
    ("src/qruler/scenarios.py",
     "        grid, sc.vx_m, m_grid, k_grid, lambda lam: rotate_gaussian(vp_s, sc.p0, -sc.x0, lam, grid.points)",
     "        grid, sc.vx_m, m_grid, k_grid, lambda lam: rotate_gaussian(sc.vx_s, sc.p0, -sc.x0, lam, grid.points)",
     "tests/test_acceptance.py::test_criterion"),
    # the nonlinear run's sized lambda range, wide enough for its own default stencil
    ("src/qruler/scenarios.py",
     "    pad = max(sc.lambda_pad, 2.0 * step)  # the default stencil reaches lambda = +/- 2*step",
     "    pad = sc.lambda_pad",
     "tests/test_cli.py::TestFisherCommand::test_nonlinear_default_stencil_fits_the_sized_range"),
    ("src/qruler/scenarios.py",
     "        if abs(lam) > pad * (1.0 + 1e-9):",
     "        if False:",
     "tests/test_scenarios.py::TestNonlinear::test_lambda_outside_sized_range"),
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
    # no test sees the m-axis drift until the outcome axes get an edge-mass gate
    ("src/qruler/scenarios.py",
     "    m_half += 2.0 * pad * abs(sc.p0)",
     "    pass",
     None),
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

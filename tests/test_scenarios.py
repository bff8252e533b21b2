import math
import tracemalloc

import numpy as np
import pytest
from test_coherence import BENCH_RUNS, grid_lags, trace_coherence

from qruler import acceptance, cli, scenarios
from qruler.coherence import (
    CoherenceFunction,
    _finalize_density,
    coherence_function,
    coherence_time,
    signal_uncertainty,
    statistics_from_coherence,
    wk_product,
)
from qruler.errors import ContinuumApproxViolated, GridTooNarrow, NonPositiveSigma
from qruler.fisher import closed_form_fp2, fisher_from_family, qfi_pure
from qruler.grids import GeneratorGrid, grid_for_gaussian
from qruler.ruler import make_gaussian_ruler, make_ideal_ruler
from qruler.scenarios import (
    SCENARIOS,
    CoherentSqueezedScenario,
    LinearScenario,
    NonlinearScenario,
    PhaseGaussianScenario,
    SGScenario,
    phase_distribution_ws,
    rotate_gaussian,
    run_linear,
    run_nonlinear,
    run_phase_coherent_squeezed,
    run_phase_gaussian,
    run_phase_sg,
    sg_closed_form_density,
    sg_fisher_variance,
    sg_wk_variance,
)
from qruler.states import GaussianProbeSpec, SGProbeSpec, make_gaussian_probe, make_sg_probe

SQRT_PI = math.sqrt(math.pi)


def rotate_by_propagator(
    psi0: np.ndarray, grid: GeneratorGrid, lam: float
) -> np.ndarray:
    """Grid-based rotation through the harmonic propagator, for cross-checks.

    psi_lam(x) = integral dx' K(x, x') psi0(x') with the oscillator kernel
    K = (2 pi i sin lam)^{-1/2} exp(i[(x^2+x'^2) cos lam - 2 x x']/(2 sin lam)).
    Accurate for moderate angles; useless as sin(lam) -> 0 where the kernel
    degenerates to a delta.  Result carries an arbitrary global phase.
    """
    s = math.sin(lam)
    if abs(s) < 1e-3:
        raise ValueError("propagator route degenerates for small angles")
    x = grid.points
    c = math.cos(lam)
    kernel = np.exp(1j * ((x[:, None] ** 2 + x[None, :] ** 2) * c - 2.0 * np.outer(x, x)) / (2.0 * s))
    kernel = kernel / np.sqrt(2.0j * np.pi * s)
    return (kernel @ psi0) * grid.spacing


def window_fourier_overlap(values, axis, spacing, window_sigma, centers, freqs,
                           complex_product=False):
    """Oracle: the joint overlap with its window and phases rebuilt per call.

    O[c, f] = N_w * sum_x e^{-(x - center_c)^2/(4 sw^2)} values(x) e^{i x freq_f} dx
    with N_w = (window_sigma * sqrt(2*pi))^{-1/2}.  By default grouped as the
    readout groups it: the real window times values*phases, one real GEMM
    on interleaved real and imaginary columns.  ``complex_product`` takes
    the complex product (window*values) @ e^{i x freq} instead.
    """
    window = np.exp(-((axis[None, :] - centers[:, None]) ** 2) / (4.0 * window_sigma**2))
    phases = np.exp(1j * np.outer(axis, freqs))
    if complex_product:
        overlap = (window * values[None, :]) @ phases
    else:
        overlap = (window @ (values[:, None] * phases).view(np.float64)).view(complex)
    overlap *= spacing / math.sqrt(window_sigma * math.sqrt(2.0 * math.pi))
    return overlap


def gaussian_probe(center, sigma, n_points, conjugate_center=0.0):
    """The Gaussian probe a 1-D or nonlinear spec describes, on its own grid."""
    grid = grid_for_gaussian(center, sigma, n_points)
    return make_gaussian_probe(GaussianProbeSpec(center, sigma, conjugate_center), grid)


def nonlinear_oracle(sc, lam, m_grid, k_grid, complex_product=False):
    """Momentum-space projection of e^{-i lam p^2} psi0: windows centered at -k."""
    probe = gaussian_probe(sc.p0, math.sqrt(1.0 / (4.0 * sc.vx_s)), sc.n_points, -sc.x0)
    grid = probe.grid
    psi = probe.amplitudes * np.exp(-1j * lam * grid.points**2)
    overlap = window_fourier_overlap(
        psi, grid.points, grid.spacing, 1.0 / (2.0 * math.sqrt(sc.vx_m)), -k_grid.points, m_grid.points,
        complex_product,
    )
    return _finalize_density(m_grid, np.abs(overlap.T) ** 2 / (2.0 * np.pi), k_grid=k_grid)


def coherent_squeezed_grid(sc):
    """The symmetric state grid run_phase_coherent_squeezed samples on."""
    sig_max = math.sqrt(max(sc.vx_s, 1.0 / (4.0 * sc.vx_s)))
    half = 8.0 * sig_max + math.hypot(sc.x0, sc.p0)
    return GeneratorGrid(-half, half, sc.n_points)


def coherent_squeezed_oracle(sc, lam, m_grid, k_grid, complex_product=False):
    """Momentum-space projection of the rotated Gaussian: windows centered at -k."""
    grid = coherent_squeezed_grid(sc)
    psi = rotate_gaussian(1.0 / (4.0 * sc.vx_s), sc.p0, -sc.x0, lam, grid.points)
    overlap = window_fourier_overlap(
        psi, grid.points, grid.spacing, 1.0 / (2.0 * math.sqrt(sc.vx_m)), -k_grid.points, m_grid.points,
        complex_product,
    )
    return _finalize_density(m_grid, np.abs(overlap.T) ** 2 / (2.0 * np.pi), k_grid=k_grid)


def coherent_squeezed_position_oracle(sc, lam, m_grid, k_grid):
    """Position-space projection of the rotated Gaussian: windows centered at m.

    Independent of the quarter turn the run relies on: the position
    wavefunction is rotate_gaussian's own, read out by a window of width
    sqrt(vx_m) centered at m with phase e^{ixk}.
    """
    grid = coherent_squeezed_grid(sc)
    psi = rotate_gaussian(sc.vx_s, sc.x0, sc.p0, lam, grid.points)
    overlap = window_fourier_overlap(
        psi, grid.points, grid.spacing, math.sqrt(sc.vx_m), m_grid.points, k_grid.points
    )
    return _finalize_density(m_grid, np.abs(overlap) ** 2 / (2.0 * np.pi), k_grid=k_grid)


# small specs of every SCENARIOS kind, each valid at lambda0 = 0.3
KIND_FIELDS = {
    "linear": {"dx_s": 0.5, "dx_m": 0.5},
    "phase": {"n_mean": 100.0, "dn_s": 5.0, "dphi_m": 0.1},
    "sg": {"xi": 0.9},
    "nonlinear": {"vx_s": 0.25, "vx_m": 0.25, "n_points": 256, "m_points": 64,
                  "k_points": 64, "lambda_pad": 0.32},
    "phase-cs": {"vx_s": 0.2, "vx_m": 0.5, "x0": 1.0, "n_points": 256, "m_points": 64,
                 "k_points": 64},
}


@pytest.mark.parametrize("kind", sorted(SCENARIOS))
def test_run_fisher_is_fisher_from_family(kind):
    run = SCENARIOS[kind](**KIND_FIELDS[kind]).run()
    assert run.fisher() == fisher_from_family(run.family, 0.0, run.default_step, qfi=run.qfi)
    step = 2.0 * run.default_step
    assert run.fisher(0.3, step=step) == fisher_from_family(run.family, 0.3, step, qfi=run.qfi)


def test_grid_sizes_are_keyword_only():
    with pytest.raises(TypeError):
        LinearScenario(0.5, 0.5, 0.0, 0.0, 64)
    with pytest.raises(TypeError):
        NonlinearScenario(0.25, 0.25, 0.0, 0.0, 256)
    assert NonlinearScenario(0.25, 0.25, n_points=256, lambda_pad=0.1).n_points == 256


def test_runs_call_the_module_level_runner(monkeypatch, tmp_path):
    # a run resolves run_* by module attribute at call time, so a patched
    # runner (a tracer's, say) sees the command line's and acceptance's runs
    calls = []

    def spy(spec):
        calls.append(spec)
        return run_linear(spec)

    monkeypatch.setattr(scenarios, "run_linear", spy)
    assert cli.main([
        "fisher", "--scenario", "linear", "--dxs", "0.5", "--dxm", "0.5", "--out", str(tmp_path),
    ]) == 0
    assert calls == [LinearScenario(0.5, 0.5)]
    assert acceptance.criterion_3_crb_coincidence().passed
    assert calls[1:] == [LinearScenario(0.5, 0.5), LinearScenario(0.5, 0.0)]


class TestLinear:
    def test_peak_and_variance(self):
        run = run_linear(LinearScenario(dx_s=0.5, dx_m=0.5))
        p = run.family(0.0)
        assert abs(p.mu_grid.points[np.argmax(p.density)]) < p.mu_grid.spacing
        assert p.variance() == pytest.approx(0.5, rel=1e-8)
        assert p.mean() == pytest.approx(0.0, abs=1e-12)

    def test_shift_moves_the_center(self):
        run = run_linear(LinearScenario(dx_s=0.5, dx_m=0.5, x0=0.3))
        assert run.family(1.7).mean() == pytest.approx(2.0, abs=1e-10)

    def test_on_grid_translation_is_exact(self):
        run = run_linear(LinearScenario(dx_s=0.5, dx_m=0.5))
        p0 = run.family(0.0)
        shift = 10 * p0.mu_grid.spacing
        p_shift = run.family(shift)
        np.testing.assert_allclose(p_shift.density, np.roll(p0.density, 10), atol=1e-11)

    def test_fisher_matches_additive_variances(self):
        run = run_linear(LinearScenario(dx_s=0.5, dx_m=0.5))
        rep = run.fisher()
        assert rep.fisher == pytest.approx(2.0, rel=1e-6)

    def test_parameter_validation(self):
        with pytest.raises(NonPositiveSigma):
            LinearScenario(dx_s=0.0, dx_m=0.5)


class TestPhaseGaussian:
    def test_ideal_variance(self):
        run = run_phase_gaussian(PhaseGaussianScenario(n_mean=100.0, dn_s=5.0))
        assert signal_uncertainty(run.family(0.0)) ** 2 == pytest.approx(0.01, rel=1e-8)

    def test_blurred_variance(self):
        run = run_phase_gaussian(PhaseGaussianScenario(100.0, 5.0, dphi_m=0.1))
        assert signal_uncertainty(run.family(0.0)) ** 2 == pytest.approx(0.02, rel=1e-8)

    def test_product_law(self):
        run = run_phase_gaussian(PhaseGaussianScenario(100.0, 5.0, dphi_m=0.1))
        assert wk_product(run.gamma, run.family(0.0)) == pytest.approx(SQRT_PI, abs=1e-6)

    def test_rotation_translates_phase(self):
        run = run_phase_gaussian(PhaseGaussianScenario(100.0, 5.0))
        p0 = run.family(0.0)
        shift = 7 * p0.mu_grid.spacing
        np.testing.assert_allclose(
            run.family(shift).density, np.roll(p0.density, 7), atol=1e-11
        )

    def test_continuum_gate(self):
        with pytest.raises(ContinuumApproxViolated):
            run_phase_gaussian(PhaseGaussianScenario(n_mean=20.0, dn_s=5.0))

    def test_numerical_fisher_matches_closed_form(self):
        run = run_phase_gaussian(PhaseGaussianScenario(100.0, 5.0, dphi_m=0.1))
        rep = run.fisher()
        assert rep.fisher == pytest.approx(run.closed_form.fisher, rel=1e-4)


class TestSG:
    def test_density_closed_form(self):
        run = run_phase_sg(SGScenario(xi=0.5))
        p = run.family(0.0)
        np.testing.assert_allclose(
            p.density, sg_closed_form_density(0.5, p.mu_grid.points), atol=1e-10
        )

    def test_density_closed_form_deep_truncation(self):
        # the default 1e-12 tail rule leaves ~1e-6 residuals near |xi| = 1;
        # a deeper truncation brings the sampled series to the closed form
        run = run_phase_sg(SGScenario(xi=0.9, n_max=300))
        p = run.family(0.0)
        np.testing.assert_allclose(
            p.density, sg_closed_form_density(0.9, p.mu_grid.points), atol=1e-10
        )

    def test_widths_both_routes(self):
        run = run_phase_sg(SGScenario(xi=0.9))
        d2_wk = signal_uncertainty(run.family(0.0)) ** 2
        assert d2_wk == pytest.approx(sg_wk_variance(0.9), rel=1e-8)
        rep = run.fisher()
        assert rep.crb == pytest.approx(sg_fisher_variance(0.9), rel=1e-6)

    def test_product_law_periodic(self):
        run = run_phase_sg(SGScenario(xi=0.9))
        assert wk_product(run.gamma, run.family(0.0)) == pytest.approx(SQRT_PI, abs=1e-6)
        # equivalently tau_c = sqrt(pi) / delta_lambda
        dlam = signal_uncertainty(run.family(0.0))
        assert coherence_time(run.gamma) == pytest.approx(SQRT_PI / dlam, rel=1e-9)

    def test_vacuum_is_uniform_and_uninformative(self):
        run = run_phase_sg(SGScenario(xi=0.0))
        p = run.family(0.0)
        np.testing.assert_allclose(p.density, 1.0 / (2 * math.pi), atol=1e-14)
        rep = run.fisher(step=1e-3)
        assert rep.fisher == pytest.approx(0.0, abs=1e-10)

    def test_vacuum_qfi_is_zero(self):
        # 4 Var(N) of the vacuum is 0; no ratio to a zero bound
        run = run_phase_sg(SGScenario(xi=0.0))
        assert run.qfi == 0.0
        assert run.closed_form.ratio_to_qfi is None
        rep = run.fisher()
        assert rep.fisher == 0.0 and rep.ratio_to_qfi is None

    def test_width_ratio_approaches_half_pi(self):
        deviations = []
        for xi in (0.5, 0.9, 0.99):
            ratio = sg_wk_variance(xi) / sg_fisher_variance(xi)
            deviations.append(abs(ratio / (math.pi / 2.0) - 1.0))
        assert deviations == sorted(deviations, reverse=True)

    def test_correlation_against_brute_force(self):
        probe = make_sg_probe(SGProbeSpec(xi=0.3 + 0.2j, n_max=80))
        gamma = coherence_function(probe, make_ideal_ruler(probe.grid))
        c = probe.amplitudes
        n = len(c)
        _, lags = grid_lags(gamma, n).all_lags()
        for tau in (-5, -1, 0, 1, 2, 17):
            ref = sum(c[i] * np.conj(c[i + tau]) for i in range(n) if 0 <= i + tau < n)
            assert lags[tau + n - 1] == pytest.approx(ref / (2 * math.pi), abs=1e-15)

    def test_matches_generic_kernel_route(self):
        probe = make_sg_probe(SGProbeSpec(xi=0.5))
        ideal = make_ideal_ruler(probe.grid)
        generic = grid_lags(coherence_function(probe, ideal), probe.grid.n_points)
        dense = trace_coherence(probe, ideal)
        np.testing.assert_allclose(generic.all_lags()[1], dense, atol=1e-14)
        p_g = statistics_from_coherence(generic)
        p_d = statistics_from_coherence(CoherenceFunction(generic.tau_grid, dense[len(generic.values) - 1:]))
        np.testing.assert_allclose(p_d.density, p_g.density, atol=1e-12)

    def test_large_axis_allocates_no_dense_kernel(self):
        # xi = 0.999 needs 13,810 number states; a dense ideal kernel is 3 GB
        tracemalloc.start()
        try:
            run = run_phase_sg(SGScenario(xi=0.999))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 50e6
        assert make_sg_probe(SGProbeSpec(xi=0.999)).grid.n_points == 13810


def direct_shift_density(gamma, lam, mu):
    """Oracle: p(mu|lambda) = sum_tau Gamma(tau) e^{i tau (lambda - mu)} dtau, normalized.

    Sums over the unpadded lags, tau < 0 mirrored, O(len(mu) * 2n) work;
    the family divides by its numerical norm, and so does the oracle.
    """
    tau, vals = gamma.all_lags()
    raw = np.exp(1j * (lam - mu.points[:, None]) * tau[None, :]) @ vals
    dens = raw.real * gamma.spacing
    return dens / (np.sum(dens) * mu.spacing)


# (run, its probe built from the spec, its ruler on the probe's grid);
# a linear probe has momentum width 1/(2*dx_s) and phase slope -x0
SHIFT_RUNS = {
    "linear": (lambda: run_linear(LinearScenario(0.5, 0.5, x0=0.3, n_points=64)),
               lambda: gaussian_probe(0.0, 1.0, 64, -0.3),
               lambda grid: make_gaussian_ruler(0.5, grid)),
    "linear-ideal": (lambda: run_linear(LinearScenario(0.5, 0.0, n_points=100)),
                     lambda: gaussian_probe(0.0, 1.0, 100),
                     make_ideal_ruler),
    "phase": (lambda: run_phase_gaussian(PhaseGaussianScenario(100.0, 5.0, 0.1, n_points=128)),
              lambda: gaussian_probe(100.0, 5.0, 128),
              lambda grid: make_gaussian_ruler(0.1, grid)),
    "sg-0.5": (lambda: run_phase_sg(SGScenario(xi=0.5)),
               lambda: make_sg_probe(SGProbeSpec(xi=0.5)), make_ideal_ruler),
    "sg-0.9": (lambda: run_phase_sg(SGScenario(xi=0.9)),
               lambda: make_sg_probe(SGProbeSpec(xi=0.9)), make_ideal_ruler),
}


class TestShiftRunPadding:
    """1-D runs transform Gamma on its transform length, zero-padded to a fast odd one."""

    @pytest.mark.parametrize("name", sorted(SHIFT_RUNS))
    def test_family_matches_direct_sum(self, name):
        build, build_probe, ruler = SHIFT_RUNS[name]
        run, probe = build(), build_probe()
        padded = coherence_function(probe, ruler(probe.grid))
        assert np.array_equal(run.gamma.values, padded.values)
        assert np.array_equal(run.gamma.tau_grid, padded.tau_grid)
        gamma = grid_lags(padded, probe.grid.n_points)  # the grid's own 2n-1 lags
        for lam in (0.0, 0.37, -1.1):
            p = run.family(lam)
            assert p.mu_grid.n_points == 2 * len(run.gamma.values) - 1 > 2 * len(gamma.values) - 1
            # measured <= 2.6e-14 on densities up to 3
            np.testing.assert_allclose(
                p.density, direct_shift_density(gamma, lam, p.mu_grid), rtol=0, atol=1e-12
            )

    @pytest.mark.parametrize("lam0", [0.0, 0.4])
    def test_deep_sg_fisher_matches_unpadded_route(self, lam0):
        run = run_phase_sg(SGScenario(xi=0.999))
        assert 2 * len(run.gamma.values) - 1 == 27783  # 3^4 * 7^3; unpadded 27,619 = 71 * 389
        probe = make_sg_probe(SGProbeSpec(xi=0.999))
        gamma = grid_lags(coherence_function(probe, make_ideal_ruler(probe.grid)), probe.grid.n_points)
        assert 2 * len(gamma.values) - 1 == 27619
        padded = run.fisher(lam0).fisher
        unpadded = fisher_from_family(
            lambda lam: statistics_from_coherence(gamma.shifted(lam)), lam0, run.default_step
        ).fisher
        # measured gap 6.0e-11 (lambda0 = 0) and 1.3e-11 (lambda0 = 0.4)
        assert padded == pytest.approx(unpadded, rel=1e-9)
        assert padded == pytest.approx(1.0 / sg_fisher_variance(0.999), rel=1e-8)


@pytest.mark.parametrize("name", sorted(BENCH_RUNS))
def test_shift_run_fisher_does_not_depend_on_lambda0(name):
    # p_lambda is the band-limited translate of p_0, so F is the same at every lambda0
    run = BENCH_RUNS[name]()
    values = [run.fisher(lam0).fisher for lam0 in (-0.9, -0.31, 0.0, 0.47, 1.0)]
    # measured spread <= 4.8e-10 relative (sg-0.999), <= 8.3e-12 for the Gaussian runs
    assert max(values) - min(values) <= 1e-8 * values[2]


class TestNonlinear:
    def test_joint_mass(self):
        run = run_nonlinear(NonlinearScenario(vx_s=0.25, vx_m=0.25))
        assert run.family(0.0).total_mass() == pytest.approx(1.0, abs=1e-9)

    def test_balanced_fisher(self):
        run = run_nonlinear(NonlinearScenario(vx_s=0.25, vx_m=0.25))
        rep = run.fisher()
        assert rep.fisher == pytest.approx(4.0, rel=1e-3)

    def test_near_ideal_displaced_limit(self):
        run = run_nonlinear(NonlinearScenario(vx_s=0.25, vx_m=0.001, p0=2.0))
        rep = run.fisher()
        assert rep.fisher == pytest.approx(run.closed_form.fisher, rel=1e-3)
        assert run.closed_form.fisher == pytest.approx(16.0 * 2.0**2 * 1.0, rel=1e-2)

    def test_lambda_outside_sized_range(self):
        run = run_nonlinear(NonlinearScenario(vx_s=0.25, vx_m=0.25, lambda_pad=0.01))
        with pytest.raises(GridTooNarrow):
            run.family(0.5)


class TestCoherentSqueezed:
    def test_symmetric_probe_carries_no_information(self):
        run = run_phase_coherent_squeezed(CoherentSqueezedScenario(vx_s=0.5, vx_m=0.5))
        rep = run.fisher()
        assert rep.fisher == pytest.approx(0.0, abs=1e-8)

    def test_displaced_vacuum(self):
        run = run_phase_coherent_squeezed(
            CoherentSqueezedScenario(vx_s=0.5, vx_m=0.5, x0=math.sqrt(2.0))
        )
        rep = run.fisher()
        assert rep.fisher == pytest.approx(2.0, rel=1e-3)

    def test_squeezed_vacuum(self):
        run = run_phase_coherent_squeezed(CoherentSqueezedScenario(vx_s=0.2, vx_m=0.5))
        rep = run.fisher()
        assert rep.fisher == pytest.approx(0.9, rel=1e-3)

    def test_quarter_turn_permutes_outcomes(self):
        # with a rotation-symmetric ruler, rotating the probe by pi/2 must
        # permute the sampled (m, k) cells exactly
        sc = CoherentSqueezedScenario(
            vx_s=0.5, vx_m=0.5, x0=0.6, p0=0.0, m_points=128, k_points=128
        )
        run = run_phase_coherent_squeezed(sc)
        p0 = run.family(0.0).density
        pq = run.family(math.pi / 2.0).density
        np.testing.assert_allclose(pq, p0[:, ::-1].T, atol=1e-8)

    def test_rotation_against_propagator(self):
        grid = GeneratorGrid(-12.0, 12.0, 1024)
        psi0 = rotate_gaussian(0.2, 1.0, 0.5, 0.0, grid.points)
        lam = 0.7
        exact = rotate_gaussian(0.2, 1.0, 0.5, lam, grid.points)
        prop = rotate_by_propagator(psi0, grid, lam)
        idx = np.argmax(np.abs(exact))
        phase = exact[idx] / prop[idx] * abs(prop[idx]) / abs(exact[idx])
        np.testing.assert_allclose(prop * phase, exact, atol=1e-12)

    def test_rotated_gaussian_is_normalized(self):
        x = np.linspace(-20, 20, 4001)
        for lam in (0.0, 0.4, 1.3, math.pi):
            psi = rotate_gaussian(0.2, 1.0, -0.7, lam, x)
            assert np.trapezoid(np.abs(psi) ** 2, x) == pytest.approx(1.0, abs=1e-10)


# (spec, runner, oracle, last angle) of the two joint kinds; each is read at
# lambda in {0, +-default_step, last angle}
JOINT_CASES = (
    (NonlinearScenario(vx_s=0.3, vx_m=0.5, x0=0.2, p0=0.6, lambda_pad=0.3),
     run_nonlinear, nonlinear_oracle, 0.25),
    (CoherentSqueezedScenario(vx_s=0.2, vx_m=0.5, x0=1.0, p0=0.5),
     run_phase_coherent_squeezed, coherent_squeezed_oracle, 0.7),
)


def joint_members(case):
    """Each family member of a joint case with the spec and oracle that recompute it."""
    sc, runner, oracle, last = case
    run = runner(sc)
    for lam in (0.0, run.default_step, -run.default_step, last):
        yield sc, oracle, lam, run.family(lam)


class TestJointReadout:
    """The once-built (m, k) readout is bit-identical to the per-call overlap."""

    def test_nonlinear_matches_oracle(self):
        for sc, oracle, lam, dist in joint_members(JOINT_CASES[0]):
            ref = oracle(sc, lam, dist.mu_grid, dist.k_grid)
            assert np.array_equal(dist.density, ref.density)

    def test_coherent_squeezed_matches_oracle(self):
        for sc, oracle, lam, dist in joint_members(JOINT_CASES[1]):
            ref = oracle(sc, lam, dist.mu_grid, dist.k_grid)
            assert np.array_equal(dist.density, ref.density)

    @pytest.mark.parametrize("case", JOINT_CASES, ids=("nonlinear", "phase-cs"))
    def test_real_gemm_matches_complex_product(self, case):
        # regrouping (window*psi) @ e^{i x f} as window @ (psi*phases) moves the
        # density by rounding only: 4.5e-15 of the peak at most, gated 10x above
        for sc, oracle, lam, dist in joint_members(case):
            ref = oracle(sc, lam, dist.mu_grid, dist.k_grid, complex_product=True).density
            assert np.max(np.abs(dist.density - ref)) <= 5e-14 * np.max(ref)

    @pytest.mark.parametrize(("sc", "gate"), (
        (JOINT_CASES[1][0], 7e-13),  # measured 6.4e-14 of the peak
        (CoherentSqueezedScenario(vx_s=0.5, vx_m=0.5), 8e-10),  # measured 7.5e-11
    ), ids=("displaced", "vacuum"))
    def test_momentum_readout_matches_position_readout(self, sc, gate):
        # the momentum readout against a position-space window on
        # rotate_gaussian's own position wavefunction, with no quarter turn;
        # the tails each representation truncates set the gap, largest on
        # the symmetric vacuum
        run = run_phase_coherent_squeezed(sc)
        for lam in (0.0, run.default_step, -run.default_step, 0.7, 2.0):
            dist = run.family(lam)
            ref = coherent_squeezed_position_oracle(sc, lam, dist.mu_grid, dist.k_grid).density
            assert np.max(np.abs(dist.density - ref)) <= gate * np.max(ref)

    def test_qfi_comes_from_the_closed_form(self):
        run = run_phase_coherent_squeezed(CoherentSqueezedScenario(vx_s=0.2, vx_m=0.5, x0=1.0))
        assert run.qfi == run.closed_form.qfi == pytest.approx(2 * (0.2**2 + 1.25**2) - 1 + 0.8)
        assert run.closed_form.fisher <= run.qfi

    def test_closed_form_ratio_uses_the_number_qfi(self):
        # F / F_Q is derived from the stored values, so it cannot go stale
        run = run_phase_coherent_squeezed(CoherentSqueezedScenario(0.2, 0.5, 1.0, 0.5))
        closed = run.closed_form
        assert closed.qfi == pytest.approx(4.255)
        assert closed.ratio_to_qfi == closed.fisher / closed.qfi


class TestClosedFormQfi:
    """Each closed-form QFI is 4*Var(G) on the probe's own grid (``qfi_pure``).

    F <= F_Q cannot catch an over-stated QFI; this cross-check can.  The
    largest gaps are 7.4e-10 (sg, xi=0.99) and 2.5e-12 (p^2, p0=0).
    """

    @pytest.mark.parametrize("xi", (0.5, 0.9, 0.99))
    def test_sg_number_qfi(self, xi):
        probe = make_sg_probe(SGProbeSpec(xi=xi))
        assert run_phase_sg(SGScenario(xi)).qfi == pytest.approx(qfi_pure(probe, "G"), rel=1e-8)

    @pytest.mark.parametrize("p0", (0.0, 0.6, 1.2))
    def test_quadratic_generator_qfi(self, p0):
        # the probe run_nonlinear builds: momentum width 1/(2*sqrt(vx_s)) about p0
        vx_s = 0.3
        probe = gaussian_probe(p0, math.sqrt(1.0 / (4.0 * vx_s)), 1024)
        closed = closed_form_fp2(vx_s, 0.5, p0).qfi
        assert closed == pytest.approx(qfi_pure(probe, "G2"), rel=1e-8)


def radial_phase_density(vx: float, vp: float, phi: np.ndarray, n: int = 4097) -> np.ndarray:
    """Oracle: the polar-angle density as a radial trapezoid, independent of the Gamma route.

    W(phi) = integral_0^{12 sigma_max} r W_G(r cos phi, r sin phi) dr for the
    centered Gaussian W_G of variances (vx, vp), on n radial nodes, then
    normalized on ``phi``; only re-derives integral r e^{-a r^2/2} dr = 1/a.
    """
    r = np.linspace(0.0, 12.0 * math.sqrt(max(vx, vp)), n)
    weights = r * (r[1] - r[0])  # trapezoid weights times the Jacobian r; r = 0 weighs 0
    weights[-1] /= 2.0
    quad = np.cos(phi) ** 2 / vx + np.sin(phi) ** 2 / vp
    wigner = np.multiply.outer(quad, -0.5 * r**2)
    np.exp(wigner, out=wigner)
    dens = wigner @ weights
    return dens / (np.sum(dens) * (2.0 * math.pi / len(phi)))


# (vx_eff, vp_eff): squeezed either way, symmetric, near-symmetric, and strongly squeezed
PHASE_POINTS_VX_VP = [
    (0.35, 0.875), (0.4, 0.4), (0.3, 1.2), (1.5, 0.4), (0.7, 0.7001), (2.0, 0.05), (0.079, 0.79),
]


class TestPhaseDistribution:
    def test_symmetric_is_uniform(self):
        pd = phase_distribution_ws(0.4, 0.4)
        assert math.isinf(pd.delta2_phi0)
        np.testing.assert_allclose(pd.dist.density, 1.0 / (2 * math.pi), atol=1e-10)

    def test_worked_width(self):
        pd = phase_distribution_ws(0.35, 0.875)
        assert pd.delta2_phi0 == pytest.approx(0.35 * 0.875 / 0.525, abs=1e-12)
        assert pd.delta2_phi0 == pytest.approx(7.0 / 12.0, abs=1e-10)
        assert pd.profile_residual < 1e-3

    def test_stronger_squeezing_sharpens(self):
        widths, contrasts = [], []
        for ratio in (2.0, 4.0, 6.0, 10.0):
            vx = 0.25 / math.sqrt(ratio)
            vp = 0.25 * math.sqrt(ratio)
            pd = phase_distribution_ws(vx, vp)
            widths.append(pd.delta2_phi0)
            contrasts.append(pd.dist.density.max() / pd.dist.density.min())
        assert widths == sorted(widths, reverse=True)
        assert contrasts == sorted(contrasts)

    def test_mass_is_one(self):
        pd = phase_distribution_ws(0.35, 0.875)
        assert pd.dist.mu_grid.n_points == scenarios.PHASE_POINTS
        assert np.sum(pd.dist.density) * pd.dist.cell == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("vx, vp", PHASE_POINTS_VX_VP)
    def test_profile_and_wk_pair(self, vx, vp):
        # Delta phi^2 = pi/tau_c^2 with tau_c = (1+r^2)/(1-r^2) on dtau = 1
        pd = phase_distribution_ws(vx, vp)
        assert pd.profile_residual <= 1e-12
        d2 = signal_uncertainty(pd.dist) ** 2
        assert d2 == pytest.approx(4.0 * math.pi * vx * vp / (vx + vp) ** 2, rel=1e-10)
        assert wk_product(pd.gamma, pd.dist) == pytest.approx(SQRT_PI, abs=1e-10)

    def test_radial_quadrature_oracle(self):
        pd = phase_distribution_ws(0.35, 0.875)
        oracle = radial_phase_density(0.35, 0.875, pd.dist.mu_grid.points)
        assert np.max(np.abs(oracle - pd.dist.density)) <= 1e-6

    @pytest.mark.parametrize("ratio, trips", [(900.0, True), (600.0, False)])
    def test_poisson_tail_gate(self, ratio, trips):
        # |r|^512 is 1.5e-15 at vx/vp = 900 and 6.8e-19 at 600; TAIL_TOL = 1e-16
        for vx, vp in ((0.01 * ratio, 0.01), (0.01, 0.01 * ratio)):
            if trips:
                with pytest.raises(GridTooNarrow, match="Poisson tail"):
                    phase_distribution_ws(vx, vp)
            else:
                assert phase_distribution_ws(vx, vp).profile_residual <= 1e-12

import math
import tracemalloc

import numpy as np
import pytest
from test_coherence import trace_coherence

from qruler.coherence import (
    CoherenceFunction,
    coherence_function,
    coherence_time,
    signal_uncertainty,
    statistics_from_coherence,
    wk_product,
)
from qruler.errors import ContinuumApproxViolated, GridTooNarrow, NonPositiveSigma
from qruler.fisher import fisher_from_family
from qruler.ruler import make_ideal_ruler
from qruler.scenarios import (
    CoherentSqueezedScenario,
    LinearScenario,
    NonlinearScenario,
    PhaseGaussianScenario,
    SGScenario,
    phase_distribution_ws,
    rotate_by_propagator,
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
from qruler.states import SGProbeSpec, make_sg_probe

SQRT_PI = math.sqrt(math.pi)


class TestLinear:
    def test_peak_and_variance(self):
        run = run_linear(LinearScenario(dx_s=0.5, dx_m=0.5))
        p = run.family(0.0)
        assert abs(p.mu_grid[np.argmax(p.density)]) < p.spacing
        assert p.variance() == pytest.approx(0.5, rel=1e-8)
        assert p.mean() == pytest.approx(0.0, abs=1e-12)

    def test_shift_moves_the_center(self):
        run = run_linear(LinearScenario(dx_s=0.5, dx_m=0.5, x0=0.3))
        assert run.family(1.7).mean() == pytest.approx(2.0, abs=1e-10)

    def test_on_grid_translation_is_exact(self):
        run = run_linear(LinearScenario(dx_s=0.5, dx_m=0.5))
        p0 = run.family(0.0)
        shift = 10 * p0.spacing
        p_shift = run.family(shift)
        np.testing.assert_allclose(p_shift.density, np.roll(p0.density, 10), atol=1e-11)

    def test_fisher_matches_additive_variances(self):
        run = run_linear(LinearScenario(dx_s=0.5, dx_m=0.5))
        rep = fisher_from_family(run.family, 0.0, run.default_step, qfi=run.qfi)
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
        shift = 7 * p0.spacing
        np.testing.assert_allclose(
            run.family(shift).density, np.roll(p0.density, 7), atol=1e-11
        )

    def test_continuum_gate(self):
        with pytest.raises(ContinuumApproxViolated):
            run_phase_gaussian(PhaseGaussianScenario(n_mean=20.0, dn_s=5.0))

    def test_numerical_fisher_matches_closed_form(self):
        run = run_phase_gaussian(PhaseGaussianScenario(100.0, 5.0, dphi_m=0.1))
        rep = fisher_from_family(run.family, 0.0, run.default_step, qfi=run.qfi)
        assert rep.fisher == pytest.approx(run.closed_form.fisher, rel=1e-4)


class TestSG:
    def test_density_closed_form(self):
        run = run_phase_sg(SGScenario(xi=0.5))
        p = run.family(0.0)
        np.testing.assert_allclose(
            p.density, sg_closed_form_density(0.5, p.mu_grid), atol=1e-10
        )

    def test_density_closed_form_deep_truncation(self):
        # the default 1e-12 tail rule leaves ~1e-6 residuals near |xi| = 1;
        # a deeper truncation brings the sampled series to the closed form
        run = run_phase_sg(SGScenario(xi=0.9, n_max=300))
        p = run.family(0.0)
        np.testing.assert_allclose(
            p.density, sg_closed_form_density(0.9, p.mu_grid), atol=1e-10
        )

    def test_widths_both_routes(self):
        run = run_phase_sg(SGScenario(xi=0.9))
        d2_wk = signal_uncertainty(run.family(0.0)) ** 2
        assert d2_wk == pytest.approx(sg_wk_variance(0.9), rel=1e-8)
        rep = fisher_from_family(run.family, 0.0, run.default_step, qfi=run.qfi)
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
        rep = fisher_from_family(run.family, 0.0, 1e-3)
        assert rep.fisher == pytest.approx(0.0, abs=1e-10)

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
        for tau in (-5, -1, 0, 1, 2, 17):
            ref = sum(c[i] * np.conj(c[i + tau]) for i in range(n) if 0 <= i + tau < n)
            assert gamma.values[tau + n - 1] == pytest.approx(ref / (2 * math.pi), abs=1e-15)

    def test_matches_generic_kernel_route(self):
        probe = make_sg_probe(SGProbeSpec(xi=0.5))
        ideal = make_ideal_ruler(probe.grid)
        generic = coherence_function(probe, ideal)
        dense = trace_coherence(probe, ideal)
        np.testing.assert_allclose(generic.values, dense, atol=1e-14)
        p_g = statistics_from_coherence(generic)
        p_d = statistics_from_coherence(CoherenceFunction(generic.tau_grid, dense, generic.gamma0))
        np.testing.assert_allclose(p_d.density, p_g.density, atol=1e-12)

    def test_large_axis_allocates_no_dense_kernel(self):
        # xi = 0.999 needs 13,810 number states; a dense ideal kernel is 3 GB
        tracemalloc.start()
        try:
            run = run_phase_sg(SGScenario(xi=0.999))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert run.probe.grid.n_points == 13810
        assert peak < 50e6


class TestNonlinear:
    def test_joint_mass(self):
        run = run_nonlinear(NonlinearScenario(vx_s=0.25, vx_m=0.25))
        assert run.family(0.0).total_mass() == pytest.approx(1.0, abs=1e-9)

    def test_balanced_fisher(self):
        run = run_nonlinear(NonlinearScenario(vx_s=0.25, vx_m=0.25))
        rep = fisher_from_family(run.family, 0.0, run.default_step, qfi=run.qfi)
        assert rep.fisher == pytest.approx(4.0, rel=1e-3)

    def test_near_ideal_displaced_limit(self):
        run = run_nonlinear(NonlinearScenario(vx_s=0.25, vx_m=0.001, p0=2.0))
        rep = fisher_from_family(run.family, 0.0, run.default_step, qfi=run.qfi)
        assert rep.fisher == pytest.approx(run.closed_form.fisher, rel=1e-3)
        assert run.closed_form.fisher == pytest.approx(16.0 * 2.0**2 * 1.0, rel=1e-2)

    def test_lambda_outside_sized_range(self):
        run = run_nonlinear(NonlinearScenario(vx_s=0.25, vx_m=0.25, lambda_pad=0.01))
        with pytest.raises(GridTooNarrow):
            run.family(0.5)


class TestCoherentSqueezed:
    def test_symmetric_probe_carries_no_information(self):
        run = run_phase_coherent_squeezed(CoherentSqueezedScenario(vx_s=0.5, vx_m=0.5))
        rep = fisher_from_family(run.family, 0.0, run.default_step)
        assert rep.fisher == pytest.approx(0.0, abs=1e-8)

    def test_displaced_vacuum(self):
        run = run_phase_coherent_squeezed(
            CoherentSqueezedScenario(vx_s=0.5, vx_m=0.5, x0=math.sqrt(2.0))
        )
        rep = fisher_from_family(run.family, 0.0, run.default_step, qfi=run.qfi)
        assert rep.fisher == pytest.approx(2.0, rel=1e-3)

    def test_squeezed_vacuum(self):
        run = run_phase_coherent_squeezed(CoherentSqueezedScenario(vx_s=0.2, vx_m=0.5))
        rep = fisher_from_family(run.family, 0.0, run.default_step, qfi=run.qfi)
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
        from qruler.grids import GeneratorGrid, GeneratorKind

        grid = GeneratorGrid(-12.0, 12.0, 1024, GeneratorKind.N)
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


class TestPhaseDistribution:
    def test_symmetric_is_uniform(self):
        pd = phase_distribution_ws(0.4, 0.4)
        assert pd.degenerate
        assert math.isinf(pd.delta2_phi0)
        np.testing.assert_allclose(pd.density, 1.0 / (2 * math.pi), atol=1e-10)

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
            contrasts.append(pd.density.max() / pd.density.min())
        assert widths == sorted(widths, reverse=True)
        assert contrasts == sorted(contrasts)

    def test_mass_is_one(self):
        pd = phase_distribution_ws(0.35, 0.875)
        assert np.sum(pd.density) * (2 * math.pi / len(pd.phi_grid)) == pytest.approx(1.0, abs=1e-12)

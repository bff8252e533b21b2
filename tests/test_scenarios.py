import json
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.linalg
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
from qruler.fisher import (
    DENSITY_FLOOR,
    FISHER_FLOOR,
    closed_form_fn,
    closed_form_fp2,
    closed_form_linear,
    fisher_from_family,
    qfi_pure,
)
from qruler.grids import MIN_POINTS, SPAN_SIGMAS, GeneratorGrid, grid_for_gaussian
from qruler.ruler import make_gaussian_ruler, make_ideal_ruler
from qruler.scenarios import (
    MAX_JOINT_CELLS,
    MAX_STATE_POINTS,
    POINTS_PER_SIGMA,
    SCENARIOS,
    CoherentSqueezedScenario,
    LinearScenario,
    NonlinearScenario,
    PhaseGaussianScenario,
    SGScenario,
    law_axes,
    phase_distribution_ws,
    rotate_gaussian,
    rotate_gaussian_dlog,
    run_linear,
    run_nonlinear,
    run_phase_coherent_squeezed,
    run_phase_gaussian,
    run_phase_sg,
    sg_closed_form_density,
    sg_fisher_variance,
    sg_wk_variance,
    state_grid,
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


def window_fourier_overlap(values, axis, spacing, window_sigma, centers, freqs):
    """Oracle: the joint overlap as a direct sum, its window and phases rebuilt per call.

    O[c, f] = N_w * sum_x e^{-(x - center_c)^2/(4 sw^2)} values(x) e^{i x freq_f} dx
    with N_w = (window_sigma * sqrt(2*pi))^{-1/2}: the complex product
    (window*values) @ e^{i x freq}, its phases from one complex exp on
    any grid, so no FFT, fold or dual spacing enters it.
    """
    window = np.exp(-((axis[None, :] - centers[:, None]) ** 2) / (4.0 * window_sigma**2))
    overlap = (window * values[None, :]) @ np.exp(1j * np.outer(axis, freqs))
    overlap *= spacing / math.sqrt(window_sigma * math.sqrt(2.0 * math.pi))
    return overlap


def gaussian_probe(center, sigma, n_points, conjugate_center=0.0):
    """The Gaussian probe a 1-D or nonlinear spec describes, on its own grid."""
    grid = grid_for_gaussian(center, sigma, n_points)
    return make_gaussian_probe(GaussianProbeSpec(center, sigma, conjugate_center), grid)


def axis_span(grid):
    return grid.g_max - grid.g_min


def finer(grid, denser):
    """``grid``'s span on ``denser`` times as many steps."""
    return GeneratorGrid(grid.g_min, grid.g_max, denser * (grid.n_points - 1) + 1)


def state_half(sc):
    """The half-span a joint run's state grid covers: 8 sigmas of the probe's momentum
    (``nonlinear``), and for ``phase-cs`` of its larger quadrature plus the rotation circle."""
    if isinstance(sc, NonlinearScenario):
        return 8.0 * math.sqrt(1.0 / (4.0 * sc.vx_s))
    return 8.0 * math.sqrt(max(sc.vx_s, 1.0 / (4.0 * sc.vx_s))) + math.hypot(sc.x0, sc.p0)


def joint_grid(sc, m_grid, denser=1):
    """A joint run's state grid, about p0 (``nonlinear``) or 0 (``phase-cs``), or ``denser`` times as fine."""
    center = sc.p0 if isinstance(sc, NonlinearScenario) else 0.0
    return finer(state_grid(center, state_half(sc), m_grid), denser)


def nonlinear_state(sc, lam, m_grid, denser=1):
    """The state grid, e^{-i lam p^2} psi0 on it, and d log psi / d lam = -i p^2."""
    grid = joint_grid(sc, m_grid, denser)
    probe = make_gaussian_probe(GaussianProbeSpec(sc.p0, math.sqrt(1.0 / (4.0 * sc.vx_s)), -sc.x0), grid)
    return grid, probe.amplitudes * np.exp(-1j * lam * grid.points**2), -1j * grid.points**2


def coherent_squeezed_state(sc, lam, m_grid, denser=1):
    """The state grid, the rotated Gaussian's momentum wavefunction on it, and its -i N psi / psi."""
    grid = joint_grid(sc, m_grid, denser)
    turned = (1.0 / (4.0 * sc.vx_s), sc.p0, -sc.x0)
    return grid, rotate_gaussian(*turned, lam, grid.points), rotate_gaussian_dlog(*turned, lam, grid.points)


def momentum_overlap(sc, grid, values, m_grid, k_grid):
    """The momentum-space projection of ``values`` on [k, m]: windows centered at -k."""
    return window_fourier_overlap(
        values, grid.points, grid.spacing, 1.0 / (2.0 * math.sqrt(sc.vx_m)), -k_grid.points, m_grid.points
    )


def derivative_oracle(state, sc, lam, m_grid, k_grid):
    """A joint member and dp/dlambda = 2 Re(conj(O) dO)/(2*pi), O and dO as direct sums."""
    grid, psi, d_log = state(sc, lam, m_grid)
    overlap = momentum_overlap(sc, grid, psi, m_grid, k_grid)
    d_overlap = momentum_overlap(sc, grid, psi * d_log, m_grid, k_grid)
    dp = (overlap.conj() * d_overlap).real.T / np.pi
    dist = _finalize_density(m_grid, np.abs(overlap.T) ** 2 / (2.0 * np.pi), k_grid=k_grid, scaled=(dp,))
    return dist, dp


def nonlinear_oracle(sc, lam, m_grid, k_grid, denser=1):
    """Momentum-space projection of e^{-i lam p^2} psi0: windows centered at -k."""
    grid, psi, _ = nonlinear_state(sc, lam, m_grid, denser)
    overlap = momentum_overlap(sc, grid, psi, m_grid, k_grid)
    return _finalize_density(m_grid, np.abs(overlap.T) ** 2 / (2.0 * np.pi), k_grid=k_grid)


def coherent_squeezed_oracle(sc, lam, m_grid, k_grid, denser=1):
    """Momentum-space projection of the rotated Gaussian: windows centered at -k."""
    grid, psi, _ = coherent_squeezed_state(sc, lam, m_grid, denser)
    overlap = momentum_overlap(sc, grid, psi, m_grid, k_grid)
    return _finalize_density(m_grid, np.abs(overlap.T) ** 2 / (2.0 * np.pi), k_grid=k_grid)


def coherent_squeezed_position_oracle(sc, lam, m_grid, k_grid):
    """Position-space projection of the rotated Gaussian: windows centered at m.

    Independent of the quarter turn the run relies on: the position
    wavefunction is rotate_gaussian's own, read out by a window of width
    sqrt(vx_m) centered at m with phase e^{ixk}.
    """
    grid = joint_grid(sc, m_grid)
    psi = rotate_gaussian(sc.vx_s, sc.x0, sc.p0, lam, grid.points)
    overlap = window_fourier_overlap(
        psi, grid.points, grid.spacing, math.sqrt(sc.vx_m), m_grid.points, k_grid.points
    )
    return _finalize_density(m_grid, np.abs(overlap) ** 2 / (2.0 * np.pi), k_grid=k_grid)


# small specs of every SCENARIOS kind, each valid at lambda0 = 0.3; each joint
# spec's law puts MIN_POINTS on each of its outcome axes
KIND_FIELDS = {
    "linear": {"dx_s": 0.5, "dx_m": 0.5},
    "phase": {"n_mean": 100.0, "dn_s": 5.0, "dphi_m": 0.1},
    "sg": {"xi": 0.9},
    "nonlinear": {"vx_s": 0.25, "vx_m": 0.25, "lambda_pad": 0.32},
    "phase-cs": {"vx_s": 0.2, "vx_m": 0.5, "x0": 1.0},
}


def small_run(kind):
    """The run of ``kind``'s KIND_FIELDS spec."""
    return SCENARIOS[kind](**KIND_FIELDS[kind]).run()


@pytest.mark.parametrize("kind", sorted(SCENARIOS))
def test_run_fisher_is_fisher_from_family(kind):
    # with a step, the run's Fisher information is the finite-difference route, bit for bit
    run = small_run(kind)
    assert run.fisher(step=run.default_step) == fisher_from_family(run.family, 0.0, run.default_step, qfi=run.qfi)
    step = 2.0 * run.default_step
    assert run.fisher(0.3, step=step) == fisher_from_family(run.family, 0.3, step, qfi=run.qfi)


def five_member_fisher(family, lambda0, step):
    """Oracle: Richardson F from all five members held at once, in the arithmetic the stencil streams."""
    center = family(lambda0)
    offsets = {d: family(lambda0 + d * step) for d in (-2, -1, 1, 2)}
    d1 = (offsets[1].density - offsets[-1].density) / (2.0 * step)
    d2 = (offsets[2].density - offsets[-2].density) / (4.0 * step)
    dr = (4.0 * d1 - d2) / 3.0
    mask = center.density >= DENSITY_FLOOR * np.max(center.density)
    return float(np.sum(dr[mask] ** 2 / center.density[mask]) * center.cell)


@pytest.mark.parametrize("name", sorted(BENCH_RUNS) + ["nonlinear", "phase-cs"])
def test_streamed_stencil_matches_five_members(name):
    # the five 1-D runs of fisher-1d and both joint kinds, bit for bit
    run = BENCH_RUNS[name]() if name in BENCH_RUNS else small_run(name)
    for lam0 in (0.0, 0.3):
        got = fisher_from_family(run.family, lam0, run.default_step, qfi=run.qfi).fisher
        assert got == five_member_fisher(run.family, lam0, run.default_step)


def traced_peak(call) -> int:
    """The tracemalloc peak of one ``call()``, in bytes."""
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_sg_fisher_evaluation_holds_few_densities():
    # a 27,783-point member allocates only its density past its transform,
    # and the stencil streams: measured 6.0 density sizes (11.15 with five members held)
    run = BENCH_RUNS["sg-0.999"]()
    size = run.family(0.0).density.nbytes
    evaluate = lambda: fisher_from_family(run.family, 0.31, run.default_step, qfi=run.qfi)  # noqa: E731
    evaluate()
    assert traced_peak(evaluate) <= 7.0 * size


@pytest.mark.parametrize("spec", (NonlinearScenario(0.01, 0.01, lambda_pad=0.5), CoherentSqueezedScenario(0.01, 0.01)),
                         ids=("nonlinear", "phase-cs"))
def test_joint_build_and_fisher_keep_no_phase_table(spec, monkeypatch):
    # a build and a Richardson F on specs whose state grids and m axes are both
    # large (n = 1021 on 1133 x 64 outcomes for each), where an [n, m] complex
    # phase table of n*m*16 B = 18.5 MB would show: measured 4.07 and 4.03 MB
    sizes = []
    joint = scenarios._joint_family
    monkeypatch.setattr(scenarios, "_joint_family",
                        lambda grid, vx_m, m_grid, *rest: sizes.append((grid.n_points, m_grid.n_points))
                        or joint(grid, vx_m, m_grid, *rest))

    def op():
        run = spec.run()
        fisher_from_family(run.family, 0.0, run.default_step, qfi=run.qfi)

    op()
    table = math.prod(sizes[0]) * 16
    assert min(sizes[0]) > 1000
    assert traced_peak(op) <= 0.4 * table


@pytest.mark.parametrize("spec", (NonlinearScenario(0.5, 0.4, 0.3, 0.2), CoherentSqueezedScenario(0.5, 0.4, 0.3, 0.2)),
                         ids=("nonlinear", "phase-cs"))
def test_exact_fisher_peaks_no_higher_than_finite_differences(spec):
    # dp/dlambda takes one new [k, m] array and dO is dropped before the density
    # is formed: measured 0.27 MB against the stencil's 0.30 MB on 64 x 64 outcomes,
    # where four [k, m] float temporaries for 2 Re(conj(O) dO) would add 4 x 32 KB
    run = spec.run()
    run.fisher()
    run.fisher(step=run.default_step)
    assert traced_peak(run.fisher) <= traced_peak(lambda: run.fisher(step=run.default_step))


# exact F against Richardson at the default step: measured <= 2.0e-12 relative (sg), 4.4e-13 (phase)
EXACT_FD_REL = 3e-11


@pytest.mark.parametrize("lam0", [0.0, 0.3])
@pytest.mark.parametrize("kind", sorted(SCENARIOS))
def test_exact_fisher_matches_finite_differences(kind, lam0):
    run = small_run(kind)
    exact = run.fisher(lam0)
    assert exact.qfi == run.qfi
    assert exact.fisher == pytest.approx(run.fisher(lam0, step=run.default_step).fisher, rel=EXACT_FD_REL)


class TestDefaultStep:
    """The Richardson step 1e-3*min(sqrt(CRB), pi): never more than a thousandth of a half-turn."""

    def test_low_information_joint_draw_passes_the_residual_gate(self):
        # a fisher-joint draw with F = 9.4e-4, whose uncapped step 1e-3*sqrt(CRB) = 0.0325
        # failed the residual gate (1.29e-3); the capped step: measured 9.3e-11 from exact
        run = CoherentSqueezedScenario(0.5147320847472618, 0.6182216390859889,
                                       0.00028049029321808305, 0.011061002482863014).run()
        assert run.default_step == 1e-3 * math.pi
        assert run.fisher(step=run.default_step).fisher == pytest.approx(run.fisher().fisher, rel=1e-9)

    def test_wide_nonlinear_stencil_stays_inside_lambda_pad(self):
        # (20, 0.25): the uncapped step 0.181 put the stencil at 0.362, past lambda_pad = 0.05
        spec = NonlinearScenario(20.0, 0.25)
        run = spec.run()
        assert 2.0 * run.default_step <= spec.lambda_pad
        # measured 8.2e-13 from the exact F
        assert run.fisher(step=run.default_step).fisher == pytest.approx(run.fisher().fisher, rel=5e-12)

    def test_an_infinite_crb_takes_the_cap(self):
        run = run_phase_sg(SGScenario(0.0))  # the vacuum: F = 0
        assert run.closed_form.crb == math.inf and run.default_step == 1e-3 * math.pi


@pytest.mark.parametrize("kind", sorted(SCENARIOS))
def test_derivative_reads_the_family_member(kind):
    # the exact route's p is the family's, bit for bit, with dp on its axes
    run = small_run(kind)
    dist, dp = run.derivative(0.3)
    member = run.family(0.3)
    assert dist.mu_grid == member.mu_grid and dist.k_grid == member.k_grid
    assert np.array_equal(dist.density, member.density)
    assert dp.shape == dist.density.shape


def test_grid_sizes_are_keyword_only():
    with pytest.raises(TypeError):
        LinearScenario(0.5, 0.5, 0.0, 0.0, 64)
    with pytest.raises(TypeError):  # the 1-D specs set no grid size: 512 points, sg_n_max(xi)
        LinearScenario(0.5, 0.5, n_points=64)
    with pytest.raises(TypeError):
        SGScenario(0.9, n_max=300)
    with pytest.raises(TypeError):
        NonlinearScenario(0.25, 0.25, 0.0, 0.0, 128)
    with pytest.raises(TypeError):  # the law sizes the joint axes, not a field
        NonlinearScenario(0.25, 0.25, m_points=128)
    with pytest.raises(TypeError):  # the joint state grid's count is derived, not set
        NonlinearScenario(0.25, 0.25, n_points=256)


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

    def test_lower_edge_keeps_the_lattice_in_n_nonnegative(self):
        # n_mean >= SPAN_SIGMAS*dn_s: the lattice n_mean +/- 8*dn_s starts at n >= 0
        for n_mean in (39.0, math.inf, math.nan):
            with pytest.raises(ContinuumApproxViolated, match="n >= 0"):
                run_phase_gaussian(PhaseGaussianScenario(n_mean, 5.0))
        run = run_phase_gaussian(PhaseGaussianScenario(40.0, 5.0))
        assert run.fisher().fisher == pytest.approx(100.0, rel=1e-10)

    @pytest.mark.parametrize("spec, lattice", [
        ((100.0, 5.0, 0.1), (60, 140)),
        ((1000.0, 20.0, 0.01), (840, 1160)),
        ((20.3, 1.0, 0.1), (12, 12 + MIN_POINTS - 1)),  # 8 sigmas span 17 states: extended upwards
    ])
    def test_probe_sits_on_the_integer_lattice(self, spec, lattice, monkeypatch):
        seen = []
        monkeypatch.setattr(scenarios, "coherence_function",
                            lambda probe, ruler, *center: seen.append(probe.grid) or coherence_function(probe, ruler, *center))
        run = run_phase_gaussian(PhaseGaussianScenario(*spec))
        lo, hi = lattice
        assert seen == [GeneratorGrid(lo, hi, hi - lo + 1)] and seen[0].spacing == 1.0
        assert np.array_equal(run.gamma.tau_grid, np.arange(len(run.gamma.values)))
        axis = run.family(0.0).mu_grid
        assert -np.pi < axis.g_min and axis.g_max < np.pi
        assert axis.spacing == pytest.approx(2.0 * np.pi / axis.n_points, rel=1e-15)

    @pytest.mark.parametrize("spec", [(100.0, 5.0, 0.1), (100.0, 5.0, 0.0), (1000.0, 20.0, 0.01)])
    def test_signal_is_periodic(self, spec):
        # a shift by 2*pi multiplies Gamma by e^{2 pi i tau} = 1 on integer lags:
        # measured <= 5.3e-14 of the peak density
        run = run_phase_gaussian(PhaseGaussianScenario(*spec))
        peak = float(np.max(run.family(0.0).density))
        for lam in (0.0, 0.37, -1.1, 2.9):
            for turns in (1, -2):
                np.testing.assert_allclose(run.family(lam + 2.0 * np.pi * turns).density,
                                           run.family(lam).density, rtol=0, atol=1e-12 * peak)

    def test_narrow_lattice_matches_the_continuum_form(self):
        # pi/sigma_phi = 6.16, above WRAP_SIGMAS: the exact lattice F sits 2.6e-7 from 1/sigma_phi^2
        run = run_phase_gaussian(PhaseGaussianScenario(20.0, 1.0, 0.1))
        assert run.fisher().fisher == pytest.approx(run.closed_form.fisher, rel=2.6e-6)

    @pytest.mark.parametrize("spec", [(12.0, 1.0, 0.5), (100.0, 5.0, math.nan)])
    def test_wrap_gate(self, spec):
        # pi/sigma_phi = 4.44 at (12, 1, 0.5), where the lattice F parts from the
        # continuum form by 5.4e-4
        with pytest.raises(ContinuumApproxViolated, match="wraps"):
            run_phase_gaussian(PhaseGaussianScenario(*spec))

    def test_wrap_gate_threshold(self):
        # sigma_phi at pi/WRAP_SIGMAS runs, a hair above it does not
        dn_s = 10.0
        dphi_m = math.sqrt((math.pi / scenarios.WRAP_SIGMAS) ** 2 - 1.0 / (4.0 * dn_s**2))
        run_phase_gaussian(PhaseGaussianScenario(100.0, dn_s, dphi_m * (1.0 - 1e-12)))
        with pytest.raises(ContinuumApproxViolated):
            run_phase_gaussian(PhaseGaussianScenario(100.0, dn_s, dphi_m * (1.0 + 1e-12)))

    def test_lattice_above_the_ceiling_is_refused_before_allocation(self, monkeypatch):
        # dn_s = 1e8 asks for 1.6e9 number states; the run must fail before it builds
        # a probe or a ruler on them
        monkeypatch.setattr(scenarios, "make_gaussian_probe", lambda *a: pytest.fail("probe built"))
        monkeypatch.setattr(scenarios, "_shift_run", lambda *a: pytest.fail("ruler built"))
        tracemalloc.start()
        try:
            with pytest.raises(GridTooNarrow, match="MAX_LATTICE_POINTS"):
                run_phase_gaussian(PhaseGaussianScenario(1e9, 1e8))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100e3
        with pytest.raises(GridTooNarrow):
            run_phase_gaussian(PhaseGaussianScenario(8.0 * 65536.0, 65536.0))

    @pytest.mark.parametrize("spec", [(64000.3, 8000.0), (128000.3, 16000.0)])
    def test_sharp_lattice_passes_the_negativity_gate(self, spec):
        # min p reaches -1.6e-12 in absolute terms but at most -8.0e-15 of the
        # peak, FFT roundoff; F is within 1.6e-11 of the closed form by both routes
        run = run_phase_gaussian(PhaseGaussianScenario(*spec))
        for lam in (0.01, -0.03):
            assert run.family(lam).total_mass() == pytest.approx(1.0, abs=1e-12)
        for report in (run.fisher(), run.fisher(step=run.default_step)):
            assert report.fisher == pytest.approx(run.closed_form.fisher, rel=2e-10)

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
        probe = make_sg_probe(SGProbeSpec(xi=0.9, n_max=300))
        p = scenarios._shift_run("phase_sg", probe, 0.0, run_phase_sg(SGScenario(xi=0.9)).closed_form).family(0.0)
        np.testing.assert_allclose(
            p.density, sg_closed_form_density(0.9, p.mu_grid.points), atol=1e-10
        )

    @pytest.mark.parametrize("lam", [math.pi * 1e12, math.pi * 1e15, math.pi * 1e17])
    def test_huge_signal_is_its_reduced_phase(self, lam):
        # a float64 phase argument fl(tau*lam) put pi*1e12 5.1e-4 of the peak off the
        # closed form and failed the negativity gate at pi*1e15; the exact shift is
        # the member at lam mod 2*pi: measured 1.3e-15 of the peak from it
        run = run_phase_sg(SGScenario(xi=0.9))
        with mpmath.workprec(1200):
            reduced = float(mpmath.fmod(mpmath.mpf(lam), 2 * mpmath.pi))
        member, near = run.family(lam), run.family(reduced)
        closed = sg_closed_form_density(0.9, member.mu_grid.points, reduced)
        peak = np.max(closed)
        assert np.max(np.abs(member.density - near.density)) <= 1.5e-14 * peak
        # the series' truncation gap at the reduced phase, 5.6e-7 to 1.6e-6 of the
        # peak here (1.5e-6 at lambda = 0.3), is all that separates it from the closed form
        gap = np.max(np.abs(near.density - closed))
        assert gap <= 2e-6 * peak
        assert np.max(np.abs(member.density - closed)) <= gap + 1.5e-14 * peak

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
        p_d = statistics_from_coherence(CoherenceFunction(generic.spacing, dense[len(generic.values) - 1:]))
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


# (run, its probe built from the spec, its ruler on the probe's grid); the
# linear runs read 64- and 100-point probes (momentum width 1/(2*dx_s), phase
# slope -x0) through ``_shift_run``, a phase probe sits on the integers
# n_mean +/- 8*dn_s
SHIFT_RUNS = {
    "linear": (lambda: scenarios._shift_run("linear", gaussian_probe(0.0, 1.0, 64, -0.3), 0.5,
                                            closed_form_linear(0.5, 0.5)),
               lambda: gaussian_probe(0.0, 1.0, 64, -0.3),
               lambda grid: make_gaussian_ruler(0.5, grid)),
    "linear-ideal": (lambda: scenarios._shift_run("linear", gaussian_probe(0.0, 1.0, 100), 0.0,
                                                  closed_form_linear(0.5, 0.0)),
                     lambda: gaussian_probe(0.0, 1.0, 100),
                     make_ideal_ruler),
    "phase": (lambda: run_phase_gaussian(PhaseGaussianScenario(100.0, 5.0, 0.1)),
              lambda: make_gaussian_probe(GaussianProbeSpec(100.0, 5.0), GeneratorGrid(60, 140, 81)),
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

    def test_zero_quantum_bound_passes_roundoff(self):
        # F_Q = 0: the Richardson F is roundoff (measured 7.7e-27), under FISHER_FLOOR
        run = CoherentSqueezedScenario(0.5, 0.5).run()
        rep = run.fisher(0.37, step=run.default_step)
        assert rep.qfi == 0.0
        assert 0.0 <= rep.fisher <= FISHER_FLOOR

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
        # permute the sampled (m, k) cells exactly, here on the law's 64 x 64 outcomes
        sc = CoherentSqueezedScenario(vx_s=0.5, vx_m=0.5, x0=0.6, p0=0.0)
        run = run_phase_coherent_squeezed(sc)
        p0 = run.family(0.0).density
        assert p0.shape == (MIN_POINTS, MIN_POINTS)
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

    def test_rotation_derivative_against_central_difference(self):
        # -i N psi differs from d psi/d lambda of rotate_gaussian, which drops the
        # global phase, by i c psi with one real rate c; with c fitted, the 4-point
        # central difference at h = 5e-4 leaves <= 8.0e-12 of max|dpsi|, its h^4
        # error and roundoff
        x = GeneratorGrid(-12.0, 12.0, 1024).points
        h = 5e-4
        for args in ((0.2, 1.0, 0.5), (1.25, 0.5, -1.0), (0.7, -0.3, 1.2), (0.5, 0.0, 0.0)):
            for lam in (0.0, 0.3, 1.0, 2.5, -0.7):
                f = lambda d: rotate_gaussian(*args, lam + d, x)  # noqa: E731
                diff = (8.0 * (f(h) - f(-h)) - (f(2 * h) - f(-2 * h))) / (12.0 * h)
                psi = f(0.0)
                exact = psi * rotate_gaussian_dlog(*args, lam, x)
                c = np.vdot(1j * psi, diff - exact).real / np.vdot(psi, psi).real
                assert np.max(np.abs(diff - exact - 1j * c * psi)) <= 1e-10 * max(np.max(np.abs(exact)), 1.0)

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


# (spec, runner, oracle, last angle) of joint cases whose state grids hold
# more points than their m axes
FOLDED_CASES = (
    (NonlinearScenario(vx_s=0.05, vx_m=4.0, x0=0.3, p0=0.5, lambda_pad=0.3),
     run_nonlinear, nonlinear_oracle, 0.25),
    (CoherentSqueezedScenario(vx_s=0.5, vx_m=0.5, x0=10.0, p0=-3.0),
     run_phase_coherent_squeezed, coherent_squeezed_oracle, 0.7),
)


def joint_members(case):
    """Each family member of a joint case with the spec and oracle that recompute it."""
    sc, runner, oracle, last = case
    run = runner(sc)
    for lam in (0.0, run.default_step, -run.default_step, last):
        yield sc, oracle, lam, run.family(lam)


def assert_matches_oracle(case):
    """Every member of ``case`` against its direct sum on the same state grid, within 5e-14 of the peak."""
    for sc, oracle, lam, dist in joint_members(case):
        ref = oracle(sc, lam, dist.mu_grid, dist.k_grid).density
        assert np.max(np.abs(dist.density - ref)) <= 5e-14 * np.max(ref)


class TestJointReadout:
    """The once-built (m, k) readout, one FFT per window, against the direct complex-product sum."""

    # one FFT per window in place of the direct sum moves the density by
    # rounding only: 2.2e-15 of the peak at most
    def test_nonlinear_matches_oracle(self):
        assert_matches_oracle(JOINT_CASES[0])

    def test_coherent_squeezed_matches_oracle(self):
        assert_matches_oracle(JOINT_CASES[1])

    @pytest.mark.parametrize(("case", "state"), zip(JOINT_CASES, (nonlinear_state, coherent_squeezed_state)),
                             ids=("nonlinear", "phase-cs"))
    def test_real_gemm_matches_complex_product(self, case, state):
        # the derivative reads out O and dO through the same FFT: its member
        # and dp/dlambda against the complex-product direct sums, within
        # 5e-14 of each peak (measured 2.2e-15 and 5.9e-15)
        sc, runner, _, last = case
        run = runner(sc)
        for lam in (0.0, run.default_step, -run.default_step, last):
            dist, dp = run.derivative(lam)
            ref, ref_dp = derivative_oracle(state, sc, lam, dist.mu_grid, dist.k_grid)
            assert np.max(np.abs(dist.density - ref.density)) <= 5e-14 * np.max(ref.density)
            assert np.max(np.abs(dp - ref_dp)) <= 5e-14 * np.max(np.abs(ref_dp))

    @pytest.mark.parametrize("case", FOLDED_CASES, ids=("nonlinear", "phase-cs"))
    def test_folded_readout_matches_oracle(self, case):
        # more state samples than m points: the window rows fold modulo M before
        # the FFT (n = 229 at M = 64 and 193 at M = 75; measured 2.0e-15 and 4.9e-15 of the peak)
        sc, runner, *_ = case
        m_grid = runner(sc).family(0.0).mu_grid
        assert joint_grid(sc, m_grid).n_points > m_grid.n_points
        assert_matches_oracle(case)

    @pytest.mark.parametrize(("sc", "gate"), (
        (JOINT_CASES[1][0], 7e-13),  # measured 1.3e-14 of the peak
        (CoherentSqueezedScenario(vx_s=0.5, vx_m=0.5), 2.5e-13),  # measured 1.0e-14
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


def criterion_4_draws(seed, count):
    """Joint specs drawn as acceptance criterion 4 draws them, ``count`` of each kind."""
    rng = np.random.default_rng(seed)
    for kind, x0_max in (("phase-cs", 1.5), ("nonlinear", 1.0)):
        for _ in range(count):
            yield SCENARIOS[kind](
                vx_s=rng.uniform(0.2, 1.0), vx_m=rng.uniform(0.2, 1.0),
                x0=rng.uniform(-x0_max, x0_max), p0=rng.uniform(-1.5, 1.5),
            )


J = np.array([[0.0, 1.0], [-1.0, 0.0]])
# the generators r^T h r / 2 of the joint kinds, r = (x, p): p^2 and the number operator plus 1/2
GENERATORS = {"nonlinear": np.diag([0.0, 2.0]), "phase-cs": np.eye(2)}


def gaussian_law(kind, vx_s, vx_m, x0, p0, lam):
    """Mean and covariance of (x, p) at ``lam``, and their lambda-derivatives.

    The probe N((x0, p0), diag(vx_s, 1/(4 vx_s))) moves under e^{-i lam G}
    by the symplectic map S = exp(lam J h) of G = r^T h r / 2: the shear
    [[1, 2 lam], [0, 1]] for ``nonlinear``, the rotation for ``phase-cs``.
    The ruler adds diag(vx_m, 1/(4 vx_m)); the run's k reads -p.
    """
    jh = J @ GENERATORS[kind]
    s = scipy.linalg.expm(lam * jh)
    mean = s @ [x0, p0]
    turned = s @ np.diag([vx_s, 0.25 / vx_s]) @ s.T
    d_turned = jh @ turned
    return mean, turned + np.diag([vx_m, 0.25 / vx_m]), jh @ mean, d_turned + d_turned.T


def gaussian_fisher(kind, vx_s, vx_m, x0, p0, lam):
    """F = dmu^T C^-1 dmu + tr((C^-1 dC)^2)/2 of the normal family (Kay 1993, section 3.9)."""
    _, cov, d_mean, d_cov = gaussian_law(kind, vx_s, vx_m, x0, p0, lam)
    ratio = np.linalg.solve(cov, d_cov)
    return float(d_mean @ np.linalg.solve(cov, d_mean) + 0.5 * np.trace(ratio @ ratio))


def gaussian_qfi(kind, vx_s, x0, p0):
    """4 Var(G) of the probe: 4 (tr((h S)^2)/2 + r0^T h S h r0 + tr((h J)^2)/8), S its covariance."""
    h, r0 = GENERATORS[kind], np.array([x0, p0])
    hs, hj = h @ np.diag([vx_s, 0.25 / vx_s]), h @ J
    return float(4.0 * (0.5 * np.trace(hs @ hs) + r0 @ hs @ h @ r0 + 0.125 * np.trace(hj @ hj)))


def normal_density(dist, mean, cov):
    """The bivariate normal on a joint member's (m, k) cells, k reading -p."""
    r = np.stack(np.meshgrid(dist.mu_grid.points - mean[0], -dist.k_grid.points - mean[1], indexing="ij"))
    quad = np.einsum("i...,ij,j...->...", r, np.linalg.inv(cov), r)
    return np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(np.linalg.det(cov)))


# (vx_s, vx_m, x0, p0) of specs read against the normal law
LAW_SPECS = ((0.3, 0.5, 0.2, 0.6), (0.25, 0.25, 0.0, 0.0), (1.0, 0.2, -1.0, 1.5), (0.2, 1.0, 0.7, -1.2),
             (0.5, 0.4, 0.3, 0.2))


class TestGaussianLaw:
    """Each joint kind's outcome law is the normal N(S r0, S Sigma_s S^T + Sigma_m) at every lambda."""

    def test_normal_family_is_the_closed_forms(self):
        # at lambda = 0 over 200 draws: measured 4.4e-16 (F) and 2.2e-16 (QFI) relative
        rng = np.random.default_rng(2701)
        for _ in range(200):
            vx_s, vx_m = rng.uniform(0.05, 5.0, 2)
            x0, p0 = rng.uniform(-2.0, 2.0, 2)
            fp2 = closed_form_fp2(vx_s, vx_m, p0)
            fn = closed_form_fn(vx_s, 0.25 / vx_s, vx_m, 0.25 / vx_m, x0, p0)
            assert gaussian_fisher("nonlinear", vx_s, vx_m, x0, p0, 0.0) == pytest.approx(fp2.fisher, rel=1e-14)
            assert gaussian_fisher("phase-cs", vx_s, vx_m, x0, p0, 0.0) == pytest.approx(fn.fisher, rel=1e-14)
            assert gaussian_qfi("nonlinear", vx_s, x0, p0) == pytest.approx(fp2.qfi, rel=1e-14)
            assert gaussian_qfi("phase-cs", vx_s, x0, p0) == pytest.approx(
                scenarios.gaussian_number_qfi(vx_s, 0.25 / vx_s, x0, p0), rel=1e-14)

    @pytest.mark.parametrize(("kind", "lambdas"), (("nonlinear", (0.01, 0.03, -0.04)), ("phase-cs", (0.3, 1.0, 2.5))))
    def test_exact_fisher_off_zero_is_the_normal_family(self, kind, lambdas):
        # measured 4.5e-10 (nonlinear) and 4.3e-10 (phase-cs) relative; the vacuum's F is 0 on both
        for spec in LAW_SPECS:
            run = SCENARIOS[kind](*spec).run()
            for lam0 in lambdas:
                assert run.fisher(lam0).fisher == pytest.approx(
                    gaussian_fisher(kind, *spec, lam0), rel=5e-9, abs=FISHER_FLOOR)

    @pytest.mark.parametrize(("kind", "lambdas", "gate"), (
        ("nonlinear", (0.0, 0.025, -0.04, 0.05), 3e-13),  # measured 7.9e-15 of the peak
        ("phase-cs", (0.0, 0.3, 1.0, 2.5, -2.0), 4e-12),  # measured 7.3e-13 at lambda = -2: the state grid's 8-sigma cut
    ), ids=("nonlinear", "phase-cs"))
    def test_density_is_the_blurred_normal(self, kind, lambdas, gate):
        for spec in LAW_SPECS:
            run = SCENARIOS[kind](*spec).run()
            for lam in lambdas:
                dist = run.family(lam)
                ref = normal_density(dist, *gaussian_law(kind, *spec, lam)[:2])
                assert np.max(np.abs(dist.density - ref)) <= gate * np.max(ref)

    @pytest.mark.parametrize("kind", ("nonlinear", "phase-cs"))
    def test_axes_hold_the_law_over_the_lambda_range(self, kind):
        # each axis holds mean +/- SPAN_SIGMAS sd of the law at every lambda the run
        # takes: +/- lambda_pad for nonlinear, where one m end meets it exactly, and
        # the whole circle for phase-cs; 1e-12 of the span is the only slack
        for sc in law_range_specs(kind):
            dist = sc.run().family(0.0)
            lambdas = (-sc.lambda_pad, sc.lambda_pad) if kind == "nonlinear" else np.linspace(-np.pi, np.pi, 721)
            for lam in lambdas:
                mean, cov, *_ = gaussian_law(kind, sc.vx_s, sc.vx_m, sc.x0, sc.p0, lam)
                reach = SPAN_SIGMAS * np.sqrt(np.diag(cov))
                for axis, center, half in ((dist.mu_grid, mean[0], reach[0]), (dist.k_grid, -mean[1], reach[1])):
                    slack = 1e-12 * axis_span(axis)
                    assert axis.g_min <= center - half + slack and center + half - slack <= axis.g_max


def law_range_specs(kind):
    """Specs of ``kind`` read against the law over its lambda range, squeezed, sheared and displaced ones among them."""
    specs = [SCENARIOS[kind](*spec) for spec in LAW_SPECS]
    specs += [case[0] for case in (*JOINT_CASES, *FOLDED_CASES, WIDE_RULER_CASE) if isinstance(case[0], SCENARIOS[kind])]
    specs += [sc for sc in criterion_4_draws(2401, 16) if isinstance(sc, SCENARIOS[kind])]
    if kind == "nonlinear":
        return specs + [NonlinearScenario(0.25, 0.25, p0=1.5, lambda_pad=1.0), NonlinearScenario(0.01, 0.01, lambda_pad=0.5)]
    return specs + [CoherentSqueezedScenario(0.01, 0.01), CoherentSqueezedScenario(0.01, 100.0, 2.0, 1.0)]


# a nonlinear case whose state grid the sampling rule sets above MIN_POINTS (102
# points): a wide ruler widens the m axis while the probe's momentum span stays
WIDE_RULER_CASE = (NonlinearScenario(vx_s=0.2, vx_m=4.0, x0=0.3, p0=0.5, lambda_pad=0.3),
                   run_nonlinear, nonlinear_oracle, 0.25)


class TestStateSampling:
    """Each joint run samples its state on the grid dual to its m axis, on the fewest points that span the state."""

    def test_state_grid_is_the_fewest_that_span_the_m_axis(self, monkeypatch):
        # dp*dm = 2*pi/M, so 2*pi/dp = M*dm exceeds the m span; the grid spans the
        # state's 8 sigmas, and one point fewer falls short unless n is the floor
        seen = []
        real = scenarios._joint_family

        def spy(grid, vx_m, m_grid, *rest):
            seen.append((grid, m_grid))
            return real(grid, vx_m, m_grid, *rest)

        monkeypatch.setattr(scenarios, "_joint_family", spy)
        # the rule sets n above the floor for these (measured 96, 104 and 103 points)
        binding = (NonlinearScenario(0.2, 4.0), NonlinearScenario(0.25, 0.25, p0=1.5, lambda_pad=1.0),
                   WIDE_RULER_CASE[0])
        specs = [*binding, *(case[0] for case in JOINT_CASES), *criterion_4_draws(2401, 16)]
        for sc in specs:
            sc.run()
        assert len(seen) == len(specs)
        for i, (sc, (grid, m_grid)) in enumerate(zip(specs, seen)):
            n, dp, half = grid.n_points, grid.spacing, state_half(sc)
            assert dp * m_grid.spacing * m_grid.n_points == pytest.approx(2.0 * math.pi, rel=1e-12)
            assert 2.0 * math.pi / dp > axis_span(m_grid)
            assert grid == joint_grid(sc, m_grid)
            assert axis_span(grid) >= 2.0 * half * (1.0 - 1e-12)
            assert n == MIN_POINTS or (n - 2) * dp < 2.0 * half
            assert n > MIN_POINTS if i < len(binding) else n <= 100  # the draws: measured 64 to 81

    @pytest.mark.parametrize("spans", ((math.inf, 1.0), (math.nan, 1.0), (1e200, 1.0), (500.0, 26.0)))
    def test_a_count_out_of_range_is_too_narrow(self, spans):
        # (state half-span, m span) at M = 256: non-finite, overflowing, and 4,156 points
        half, m_span = spans
        with pytest.raises(GridTooNarrow, match="MAX_STATE_POINTS"):
            state_grid(0.0, half, GeneratorGrid(-0.5 * m_span, 0.5 * m_span, 256))

    def test_the_count_is_the_ceiling_of_the_sampling_condition(self):
        # n = max(MIN_POINTS, ceil(2*half/dp) + 1), centred, at dp = 2*pi/(M*dm) = 0.5 here
        m_grid = GeneratorGrid(-127.5 * math.pi / 64.0, 127.5 * math.pi / 64.0, 256)
        for half, n in ((1.0, MIN_POINTS), (50.1, 202), (1023.74, MAX_STATE_POINTS)):
            grid = state_grid(3.0, half, m_grid)
            assert grid.n_points == n
            assert grid.spacing == pytest.approx(0.5, rel=1e-12)
            assert 0.5 * (grid.g_min + grid.g_max) == pytest.approx(3.0, rel=1e-12)
        with pytest.raises(GridTooNarrow, match="MAX_STATE_POINTS"):
            state_grid(3.0, 1023.76, m_grid)

    @pytest.mark.parametrize("case", (*JOINT_CASES, WIDE_RULER_CASE), ids=("nonlinear", "phase-cs", "wide-ruler"))
    def test_four_times_denser_state_grid_agrees(self, case):
        # measured F 4.4e-15 relative and densities 1.3e-15 of the peak (nonlinear),
        # 4.9e-14 and 1.4e-14 (phase-cs), 8.0e-14 and 5.9e-15 (wide-ruler)
        sc, runner, oracle, last = case
        run = runner(sc)
        axes = run.family(0.0)
        for lam in (0.0, run.default_step, -run.default_step, last):
            dist = run.family(lam)
            ref = oracle(sc, lam, dist.mu_grid, dist.k_grid, denser=4).density
            assert np.max(np.abs(dist.density - ref)) <= 5e-11 * np.max(ref)
        dense = lambda lam: oracle(sc, lam, axes.mu_grid, axes.k_grid, denser=4)  # noqa: E731
        for lam0 in (0.0, last):
            got = run.fisher(lam0, step=run.default_step).fisher
            assert got == pytest.approx(fisher_from_family(dense, lam0, run.default_step).fisher, rel=8e-12)

    def test_far_displaced_probe_is_sampled_not_aliased(self, tmp_path):
        # x0 = 40 widens the m axis to 96, which takes 1404 state points and 193 x 193
        # outcome cells; a fixed 1024 aliased the readout onto the axis (density norm 2.0, exit 3)
        out = tmp_path / "far"
        assert cli.main(["fisher", "--scenario", "phase-cs", "--vxs", "0.5", "--vxm", "0.5",
                         "--x0", "40", "--out", str(out)]) == 0
        payload = json.loads((out / "fisher.json").read_text(encoding="utf-8"))
        assert payload["numerical"]["fisher"] == pytest.approx(1600.0, rel=1e-9)  # measured 2.6e-11
        dist = CoherentSqueezedScenario(0.5, 0.5, 40.0).run().family(0.0)
        assert (dist.mu_grid.n_points, dist.k_grid.n_points) == (193, 193)  # 96 sds of the law each

    # x0 = 80: its 353 x 353 outcome cells pass MAX_JOINT_CELLS, its 4,813 state points do not
    @pytest.mark.parametrize("spec", (CoherentSqueezedScenario(0.5, 0.5, x0=80.0), NonlinearScenario(0.25, 1e5)),
                             ids=("phase-cs", "nonlinear"))
    def test_too_wide_an_m_axis_fails_before_allocating(self, spec, monkeypatch):
        def built(*args):
            pytest.fail("the readout was built")

        monkeypatch.setattr(scenarios, "_joint_family", built)
        tracemalloc.start()
        try:
            with pytest.raises(GridTooNarrow, match="MAX_STATE_POINTS"):
                spec.run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2e4  # measured 2.0 KB: no state grid, probe or readout

    def test_too_wide_an_m_axis_exits_3(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(scenarios, "_joint_family", lambda *args: pytest.fail("the readout was built"))
        assert cli.main(["fisher", "--scenario", "phase-cs", "--vxs", "0.5", "--vxm", "0.5",
                         "--x0", "80", "--out", str(tmp_path / "x")]) == 3
        assert "above MAX_STATE_POINTS" in capsys.readouterr().err


class TestLawAxes:
    """Each joint outcome axis takes POINTS_PER_SIGMA points per smallest marginal sd of the law over the run's range."""

    def test_the_poisson_bound_is_below_roundoff(self):
        # the alias term 2 e^{-2 pi^2 c^2} of a Riemann sum of a normal law at spacing sd/c
        assert 2.0 * math.exp(-2.0 * math.pi**2 * POINTS_PER_SIGMA**2) <= 1e-2 * np.finfo(float).eps

    def test_the_count_is_the_ceiling_of_points_per_sigma(self):
        # n = max(MIN_POINTS, ceil(2*half*POINTS_PER_SIGMA/sd) + 1), on centre +/- half
        m_grid, k_grid = law_axes((3.0, 10.0, 0.1), (-1.0, 1.0, 1.0))
        assert (m_grid.n_points, k_grid.n_points) == (401, MIN_POINTS)
        assert (m_grid.g_min, m_grid.g_max, k_grid.g_min, k_grid.g_max) == (-7.0, 13.0, -2.0, 0.0)
        half = (MAX_JOINT_CELLS / MIN_POINTS - 1.0) / (2.0 * POINTS_PER_SIGMA)  # exactly at the ceiling
        assert law_axes((0.0, half, 1.0), (0.0, 1.0, 1.0))[0].n_points * MIN_POINTS == MAX_JOINT_CELLS
        with pytest.raises(GridTooNarrow, match="MAX_JOINT_CELLS"):
            law_axes((0.0, half + 0.01, 1.0), (0.0, 1.0, 1.0))

    @pytest.mark.parametrize("axis", ((0.0, math.inf, 1.0), (0.0, math.nan, 1.0), (0.0, 1.0, math.nan), (0.0, 1e300, 1e-10)))
    def test_a_count_out_of_range_is_too_narrow(self, axis):
        with pytest.raises(GridTooNarrow, match="MAX_JOINT_CELLS"):
            law_axes(axis, (0.0, 1.0, 1.0))

    @pytest.mark.parametrize("kind", ("nonlinear", "phase-cs"))
    def test_spacing_resolves_the_law_over_the_lambda_range(self, kind):
        # at every lambda the run takes, each axis's spacing is at most the law's
        # marginal sd over POINTS_PER_SIGMA; the shear and the rotation only widen
        # the law past its narrowest marginals, at lambda = 0 and at quarter turns
        for sc in law_range_specs(kind):
            dist = sc.run().family(0.0)
            lambdas = np.linspace(-sc.lambda_pad, sc.lambda_pad, 21) if kind == "nonlinear" else np.linspace(-np.pi, np.pi, 181)
            for lam in lambdas:
                sd = np.sqrt(np.diag(gaussian_law(kind, sc.vx_s, sc.vx_m, sc.x0, sc.p0, lam)[1]))
                assert dist.mu_grid.spacing <= sd[0] / POINTS_PER_SIGMA * (1.0 + 1e-12)
                assert dist.k_grid.spacing <= sd[1] / POINTS_PER_SIGMA * (1.0 + 1e-12)

    def test_squeezed_probe_is_sampled_not_aliased(self, tmp_path):
        # x-variances 0.01: the m axis takes 1,133 points; a fixed 256 left the
        # density's norm at 0.9637 (exit 3)
        out = tmp_path / "squeezed"
        assert cli.main(["fisher", "--scenario", "phase-cs", "--vxs", "0.01", "--vxm", "0.01", "--out", str(out)]) == 0
        payload = json.loads((out / "fisher.json").read_text(encoding="utf-8"))
        assert payload["agreement_rel"] <= 1e-8  # measured 3.7e-10
        dist = CoherentSqueezedScenario(0.01, 0.01).run().family(0.0)
        assert (dist.mu_grid.n_points, dist.k_grid.n_points) == (1133, MIN_POINTS)

    def test_too_many_cells_exit_3_before_allocating(self, monkeypatch, tmp_path, capsys):
        # x0 = 35 on the squeezed probe: 2,123 x 75 outcome cells, above MAX_JOINT_CELLS,
        # while its state grid, 3,640 points even on the coarsest m axis, passes MAX_STATE_POINTS
        sc = CoherentSqueezedScenario(0.01, 0.01, 35.0)
        m_half = SPAN_SIGMAS * math.sqrt(25.0 + sc.vx_m) + sc.x0
        assert state_grid(0.0, state_half(sc), GeneratorGrid(-m_half, m_half, MIN_POINTS)).n_points <= MAX_STATE_POINTS
        monkeypatch.setattr(scenarios, "_joint_family", lambda *args: pytest.fail("the readout was built"))
        tracemalloc.start()
        try:
            with pytest.raises(GridTooNarrow, match="MAX_JOINT_CELLS"):
                sc.run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2e4  # measured 2.0 KB: no axis points, state grid, probe or readout
        assert cli.main(["fisher", "--scenario", "phase-cs", "--vxs", "0.01", "--vxm", "0.01",
                         "--x0", "35", "--out", str(tmp_path / "x")]) == 3
        assert "above MAX_JOINT_CELLS" in capsys.readouterr().err


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

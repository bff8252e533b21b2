import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import qruler
from qruler.coherence import (
    EXACT_INDEX,
    GAMMA0_TOL,
    IMAG_TOL,
    NEGATIVE_CLIP,
    NORM_HARD_TOL,
    SPLIT_MAX,
    SYMMETRY_TOL,
    CoherenceFunction,
    GaussianModel,
    OutcomeDistribution,
    _finalize_density,
    _transform,
    appendix_coherence,
    coherence_function,
    coherence_time,
    direct_statistics,
    signal_uncertainty,
    statistics_from_coherence,
    wk_product,
)
from qruler.errors import (
    DegenerateDistribution,
    GridMismatch,
    InvalidGrid,
    NormalizationFailure,
    SignalOutOfRange,
)
from qruler.grids import GeneratorGrid, grid_for_gaussian
from qruler.ruler import FLAT_DIAGONAL, RulerSeed, make_gaussian_ruler, make_ideal_ruler, validate_ruler
from qruler.scenarios import (
    LinearScenario,
    PhaseGaussianScenario,
    SGScenario,
    run_linear,
    run_phase_gaussian,
    run_phase_sg,
)
from qruler.states import GaussianProbeSpec, SGProbeSpec, make_gaussian_probe, make_sg_probe

SQRT_PI = math.sqrt(math.pi)


def trace_coherence(probe, ruler):
    """Dense oracle for Gamma: sum along each off-diagonal of rho0 * Delta0^T.

    Gamma(tau_j) = sum_i <g_i|rho0|g_i+j> <g_i+j|Delta0|g_i> * dg, read
    from the dense n x n kernel; O(n^2) memory, tests only.
    """
    psi = probe.amplitudes
    b = np.outer(psi, np.conj(psi)) * ruler.kernel.T
    n = len(psi)
    return np.array([np.trace(b, offset=j) for j in range(-(n - 1), n)]) * probe.grid.spacing


def grid_lags(gamma, n):
    """Gamma on the n lags tau >= 0 of an n-point grid (its 2n-1 grid lags): the padding dropped."""
    return CoherenceFunction(gamma.spacing, gamma.values[:n])


class TestCoherenceFunction:
    def test_gaussian_pair_closed_form(self, unit_probe, half_ruler):
        gamma = coherence_function(unit_probe, half_ruler)
        # probe sigma 1 contributes 1/4, ruler 1/4: total conjugate variance 1/2
        expected = FLAT_DIAGONAL * np.exp(-0.25 * gamma.tau_grid**2)
        np.testing.assert_allclose(gamma.values.real, expected, atol=1e-6 * FLAT_DIAGONAL)
        assert np.max(np.abs(gamma.values.imag)) < 1e-12

    def test_gamma0_is_inverse_two_pi(self, unit_probe, half_ruler):
        gamma = coherence_function(unit_probe, half_ruler)
        assert gamma.gamma0 == pytest.approx(FLAT_DIAGONAL, abs=1e-12)

    def test_ideal_ruler_probe_only_width(self, unit_probe):
        gamma = coherence_function(unit_probe, make_ideal_ruler(unit_probe.grid))
        expected = FLAT_DIAGONAL * np.exp(-gamma.tau_grid**2 / 8.0)
        # the flat kernel exposes the grid-intersection window, whose
        # truncation shows up in the far tails at the 1e-9 level
        np.testing.assert_allclose(gamma.values.real, expected, atol=1e-6 * FLAT_DIAGONAL)

    def test_hermitian_symmetry(self, half_ruler, unit_grid):
        # the stored lags tau >= 0, mirrored, are the dense trace on every lag, tau < 0 included
        probe = make_gaussian_probe(GaussianProbeSpec(0.0, 1.0, conjugate_center=2.0), unit_grid)
        gamma = coherence_function(probe, half_ruler)
        tau, full = grid_lags(gamma, unit_grid.n_points).all_lags()
        assert np.array_equal(tau, np.concatenate([-unit_grid.tau_grid[:0:-1], unit_grid.tau_grid]))
        np.testing.assert_allclose(full, trace_coherence(probe, half_ruler), atol=1e-14)

    @pytest.mark.parametrize("spacing", [0.0, -1.0, math.nan, math.inf])
    def test_spacing_must_be_finite_and_positive(self, spacing):
        with pytest.raises(ValueError, match="lag spacing"):
            CoherenceFunction(spacing, np.full(4, FLAT_DIAGONAL, dtype=complex))

    def test_one_value_per_lag(self):
        # Gamma(0) is the first lag, and a transform needs a second one
        with pytest.raises(ValueError, match="two or more lags"):
            CoherenceFunction(1.0, np.full(1, FLAT_DIAGONAL, dtype=complex))
        gamma = CoherenceFunction(0.25, np.linspace(0.5, 1.0, 4) + 0.5j * np.arange(4))
        assert gamma.gamma0 == 0.5 and gamma.spacing == 0.25
        assert len(gamma.tau_grid) == len(gamma.values) == 4

    def test_first_lag_is_zero(self):
        # the lags are j*spacing, so gamma0 reads Gamma(0) and never Gamma(-tau_max)
        gamma = CoherenceFunction(0.25, np.linspace(0.5, 1.0, 4) + 0.5j * np.arange(4))
        assert gamma.tau_grid[0] == 0.0
        assert np.array_equal(gamma.tau_grid, [0.0, 0.25, 0.5, 0.75])
        assert not gamma.tau_grid.flags.writeable and gamma.tau_grid is gamma.tau_grid

    @pytest.mark.parametrize("n", [256, 512, 1024])
    def test_spacing_is_the_grid_spacing(self, n):
        grid = grid_for_gaussian(0.0, 1.0, n)
        probe = make_gaussian_probe(GaussianProbeSpec(0.0, 1.0), grid)
        for ruler in (make_ideal_ruler(grid), make_gaussian_ruler(0.5, grid)):
            assert coherence_function(probe, ruler).spacing == grid.spacing

    def test_grid_mismatch(self, unit_probe):
        other = make_gaussian_ruler(0.5, grid_for_gaussian(0.0, 1.0, 256))
        with pytest.raises(GridMismatch):
            coherence_function(unit_probe, other)

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(64, 300),
        sigma=st.floats(0.4, 2.0),
        center=st.floats(-1.0, 1.0),
        k0=st.floats(-2.0, 2.0).filter(lambda v: abs(v) > 1e-3),
        dphi=st.floats(0.05, 1.5),
        ideal=st.booleans(),
    )
    def test_fft_route_matches_trace_oracle(self, n, sigma, center, k0, dphi, ideal):
        grid = grid_for_gaussian(center, sigma, n)
        probe = make_gaussian_probe(GaussianProbeSpec(center, sigma, k0), grid)
        ruler = make_ideal_ruler(grid) if ideal else make_gaussian_ruler(dphi, grid)
        _, lags = grid_lags(coherence_function(probe, ruler), n).all_lags()
        np.testing.assert_allclose(lags, trace_coherence(probe, ruler), rtol=0, atol=1e-15)

    def test_no_dense_allocation_on_large_axis(self):
        # the xi = 0.999 phase axis: 13,810 points, a dense kernel would be 3 GB
        probe = make_sg_probe(SGProbeSpec(xi=0.999))
        grid = probe.grid
        assert grid.n_points == 13810
        tracemalloc.start()
        try:
            gamma = coherence_function(probe, make_ideal_ruler(grid))
            make_gaussian_ruler(0.1, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 2 * len(gamma.values) - 1 == 27783  # 3^4 * 7^3; the 2n-1 = 27,619 = 71 * 389 grid lags
        assert peak < 50e6


class TestPadded:
    """Gamma on its lags tau >= 0: the grid lags zero-padded so 2h-1 is the smallest fast odd length."""

    @pytest.mark.parametrize("n", [64, 65, 133, 512, 1024, 13810])
    def test_length_is_the_smallest_fast_odd_one(self, n):
        grid = grid_for_gaussian(0.0, 1.0, n)
        probe = make_gaussian_probe(GaussianProbeSpec(0.0, 1.0), grid)
        size = 2 * len(coherence_function(probe, make_ideal_ruler(grid)).values) - 1
        assert size >= 2 * n - 1
        assert scipy.fft.next_fast_len(size) == size
        assert all(scipy.fft.next_fast_len(m) != m for m in range(2 * n - 1, size, 2))

    @pytest.mark.parametrize("n", [100, 512])
    def test_zeros_outside_the_original_lags(self, n):
        grid = grid_for_gaussian(0.3, 1.1, n)
        probe = make_gaussian_probe(GaussianProbeSpec(0.3, 1.1, 0.7), grid)
        ruler = make_gaussian_ruler(0.4, grid)
        gamma = coherence_function(probe, ruler)
        h = len(gamma.values)
        assert h > n
        np.testing.assert_allclose(
            gamma.values[:n], trace_coherence(probe, ruler)[n - 1:], rtol=0, atol=1e-15
        )
        assert np.array_equal(gamma.tau_grid[:n], grid.tau_grid)
        assert not np.any(gamma.values[n:])
        assert np.array_equal(gamma.tau_grid, np.arange(h) * grid.spacing)
        np.testing.assert_allclose(np.diff(gamma.tau_grid), grid.spacing, rtol=1e-12)
        assert gamma.gamma0 == gamma.values[0].real
        assert not gamma.values.flags.writeable and not gamma.tau_grid.flags.writeable

    def test_same_density_on_a_finer_grid(self, unit_probe, half_ruler):
        # the padded transform samples the same trigonometric polynomial
        # as the transform on the grid's own 2n-1 lags
        gamma = coherence_function(unit_probe, half_ruler)
        unpadded = grid_lags(gamma, unit_probe.grid.n_points)
        assert np.array_equal(unpadded.tau_grid, unit_probe.grid.tau_grid)
        p, q = statistics_from_coherence(unpadded), statistics_from_coherence(gamma)
        assert q.mu_grid.n_points > p.mu_grid.n_points
        assert q.mu_grid.g_max == pytest.approx(p.mu_grid.g_max, rel=2.0 / p.mu_grid.n_points)
        assert q.density[q.mu_grid.n_points // 2] == pytest.approx(
            p.density[p.mu_grid.n_points // 2], rel=1e-12
        )
        assert signal_uncertainty(q) == pytest.approx(signal_uncertainty(p), rel=1e-12)
        assert coherence_time(gamma) == pytest.approx(coherence_time(unpadded), rel=1e-12)


class TestStatisticsFromCoherence:
    def test_gaussian_variance(self, unit_probe, half_ruler):
        p = statistics_from_coherence(coherence_function(unit_probe, half_ruler))
        assert p.total_mass() == pytest.approx(1.0, abs=1e-10)
        assert p.variance() == pytest.approx(0.5, rel=1e-8)
        # pointwise against the normal density the transform must produce
        ref = np.exp(-p.mu_grid.points**2 / 1.0) / math.sqrt(math.pi)
        np.testing.assert_allclose(p.density, ref, atol=1e-8)

    def test_flat_coherence_gives_point_mass(self, unit_grid):
        tau = unit_grid.tau_grid
        flat = CoherenceFunction(unit_grid.spacing, np.full(len(tau), FLAT_DIAGONAL, dtype=complex))
        p = statistics_from_coherence(flat)
        center = p.mu_grid.n_points // 2
        assert p.density[center] * p.cell == pytest.approx(1.0, abs=1e-10)
        off = np.delete(p.density, center)
        assert np.max(np.abs(off)) < 1e-10

    def test_incommensurate_spikes_rejected(self, unit_grid):
        # cosine coherence whose transform has strong negative side lobes
        tau = unit_grid.tau_grid
        freq = 1.37 * 2 * np.pi / ((2 * len(tau) - 1) * unit_grid.spacing)  # off the dual grid
        vals = FLAT_DIAGONAL * np.cos(freq * tau) + 0j
        with pytest.raises(NormalizationFailure):
            statistics_from_coherence(CoherenceFunction(unit_grid.spacing, vals))


def exp_shifted(gamma, delta):
    """Oracle of ``shifted``: Gamma(tau_j) * e^{i j (dtau*delta)} in long double, rounded to complex once.

    With a 64-bit mantissa the argument j*(dtau*delta) is off by at most
    2**-63 of itself, 2**-11 of the float64 argument fl(tau*delta)'s error;
    on the ``BENCH_RUNS`` Gammas at |delta| <= 2.5 the oracle is within
    5e-19 of an mpmath one (measured on every 34th lag or closer).
    """
    assert np.finfo(np.longdouble).nmant >= 63, "needs an 80-bit long double"
    x = np.arange(len(gamma.values), dtype=np.longdouble) * (np.longdouble(gamma.spacing) * np.longdouble(delta))
    cos, sin = np.cos(x), np.sin(x)
    re, im = gamma.values.real.astype(np.longdouble), gamma.values.imag.astype(np.longdouble)
    return CoherenceFunction(gamma.spacing, (re * cos - im * sin).astype(float) + 1j * (re * sin + im * cos).astype(float))


def complex_fft_statistics(gamma):
    """Oracle of the half-spectrum transform: the full complex FFT over every mirrored lag.

    Its imaginary part goes to ``_finalize_density``'s realness gate; tests only.
    """
    _, vals = gamma.all_lags()
    m = len(vals)
    raw = gamma.spacing * np.fft.fftshift(scipy.fft.fft(np.fft.ifftshift(vals)))
    half = (m // 2) * (2.0 * np.pi / (m * gamma.spacing))
    return _finalize_density(GeneratorGrid(-half, half, m), raw)


# the five 1-D families of the fisher-1d benchmark workload
BENCH_RUNS = {
    "linear": lambda: run_linear(LinearScenario(0.5, 0.5)),
    "linear-ideal": lambda: run_linear(LinearScenario(0.5, 0.0)),
    "phase": lambda: run_phase_gaussian(PhaseGaussianScenario(n_mean=100.0, dn_s=5.0, dphi_m=0.1)),
    "sg-0.9": lambda: run_phase_sg(SGScenario(xi=0.9)),
    "sg-0.999": lambda: run_phase_sg(SGScenario(xi=0.999)),
}


class TestOutcomeAxis:
    """A density sits on ``GeneratorGrid`` axes: its shape is checked, its cell is dmu to one ulp."""

    def test_shape_must_match_the_axes(self):
        mu, k = GeneratorGrid(-1.0, 1.0, 101), GeneratorGrid(-2.0, 2.0, 64)
        for dens, k_grid in ((np.ones(100), None), (np.ones((101, 64)), None),
                             (np.ones(101), k), (np.ones((64, 101)), k)):
            with pytest.raises(GridMismatch, match="shape"):
                OutcomeDistribution(mu, dens, k_grid=k_grid)
        assert OutcomeDistribution(mu, np.ones(101)).cell == mu.spacing
        assert OutcomeDistribution(mu, np.ones((101, 64)), k_grid=k).cell == mu.spacing * k.spacing

    @pytest.mark.parametrize("name", sorted(BENCH_RUNS))
    def test_cell_is_the_dual_spacing(self, name):
        run = BENCH_RUNS[name]()
        m = 2 * len(run.gamma.values) - 1
        dmu = 2.0 * np.pi / (m * run.gamma.spacing)
        for lam in (0.0, 0.37):
            dist = run.family(lam)
            assert dist.mu_grid.n_points == m and dist.k_grid is None
            assert abs(dist.cell - dmu) <= np.spacing(dmu)

    def test_center_moves_the_axis_not_the_lags(self, unit_probe, half_ruler):
        # a displacement x0 is the phase e^{i tau x0} on Gamma, carried exactly as the axis's centre
        base, moved = coherence_function(unit_probe, half_ruler), coherence_function(unit_probe, half_ruler, 150.0)
        assert np.array_equal(moved.values, base.values) and moved.spacing == base.spacing
        a, b = base.dual_axis, moved.dual_axis
        assert (b.g_min, b.g_max, b.n_points) == (150.0 + a.g_min, 150.0 + a.g_max, a.n_points)
        assert moved.shifted(0.37).center == 150.0 and base.shifted(0.37).center == 0.0
        p = statistics_from_coherence(moved, 0.37)
        assert p.mu_grid is b
        assert p.mean() == pytest.approx(150.37, abs=1e-10)
        assert p.variance() == pytest.approx(statistics_from_coherence(base, 0.37).variance(), rel=1e-10)

    @pytest.mark.parametrize("name", sorted(BENCH_RUNS))
    def test_product_law_to_roundoff(self, name):
        # Parseval on the exact dual axis: tau_c * Delta lambda = sqrt(pi) up to rounding
        run = BENCH_RUNS[name]()
        for lam in (0.0, 0.37):
            assert abs(wk_product(run.gamma, run.family(lam)) - SQRT_PI) <= 1e-14


class TestHermitianTransform:
    """The transform reads the stored lags tau >= 0; the full complex route is its oracle."""

    @pytest.mark.parametrize("name", sorted(BENCH_RUNS))
    def test_matches_complex_fft_route(self, name):
        gamma = BENCH_RUNS[name]().gamma
        for lam in (-0.93, 0.0, 0.4117):
            p = statistics_from_coherence(gamma.shifted(lam))
            ref = complex_fft_statistics(exp_shifted(gamma, lam))
            assert p.mu_grid == ref.mu_grid
            # measured <= 7.0e-16 of the peak (the float64-argument phase: 8.0e-15 at sg-0.999)
            assert np.max(np.abs(p.density - ref.density)) <= 1e-14 * np.max(ref.density)

    @pytest.mark.parametrize("name", sorted(BENCH_RUNS))
    def test_transform_is_the_scaled_fftshifted_hfft(self, name):
        # the halves written straight into one array are the shift of the whole, bit for bit
        gamma = BENCH_RUNS[name]().gamma
        for lam in (0.0, 0.37):
            shifted = gamma.shifted(lam)
            for values in (shifted.values, 1j * shifted.tau_grid * shifted.values):
                oracle = shifted.spacing * np.fft.fftshift(scipy.fft.hfft(values, 2 * len(values) - 1))
                assert np.array_equal(_transform(shifted, values), oracle)

    @pytest.mark.parametrize("name", sorted(BENCH_RUNS))
    def test_shifted_matches_complex_exp(self, name):
        gamma = BENCH_RUNS[name]().gamma
        for delta in (-0.93, 0.4117, 2.5):
            shifted = gamma.shifted(delta)
            # the base's spacing, and no lag array until one is read
            assert shifted.spacing == gamma.spacing and "tau_grid" not in vars(shifted)
            # measured <= 3.5e-17 (the float64-argument phase: 5.7e-15 at sg-0.999)
            assert np.max(np.abs(shifted.values - exp_shifted(gamma, delta).values)) <= 1e-15


def exact_phase(dtau, delta, j):
    """e^{i j (dtau*delta)} by mpmath at 1,200 bits: the product is exact (53 + 53 + 26 bits),
    and reducing any |j*dtau*delta| < 2**1100 mod 2*pi leaves it 100 bits."""
    with mpmath.workprec(1200):
        return complex(mpmath.expj(j * mpmath.mpf(dtau) * mpmath.mpf(delta)))


def flat_gamma(h, dtau):
    """Gamma = 1 on h lags j*dtau, so a shift returns its phase table."""
    return CoherenceFunction(dtau, np.ones(h, dtype=complex))


def phase_error(gamma, delta, lags):
    """Largest |shifted - exact phase| over ``lags`` of a flat Gamma."""
    out = gamma.shifted(delta).values
    return max(abs(out[j] - exact_phase(gamma.spacing, delta, int(j))) for j in lags)


def sample_lags(h, seed, count=40):
    """Lags 0, 1, h-1 and ``count`` more drawn at random."""
    return np.unique(np.concatenate([[0, 1, h - 1], np.random.default_rng(seed).integers(0, h, count)]))


EPS = np.finfo(float).eps
# largest phase error of ``shifted`` in eps: 10x the 2.5 eps measured over
# 3,000 random draws of the property below, at any |tau*delta|
PHASE_ERROR_EPS = 25.0


class TestExactShift:
    """``shifted`` multiplies by e^{i j s}, s = dtau*delta, from exact arguments: a few ulps at any |tau*delta|."""

    @settings(max_examples=60, deadline=None)
    @given(
        h=st.integers(2, 20_000),
        dtau=st.one_of(st.just(1.0), st.floats(1e-3, 10.0)),
        delta=st.floats(-1e6, 1e6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_phase_error_is_a_few_ulps(self, h, dtau, delta, seed):
        # fl(tau*delta) alone is off by |tau*delta|*eps/2, up to 1e-6 here
        assert phase_error(flat_gamma(h, dtau), delta, sample_lags(h, seed)) <= PHASE_ERROR_EPS * EPS

    @pytest.mark.parametrize("delta", [0.7318, -123456.789, math.pi * 1e17, SPLIT_MAX])
    def test_largest_lattice(self, delta):
        # h = 2**20, the MAX_LATTICE_POINTS bound; measured <= 1.5 eps
        gamma = flat_gamma(1 << 20, 1.0)
        assert phase_error(gamma, delta, sample_lags(1 << 20, 7, count=200)) <= PHASE_ERROR_EPS * EPS

    @pytest.mark.parametrize("name", sorted(BENCH_RUNS))
    def test_zero_shift_and_zero_lag_are_bit_exact(self, name):
        gamma = BENCH_RUNS[name]().gamma
        for zero in (0.0, -0.0):
            assert gamma.shifted(zero).values.tobytes() == gamma.values.tobytes()
        for delta in (-0.93, 1e-300, 2.5, math.pi * 1e17, -SPLIT_MAX):
            assert gamma.shifted(delta).values[:1].tobytes() == gamma.values[:1].tobytes()

    @pytest.mark.parametrize(("delta", "why"), [
        (math.nan, "is not finite"), (math.inf, "is not finite"), (-math.inf, "is not finite"),
        (2.0 * SPLIT_MAX, "exact split"), (-1e308, "exact split"),
    ])
    def test_signal_out_of_range_is_refused(self, delta, why):
        # typed, named and before any arithmetic: no numpy warning
        run = BENCH_RUNS["sg-0.9"]()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for shift in (run.gamma.shifted, run.family, run.derivative):
                with pytest.raises(SignalOutOfRange, match=re.escape(f"delta = {delta!r}") + ".*" + why):
                    shift(delta)

    def test_split_range_counts_the_product(self):
        # |delta| within the split's range, |dtau*delta| beyond it
        gamma = flat_gamma(64, 4.0)
        gamma.shifted(SPLIT_MAX / 4.0)
        with pytest.raises(SignalOutOfRange, match="exact split"):
            gamma.shifted(SPLIT_MAX / 2.0)

    def test_lags_beyond_the_exact_index_are_refused(self):
        # zero-stride views: EXACT_INDEX + 1 lags without the 1 GB they would hold
        gamma = CoherenceFunction(1.0, np.broadcast_to(0.1 + 0j, (EXACT_INDEX + 1,)))
        with pytest.raises(InvalidGrid, match=f"{EXACT_INDEX + 1} lags"):
            gamma.shifted(0.5)


def unit_mass_density():
    """A hand-built Gaussian on 201 outcomes whose Riemann mass is exactly 1."""
    mu = GeneratorGrid(-10.0, 10.0, 201)
    raw = np.exp(-(mu.points**2) / 2.0)
    raw /= np.sum(raw) * mu.spacing
    return mu, raw


class TestGates:
    """Each gate of ``_finalize_density``, ``coherence_function`` and ``CoherenceFunction`` trips just past its tolerance, and on NaN."""

    def test_norm_gate(self):
        assert NORM_HARD_TOL == 1e-6
        mu, raw = unit_mass_density()
        with pytest.raises(NormalizationFailure, match="norm"):
            _finalize_density(mu, raw * (1.0 + 2e-6))
        dist = _finalize_density(mu, raw * (1.0 + 5e-7))
        assert dist.total_mass() == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(dist.density, raw, rtol=1e-14)

    def test_scaled_arrays_share_the_norm(self):
        # a density's derivative is divided by the density's own norm
        mu, raw = unit_mass_density()
        d_raw = np.ones_like(raw)
        _finalize_density(mu, raw * (1.0 + 5e-7), scaled=(d_raw,))
        np.testing.assert_allclose(d_raw, 1.0 / (1.0 + 5e-7), rtol=1e-14)

    def test_negative_gate_and_clip(self):
        # the gate is relative to the peak, min p >= -NEGATIVE_CLIP * max p, since
        # roundoff grows with it: the law 1e4 times narrower passes at -2e-9 < -1e-12
        assert NEGATIVE_CLIP == 1e-12
        for narrower in (1.0, 1e4):
            mu, raw = unit_mass_density()
            mu = GeneratorGrid(mu.g_min / narrower, mu.g_max / narrower, mu.n_points)
            tail = raw * narrower
            tail[0] = -2.0 * NEGATIVE_CLIP * np.max(tail)
            with pytest.raises(NormalizationFailure, match="negative"):
                _finalize_density(mu, tail)
            tail[0] = -0.5 * NEGATIVE_CLIP * np.max(tail)
            dist = _finalize_density(mu, tail)
            assert dist.density[0] == 0.0
            assert np.min(dist.density) == 0.0

    def test_gamma0_real_gate(self):
        # hfft drops Im Gamma(0), so a stored Gamma must have 2 |Im Gamma(0)| <= SYMMETRY_TOL
        assert SYMMETRY_TOL == 1e-10
        tau = np.arange(5.0)
        vals = FLAT_DIAGONAL * np.exp(-(tau**2) / 4.0) + 0j
        vals[0] += 1e-10j
        with pytest.raises(NormalizationFailure, match="Hermitian"):
            CoherenceFunction(1.0, vals)
        vals[0] = FLAT_DIAGONAL + 2.5e-11j
        assert CoherenceFunction(1.0, vals).gamma0 == FLAT_DIAGONAL

    def test_gamma0_normalization_gate(self):
        # a normalized probe gives Gamma(0) = K(0), so raising K(0) raises Gamma(0) by as much
        assert GAMMA0_TOL == 1e-8
        grid = grid_for_gaussian(0.0, 1.0, 256)
        probe = make_gaussian_probe(GaussianProbeSpec(0.0, 1.0), grid)
        symbol = np.array(make_ideal_ruler(grid).symbol)
        symbol[0] += 2e-8
        with pytest.raises(NormalizationFailure, match=r"Gamma\(0\) = 0\.159") as err:
            coherence_function(probe, RulerSeed(grid, symbol))
        assert "np.float64" not in str(err.value)
        symbol[0] -= 1.5e-8
        gamma = coherence_function(probe, RulerSeed(grid, symbol))
        assert gamma.gamma0 == pytest.approx(FLAT_DIAGONAL + 5e-9, abs=1e-14)

    def test_realness_gate(self):
        assert IMAG_TOL == 1e-10
        mu, raw = unit_mass_density()
        assert np.max(raw) < 1.0  # so the gate is IMAG_TOL itself
        tilted = raw + 0j
        tilted[150] += 2e-10j
        with pytest.raises(NormalizationFailure, match="not real"):
            _finalize_density(mu, tilted)
        tilted[150] = raw[150] + 5e-11j
        dist = _finalize_density(mu, tilted)
        np.testing.assert_allclose(dist.density, raw, rtol=1e-14)

    def test_nan_fails_each_gate(self):
        # a NaN compares False against any bound, so each gate passes only a value inside it
        mu, raw = unit_mass_density()
        imag = raw + 0j
        imag[150] = complex(raw[150], np.nan)
        with pytest.raises(NormalizationFailure, match="not real"):
            _finalize_density(mu, imag)
        real = raw.copy()
        real[150] = np.nan
        with pytest.raises(NormalizationFailure, match="negative"):
            _finalize_density(mu, real)
        vals = np.full(5, FLAT_DIAGONAL, dtype=complex)
        vals[0] = complex(FLAT_DIAGONAL, np.nan)
        with pytest.raises(NormalizationFailure, match="Hermitian"):
            CoherenceFunction(1.0, vals)
        grid = grid_for_gaussian(0.0, 1.0, 256)
        probe = make_gaussian_probe(GaussianProbeSpec(0.0, 1.0), grid)
        symbol = np.array(make_ideal_ruler(grid).symbol)
        symbol[0] = np.nan
        with pytest.raises(NormalizationFailure, match=r"^Gamma\(0\) = nan"):
            coherence_function(probe, RulerSeed(grid, symbol))


class TestDirectStatistics:
    def test_matches_transform_route(self, unit_probe, half_ruler):
        gamma = coherence_function(unit_probe, half_ruler)
        p_t = statistics_from_coherence(gamma)
        p_d = direct_statistics(unit_probe, half_ruler, p_t.mu_grid)
        np.testing.assert_allclose(p_d.density, p_t.density, atol=1e-8)

    def test_offset_blur_seed(self):
        # K_a(tau) = e^{i a tau} K(tau), the Gaussian blur shifted by a, is a
        # legitimate seed with K(-tau) != K(tau): it pins the orientation of
        # the mirror in RulerSeed.kernel and of the kernel in direct_statistics
        a = 0.7
        grid = grid_for_gaussian(0.0, 1.0, 256)
        probe = make_gaussian_probe(GaussianProbeSpec(0.0, 1.0, conjugate_center=0.4), grid)
        blur = make_gaussian_ruler(0.5, grid)
        offset = RulerSeed(grid, np.exp(1j * a * grid.tau_grid) * blur.symbol)
        assert validate_ruler(offset).all_pass
        p = statistics_from_coherence(coherence_function(probe, offset))
        direct = direct_statistics(probe, offset, p.mu_grid)
        assert np.max(np.abs(p.density - direct.density)) <= 1e-8  # criterion 1's gate; measured 8.9e-16
        base = statistics_from_coherence(coherence_function(probe, blur))
        assert p.mean() - base.mean() == pytest.approx(a, abs=1e-10)  # every outcome moves by +a

    def test_shift_invariance(self, unit_grid, half_ruler):
        delta = 0.83
        base = make_gaussian_probe(GaussianProbeSpec(0.0, 1.0, conjugate_center=1.0), unit_grid)
        moved = make_gaussian_probe(
            GaussianProbeSpec(0.0, 1.0, conjugate_center=1.0 - delta), unit_grid
        )
        mu = statistics_from_coherence(coherence_function(base, half_ruler)).mu_grid
        p_base = direct_statistics(base, half_ruler, mu)
        p_moved = direct_statistics(moved, half_ruler, GeneratorGrid(mu.g_min + delta, mu.g_max + delta, mu.n_points))
        np.testing.assert_allclose(p_moved.density, p_base.density, atol=1e-12)

    def test_ideal_ruler_gives_conjugate_density(self, unit_grid):
        probe = make_gaussian_probe(GaussianProbeSpec(0.0, 0.7, conjugate_center=-1.3), unit_grid)
        ideal = make_ideal_ruler(unit_grid)
        mu = statistics_from_coherence(coherence_function(probe, ideal)).mu_grid
        p = direct_statistics(probe, ideal, mu)
        # conjugate-representation wavefunction by explicit quadrature,
        # in the sign convention that centers p(mu) at -conjugate_center
        g = unit_grid.points
        phases = np.exp(1j * np.outer(mu.points, g))
        psi_tilde = phases @ probe.amplitudes * unit_grid.spacing / math.sqrt(2 * math.pi)
        np.testing.assert_allclose(p.density, np.abs(psi_tilde) ** 2, atol=1e-8)


class TestWidths:
    def test_coherence_time_closed_form(self, unit_probe, half_ruler):
        gamma = coherence_function(unit_probe, half_ruler)
        # independent oracle: adaptive quadrature of |2 pi Gamma|^2
        oracle = quad(lambda t: math.exp(-0.25 * t * t) ** 2, -50, 50)[0]
        tc = coherence_time(gamma)
        assert tc == pytest.approx(oracle, rel=1e-9)
        assert tc == pytest.approx(math.sqrt(2 * math.pi), rel=1e-9)

    @pytest.mark.parametrize("name", sorted(BENCH_RUNS))
    def test_coherence_time_matches_full_lag_sum(self, name):
        # each stored lag tau > 0 stands for itself and its mirror tau < 0
        gamma = BENCH_RUNS[name]().gamma
        _, full = gamma.all_lags()
        oracle = float(np.sum(np.abs(full / gamma.gamma0) ** 2) * gamma.spacing)
        assert coherence_time(gamma) == pytest.approx(oracle, rel=1e-14)

    def test_signal_uncertainty_is_gaussian_sigma(self):
        sigma = 0.6
        mu = GeneratorGrid(-8.0, 8.0, 3201)
        dens = np.exp(-(mu.points**2) / (2 * sigma**2)) / (sigma * math.sqrt(2 * math.pi))
        p = OutcomeDistribution(mu, dens)
        assert signal_uncertainty(p) == pytest.approx(sigma, rel=1e-9)

    def test_signal_uncertainty_pipeline(self, unit_probe, half_ruler):
        p = statistics_from_coherence(coherence_function(unit_probe, half_ruler))
        assert signal_uncertainty(p) ** 2 == pytest.approx(0.5, rel=1e-8)

    def test_degenerate_distribution(self):
        mu = GeneratorGrid(-1.0, 1.0, 101)
        with pytest.raises(DegenerateDistribution):
            signal_uncertainty(OutcomeDistribution(mu, np.zeros(101)))

    def test_product_law_gaussian(self, unit_probe, half_ruler):
        gamma = coherence_function(unit_probe, half_ruler)
        p = statistics_from_coherence(gamma)
        assert wk_product(gamma, p) == pytest.approx(SQRT_PI, abs=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(
        sigma=st.floats(0.4, 2.0),
        dphi=st.floats(0.05, 1.5),
        center=st.floats(-1.0, 1.0),
        k0=st.floats(-1.0, 1.0),
    )
    def test_product_law_property(self, sigma, dphi, center, k0):
        grid = grid_for_gaussian(center, sigma, 128)
        probe = make_gaussian_probe(GaussianProbeSpec(center, sigma, k0), grid)
        gamma = coherence_function(probe, make_gaussian_ruler(dphi, grid))
        p = statistics_from_coherence(gamma)
        assert abs(wk_product(gamma, p) - SQRT_PI) < 1e-5


class TestGaussianClosedForms:
    def test_ideal_measurement(self):
        model = GaussianModel(1.0, 0.0)
        assert model.delta2_lambda == pytest.approx(0.25)
        assert model.phi_m2 == 0.0

    def test_balanced_contributions(self):
        # ruler width equal to the probe's conjugate width doubles the variance
        model = GaussianModel(1.0, 0.5)
        assert model.delta2_lambda == pytest.approx(2 * model.phi_s2)

    def test_infinite_coherence_limit(self):
        model = GaussianModel(1e6, 0.0)
        assert model.delta2_lambda < 1e-12

    def test_gamma_callable_matches_sampled(self, unit_probe, half_ruler):
        gamma = coherence_function(unit_probe, half_ruler)
        model = GaussianModel(1.0, 0.5)
        np.testing.assert_allclose(
            gamma.values.real, model.gamma(gamma.tau_grid), atol=1e-6 * FLAT_DIAGONAL
        )


def linear_generator_coherence(probe):
    """Probe-only Gamma1 of g: 2*pi times the ideal-ruler coherence function, on its lags."""
    gamma = coherence_function(probe, make_ideal_ruler(probe.grid))
    return gamma.tau_grid, 2.0 * np.pi * gamma.values


class TestAppendixCoherence:
    def test_linear_power_value(self):
        probe = make_gaussian_probe(GaussianProbeSpec(0.0, 1.0), grid_for_gaussian(0.0, 1.0, 1024))
        tau, g1 = linear_generator_coherence(probe)
        assert g1[0].real == pytest.approx(1.0, abs=1e-10)
        idx = np.argmin(np.abs(tau - 2.0))
        assert g1[idx].real == pytest.approx(math.exp(-tau[idx] ** 2 / 8.0), abs=1e-8)

    def test_squared_power_value(self):
        probe = make_gaussian_probe(GaussianProbeSpec(0.0, 1.0), grid_for_gaussian(0.0, 1.0, 1024))
        g2 = appendix_coherence(probe)
        # stored on 1025 lags j*dtau >= 0, dtau = max(40 sigma^2, 16 sigma)/1024;
        # tau < 0 is their Hermitian reflection
        assert len(g2.values) == 1025
        assert g2.spacing == pytest.approx(40.0 / 1024, rel=1e-12)
        idx = np.argmin(np.abs(g2.tau_grid - 2.0))
        assert g2.values[idx].real == pytest.approx(math.exp(-g2.tau_grid[idx] / 4.0), abs=1e-8)

    def test_independent_quadrature_oracle(self):
        # adaptive quadrature of the defining integrals at a few tau values
        probe = make_gaussian_probe(GaussianProbeSpec(0.0, 1.0), grid_for_gaussian(0.0, 1.0, 1024))
        lags, g1 = linear_generator_coherence(probe)
        picks = np.arange(0, 193, 16)  # 13 lags, tau up to 3.003
        g2 = appendix_coherence(probe)
        psi = lambda p: (2 * math.pi) ** (-0.25) * math.exp(-p * p / 4.0)
        for i, t in zip(picks, lags[picks]):
            ref1 = quad(lambda p: psi(p) * psi(p + t), -30, 30)[0]
            assert g1[i].real == pytest.approx(ref1, abs=1e-8)
        picks = np.arange(0, 77, 6)  # 13 lags, tau up to 2.969
        for t, v in zip(g2.tau_grid[picks], g2.values[picks]):
            ref2 = quad(lambda p: psi(p) * psi(math.sqrt(p * p + t)), -30, 30)[0]
            assert v.real == pytest.approx(ref2, abs=1e-8)

    def test_center_dependence_of_squared_power(self):
        p0 = make_gaussian_probe(GaussianProbeSpec(0.0, 1.0), grid_for_gaussian(0.0, 1.0, 1024))
        p2 = make_gaussian_probe(GaussianProbeSpec(2.0, 1.0), grid_for_gaussian(2.0, 1.0, 1024))
        g2_0, g2_2 = appendix_coherence(p0), appendix_coherence(p2)
        # equal variances, so equal lags to the roundoff of the sampled variance
        assert g2_2.spacing == pytest.approx(g2_0.spacing, rel=1e-13)
        assert np.max(np.abs(g2_0.values - g2_2.values)) > 1e-3
        # equal spacing and length: both probes' coherence functions share their lags
        lags_0, g1_0 = linear_generator_coherence(p0)
        lags_2, g1_2 = linear_generator_coherence(p2)
        np.testing.assert_array_equal(lags_0, lags_2)
        assert np.max(np.abs(np.abs(g1_0) - np.abs(g1_2))) < 1e-10

    def test_import_leaves_interpolation_unloaded(self):
        # scipy.interpolate pulls in scipy.optimize, sparse and spatial; each
        # subpackage loaded at import adds to every fresh interpreter's start
        unloaded = ("interpolate", "optimize", "linalg", "integrate", "sparse", "spatial", "stats")
        code = f"import sys, qruler; print([m for m in {unloaded!r} if 'scipy.' + m in sys.modules])"
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(qruler.__file__))}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

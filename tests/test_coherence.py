import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qruler.coherence import (
    CoherenceFunction,
    GaussianModel,
    OutcomeDistribution,
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
    NormalizationFailure,
)
from qruler.grids import GeneratorGrid, grid_for_gaussian
from qruler.ruler import FLAT_DIAGONAL, make_gaussian_ruler, make_ideal_ruler
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
    """Gamma on the 2n-1 lags of an n-point grid: the middle of its transform-length lags."""
    pad = (len(gamma.values) - (2 * n - 1)) // 2
    middle = slice(pad, len(gamma.values) - pad)
    return CoherenceFunction(gamma.tau_grid[middle], gamma.values[middle])


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
        probe = make_gaussian_probe(GaussianProbeSpec(0.0, 1.0, conjugate_center=2.0), unit_grid)
        gamma = coherence_function(probe, half_ruler)
        np.testing.assert_allclose(
            np.conj(gamma.values), gamma.values[::-1], atol=1e-14
        )

    def test_lags_odd_and_one_value_each(self):
        # Gamma(0) is the middle lag, so an even count has none
        with pytest.raises(ValueError):
            CoherenceFunction(np.arange(-4.0, 4.0), np.full(8, FLAT_DIAGONAL, dtype=complex))
        with pytest.raises(ValueError):
            CoherenceFunction(np.arange(-4.0, 5.0), np.full(8, FLAT_DIAGONAL, dtype=complex))
        gamma = CoherenceFunction(np.arange(-4.0, 5.0), np.linspace(0.0, 1.0, 9) + 0.5j)
        assert gamma.gamma0 == 0.5

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
        lags = grid_lags(coherence_function(probe, ruler), n).values
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
        assert len(gamma.values) == 27783  # 3^4 * 7^3; the 2n-1 = 27,619 = 71 * 389 grid lags
        assert peak < 50e6


class TestPadded:
    """Gamma on its transform length: the grid lags zero-padded to the smallest fast odd length."""

    @pytest.mark.parametrize("n", [64, 65, 133, 512, 1024, 13810])
    def test_length_is_the_smallest_fast_odd_one(self, n):
        grid = grid_for_gaussian(0.0, 1.0, n)
        probe = make_gaussian_probe(GaussianProbeSpec(0.0, 1.0), grid)
        size = len(coherence_function(probe, make_ideal_ruler(grid)).values)
        assert size % 2 == 1 and size >= 2 * n - 1
        assert scipy.fft.next_fast_len(size) == size
        assert all(scipy.fft.next_fast_len(m) != m for m in range(2 * n - 1, size, 2))

    @pytest.mark.parametrize("n", [100, 512])
    def test_zeros_outside_the_original_lags(self, n):
        grid = grid_for_gaussian(0.3, 1.1, n)
        probe = make_gaussian_probe(GaussianProbeSpec(0.3, 1.1, 0.7), grid)
        ruler = make_gaussian_ruler(0.4, grid)
        gamma = coherence_function(probe, ruler)
        m, size = 2 * n - 1, len(gamma.values)
        assert size > m
        pad = (size - m) // 2
        np.testing.assert_allclose(
            gamma.values[pad:pad + m], trace_coherence(probe, ruler), rtol=0, atol=1e-15
        )
        assert np.array_equal(gamma.tau_grid[pad:pad + m], grid.tau_grid)
        assert not np.any(gamma.values[:pad]) and not np.any(gamma.values[pad + m:])
        assert np.array_equal(gamma.tau_grid, -gamma.tau_grid[::-1])
        np.testing.assert_allclose(np.diff(gamma.tau_grid), grid.spacing, rtol=1e-12)
        assert gamma.gamma0 == gamma.values[pad + n - 1].real
        assert not gamma.values.flags.writeable and not gamma.tau_grid.flags.writeable

    def test_same_density_on_a_finer_grid(self, unit_probe, half_ruler):
        # the padded transform samples the same trigonometric polynomial
        # as the transform on the grid's own 2n-1 lags
        gamma = coherence_function(unit_probe, half_ruler)
        unpadded = grid_lags(gamma, unit_probe.grid.n_points)
        assert np.array_equal(unpadded.tau_grid, unit_probe.grid.tau_grid)
        p, q = statistics_from_coherence(unpadded), statistics_from_coherence(gamma)
        assert len(q.mu_grid) > len(p.mu_grid)
        assert q.mu_grid[-1] == pytest.approx(p.mu_grid[-1], rel=2.0 / len(p.mu_grid))
        assert q.density[len(q.mu_grid) // 2] == pytest.approx(
            p.density[len(p.mu_grid) // 2], rel=1e-12
        )
        assert signal_uncertainty(q) == pytest.approx(signal_uncertainty(p), rel=1e-12)
        assert coherence_time(gamma) == pytest.approx(coherence_time(unpadded), rel=1e-12)


class TestStatisticsFromCoherence:
    def test_gaussian_variance(self, unit_probe, half_ruler):
        p = statistics_from_coherence(coherence_function(unit_probe, half_ruler))
        assert p.total_mass() == pytest.approx(1.0, abs=1e-10)
        assert p.variance() == pytest.approx(0.5, rel=1e-8)
        # pointwise against the normal density the transform must produce
        ref = np.exp(-p.mu_grid**2 / 1.0) / math.sqrt(math.pi)
        np.testing.assert_allclose(p.density, ref, atol=1e-8)

    def test_flat_coherence_gives_point_mass(self, unit_grid):
        tau = unit_grid.tau_grid
        flat = CoherenceFunction(tau, np.full(len(tau), FLAT_DIAGONAL, dtype=complex))
        p = statistics_from_coherence(flat)
        center = len(p.mu_grid) // 2
        assert p.density[center] * p.spacing == pytest.approx(1.0, abs=1e-10)
        off = np.delete(p.density, center)
        assert np.max(np.abs(off)) < 1e-10

    def test_incommensurate_spikes_rejected(self, unit_grid):
        # cosine coherence whose transform has strong negative side lobes
        tau = unit_grid.tau_grid
        freq = 1.37 * 2 * np.pi / (len(tau) * unit_grid.spacing)  # off the dual grid
        vals = FLAT_DIAGONAL * np.cos(freq * tau) + 0j
        with pytest.raises(NormalizationFailure):
            statistics_from_coherence(CoherenceFunction(tau, vals))


class TestDirectStatistics:
    def test_matches_transform_route(self, unit_probe, half_ruler):
        gamma = coherence_function(unit_probe, half_ruler)
        p_t = statistics_from_coherence(gamma)
        p_d = direct_statistics(unit_probe, half_ruler, p_t.mu_grid)
        np.testing.assert_allclose(p_d.density, p_t.density, atol=1e-8)

    def test_shift_invariance(self, unit_grid, half_ruler):
        delta = 0.83
        base = make_gaussian_probe(GaussianProbeSpec(0.0, 1.0, conjugate_center=1.0), unit_grid)
        moved = make_gaussian_probe(
            GaussianProbeSpec(0.0, 1.0, conjugate_center=1.0 - delta), unit_grid
        )
        mu = statistics_from_coherence(coherence_function(base, half_ruler)).mu_grid
        p_base = direct_statistics(base, half_ruler, mu)
        p_moved = direct_statistics(moved, half_ruler, mu + delta)
        np.testing.assert_allclose(p_moved.density, p_base.density, atol=1e-12)

    def test_ideal_ruler_gives_conjugate_density(self, unit_grid):
        probe = make_gaussian_probe(GaussianProbeSpec(0.0, 0.7, conjugate_center=-1.3), unit_grid)
        ideal = make_ideal_ruler(unit_grid)
        mu = statistics_from_coherence(coherence_function(probe, ideal)).mu_grid
        p = direct_statistics(probe, ideal, mu)
        # conjugate-representation wavefunction by explicit quadrature,
        # in the sign convention that centers p(mu) at -conjugate_center
        g = unit_grid.points
        phases = np.exp(1j * np.outer(mu, g))
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

    def test_coherence_time_scaling(self):
        narrow = GaussianModel(1.0, 0.5)              # total variance 0.5
        wide = GaussianModel(1.0, math.sqrt(0.75))    # total variance 1.0
        assert wide.tau_c == pytest.approx(narrow.tau_c / math.sqrt(2.0), rel=1e-12)

    def test_signal_uncertainty_is_gaussian_sigma(self):
        sigma = 0.6
        mu = np.linspace(-8, 8, 3201)
        dens = np.exp(-(mu**2) / (2 * sigma**2)) / (sigma * math.sqrt(2 * math.pi))
        p = OutcomeDistribution(mu, dens)
        assert signal_uncertainty(p) == pytest.approx(sigma, rel=1e-9)

    def test_signal_uncertainty_pipeline(self, unit_probe, half_ruler):
        p = statistics_from_coherence(coherence_function(unit_probe, half_ruler))
        assert signal_uncertainty(p) ** 2 == pytest.approx(0.5, rel=1e-8)

    def test_degenerate_distribution(self):
        mu = np.linspace(-1, 1, 101)
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
        assert g1[len(g1) // 2].real == pytest.approx(1.0, abs=1e-10)
        idx = np.argmin(np.abs(tau - 2.0))
        assert g1[idx].real == pytest.approx(math.exp(-tau[idx] ** 2 / 8.0), abs=1e-8)

    def test_squared_power_value(self):
        probe = make_gaussian_probe(GaussianProbeSpec(0.0, 1.0), grid_for_gaussian(0.0, 1.0, 1024))
        tau = np.linspace(-4.0, 4.0, 401)
        g2 = appendix_coherence(probe, tau)
        idx = np.argmin(np.abs(tau - 2.0))
        assert g2.values[idx].real == pytest.approx(math.exp(-0.5), abs=1e-8)
        # negative branch is the Hermitian reflection of the positive one
        np.testing.assert_allclose(np.conj(g2.values), g2.values[::-1], atol=1e-15)

    def test_independent_quadrature_oracle(self):
        # adaptive quadrature of the defining integrals at a few tau values
        probe = make_gaussian_probe(GaussianProbeSpec(0.0, 1.0), grid_for_gaussian(0.0, 1.0, 1024))
        lags, g1 = linear_generator_coherence(probe)
        picks = len(lags) // 2 + np.arange(-192, 193, 16)  # 25 lags, |tau| up to 3.003
        tau = np.linspace(-3.0, 3.0, 25)
        g2 = appendix_coherence(probe, tau)
        psi = lambda p: (2 * math.pi) ** (-0.25) * math.exp(-p * p / 4.0)
        for i, t in zip(picks, lags[picks]):
            ref1 = quad(lambda p: psi(p) * psi(p + t), -30, 30)[0]
            assert g1[i].real == pytest.approx(ref1, abs=1e-8)
        for i, t in enumerate(tau):
            if t >= 0:
                ref2 = quad(lambda p: psi(p) * psi(math.sqrt(p * p + t)), -30, 30)[0]
                assert g2.values[i].real == pytest.approx(ref2, abs=1e-8)

    def test_center_dependence_of_squared_power(self):
        tau = np.linspace(-4.0, 4.0, 401)
        p0 = make_gaussian_probe(GaussianProbeSpec(0.0, 1.0), grid_for_gaussian(0.0, 1.0, 1024))
        p2 = make_gaussian_probe(GaussianProbeSpec(2.0, 1.0), grid_for_gaussian(2.0, 1.0, 1024))
        g2_0 = appendix_coherence(p0, tau)
        g2_2 = appendix_coherence(p2, tau)
        assert np.max(np.abs(g2_0.values - g2_2.values)) > 1e-3
        # equal spacing and length: both probes' coherence functions share their lags
        lags_0, g1_0 = linear_generator_coherence(p0)
        lags_2, g1_2 = linear_generator_coherence(p2)
        np.testing.assert_array_equal(lags_0, lags_2)
        assert np.max(np.abs(np.abs(g1_0) - np.abs(g1_2))) < 1e-10

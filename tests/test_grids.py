import numpy as np
import pytest
from test_coherence import grid_lags

from qruler.coherence import coherence_function, statistics_from_coherence
from qruler.errors import InvalidGrid
from qruler.grids import GeneratorGrid, grid_for_gaussian, integer_grid
from qruler.ruler import make_ideal_ruler
from qruler.states import GaussianProbeSpec, make_gaussian_probe


def test_spacing_and_points():
    grid = GeneratorGrid(-8.0, 8.0, 257)
    assert grid.spacing == pytest.approx(16.0 / 256)
    assert grid.points[0] == -8.0
    assert grid.points[-1] == 8.0
    assert len(grid.points) == 257


def test_resolution_floor():
    with pytest.raises(InvalidGrid):
        GeneratorGrid(-1.0, 1.0, 32)


def test_bad_bounds():
    with pytest.raises(InvalidGrid):
        GeneratorGrid(1.0, -1.0, 128)
    with pytest.raises(InvalidGrid):
        GeneratorGrid(0.0, np.inf, 128)
    with pytest.raises(InvalidGrid):  # finite bounds, infinite spacing
        GeneratorGrid(-1e308, 1e308, 512)
    with pytest.raises(InvalidGrid):  # ordered bounds, spacing underflows to 0
        GeneratorGrid(0.0, 5e-324, 512)


def test_tau_grid_is_difference_set():
    grid = GeneratorGrid(-2.0, 2.0, 65)
    tau = grid.tau_grid
    # the lags tau >= 0 only: g' - g is +/- tau_|i-j| for grid points i, j
    assert len(tau) == 65
    assert tau[0] == 0.0
    np.testing.assert_allclose(np.diff(tau), grid.spacing)
    j = np.arange(65)
    diffs = grid.points[:, None] - grid.points[None, :]
    np.testing.assert_allclose(np.abs(diffs), tau[np.abs(j[:, None] - j[None, :])], rtol=0, atol=1e-14)


def test_mu_grid_duality():
    # sum_k exp(-i tau_j mu_k) must vanish for every j != 0: the outcome
    # axis statistics_from_coherence returns for the M symmetric lags that
    # Gamma's stored lags tau >= 0 stand for, dmu = 2*pi/(M*dtau), makes
    # the discrete transform exactly unitary, on Gamma's transform length
    # or on the grid's own 2n-1 lags
    grid = GeneratorGrid(-3.0, 3.0, 64)
    probe = make_gaussian_probe(GaussianProbeSpec(0.0, 0.3), grid)
    gamma = coherence_function(probe, make_ideal_ruler(grid))
    for g in (gamma, grid_lags(gamma, 64)):
        (tau, _), mu = g.all_lags(), statistics_from_coherence(g).mu_grid.points
        assert len(mu) == len(tau)
        kernel = np.exp(-1j * np.outer(tau, mu)).sum(axis=1)
        expected = np.zeros(len(tau))
        expected[len(tau) // 2] = len(tau)
        np.testing.assert_allclose(kernel, expected, atol=1e-9)


def test_grid_for_gaussian_covers():
    grid = grid_for_gaussian(2.0, 0.5, 128)
    assert grid.covers(2.0 - 8 * 0.5, 2.0 + 8 * 0.5)
    assert not grid.covers(-10.0, 10.0)


def test_integer_grid():
    grid = integer_grid(100)
    assert grid.spacing == 1.0
    assert grid.n_points == 101

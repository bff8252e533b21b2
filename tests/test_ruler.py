import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qruler.errors import GridMismatch, NonPositiveSigma
from qruler.grids import GeneratorGrid, GeneratorKind, grid_for_gaussian
from qruler.ruler import (
    FLAT_DIAGONAL,
    RulerSeed,
    make_gaussian_ruler,
    make_ideal_ruler,
    validate_ruler,
)


def test_gaussian_kernel_values():
    grid = GeneratorGrid(-8.0, 8.0, 257)  # spacing 1/16, offset 64 is |g-g'| = 4
    seed = make_gaussian_ruler(0.5, grid)
    diag = np.diagonal(seed.kernel).real
    np.testing.assert_allclose(diag, FLAT_DIAGONAL, atol=1e-15)
    np.testing.assert_allclose(
        np.diagonal(seed.kernel, offset=64).real,
        FLAT_DIAGONAL * math.exp(-2.0),
        rtol=1e-12,
    )


@pytest.mark.parametrize(
    "grid, dphi",
    [
        (grid_for_gaussian(0.0, 1.0, 512), 0.5),
        (grid_for_gaussian(0.7, 1.9, 301), 1.4),
        (grid_for_gaussian(100.0, 5.0, 1024, kind=GeneratorKind.N), 0.1),
    ],
)
def test_kernel_matches_dense_construction(grid, dphi):
    # the Toeplitz view of the symbol against K(g_a - g_b) built from grid points
    g = grid.points
    dense = (FLAT_DIAGONAL * np.exp(-0.5 * dphi**2 * (g[:, None] - g[None, :]) ** 2)).astype(complex)
    seed = make_gaussian_ruler(dphi, grid)
    np.testing.assert_allclose(seed.kernel, dense, rtol=0, atol=1e-15)
    assert not seed.kernel.flags.writeable
    np.testing.assert_array_equal(make_ideal_ruler(grid).kernel, np.full_like(dense, FLAT_DIAGONAL))


def test_seed_needs_kernel_or_symbol():
    grid = GeneratorGrid(-8.0, 8.0, 128)
    seed = make_gaussian_ruler(0.5, grid)
    with pytest.raises(ValueError):
        RulerSeed(grid)
    with pytest.raises(ValueError):
        RulerSeed(grid, np.array(seed.kernel), symbol=seed.symbol)
    with pytest.raises(GridMismatch):
        RulerSeed(grid, symbol=seed.symbol[1:-1])


def test_vanishing_width_is_flat():
    grid = GeneratorGrid(-8.0, 8.0, 128)
    seed = make_gaussian_ruler(1e-8, grid)
    np.testing.assert_allclose(seed.kernel.real, FLAT_DIAGONAL, rtol=1e-10)


def test_unit_width_passes_validation():
    grid = GeneratorGrid(-8.0, 8.0, 256)
    report = validate_ruler(make_gaussian_ruler(1.0, grid))
    assert report.all_pass
    assert report.diagonal_residual < 1e-10
    assert report.min_eigenvalue >= -1e-10 * report.max_eigenvalue


def test_ideal_ruler_passes_validation():
    grid = GeneratorGrid(-8.0, 8.0, 128)
    report = validate_ruler(make_ideal_ruler(grid))
    assert report.all_pass


def test_wrong_diagonal_detected():
    grid = GeneratorGrid(-8.0, 8.0, 128)
    seed = RulerSeed(grid, make_gaussian_ruler(0.5, grid).kernel * 2.0)
    report = validate_ruler(seed)
    assert not report.flat_diagonal
    assert report.diagonal_residual == pytest.approx(1.0 / (2 * math.pi), abs=1e-14)
    assert report.hermitian  # scaling keeps hermiticity


def test_negative_eigenvalue_detected(rng):
    grid = GeneratorGrid(-8.0, 8.0, 128)
    rand = rng.normal(size=(128, 128))
    seed = RulerSeed(grid, ((rand + rand.T) / 2).astype(complex))
    report = validate_ruler(seed)
    assert not report.positive
    assert report.min_eigenvalue < 0


def test_hermiticity_violation_detected():
    grid = GeneratorGrid(-8.0, 8.0, 128)
    kernel = np.array(make_gaussian_ruler(0.5, grid).kernel)
    kernel[3, 5] += 1e-6j
    report = validate_ruler(RulerSeed(grid, kernel))
    assert not report.hermitian


def test_non_positive_width():
    grid = GeneratorGrid(-8.0, 8.0, 128)
    with pytest.raises(NonPositiveSigma):
        make_gaussian_ruler(0.0, grid)


@settings(max_examples=15, deadline=None)
@given(dphi=st.floats(0.05, 3.0))
def test_gaussian_seeds_always_legitimate(dphi):
    grid = GeneratorGrid(-6.0, 6.0, 96)
    assert validate_ruler(make_gaussian_ruler(dphi, grid)).all_pass

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qruler.errors import DegenerateDistribution, GridMismatch, NonPositiveSigma
from qruler.grids import GeneratorGrid, grid_for_gaussian
from qruler.ruler import (
    DIAGONAL_TOL,
    EPS,
    FLAT_DIAGONAL,
    POSITIVITY_REL_TOL,
    RulerSeed,
    _gaussian_bounds,
    _section_extremes,
    make_gaussian_ruler,
    make_ideal_ruler,
    validate_ruler,
)


def random_hermitian_symbol(rng, n):
    """K(tau) on tau >= 0, normal entries, K(0) = 1/(2*pi); K(-tau) = conj K(tau) by the seed's type."""
    half = rng.normal(size=n) + 1j * rng.normal(size=n)
    half[0] = FLAT_DIAGONAL
    return half


def offset_blur_symbol(grid):
    """K_a(tau) = e^{i a tau} K(tau), a = 0.7: the Gaussian blur dphi = 0.5 shifted by a, complex and legitimate."""
    return np.exp(0.7j * grid.tau_grid) * make_gaussian_ruler(0.5, grid).symbol


def dense_report(seed):
    """Oracle: every check read from the dense n x n kernel, O(n^2) and O(n^3)."""
    k = np.array(seed.kernel)
    assert np.array_equal(k, k.conj().T)  # the one mirror makes the kernel exactly Hermitian
    diag_res = float(np.max(np.abs(np.diagonal(k).real - FLAT_DIAGONAL)))
    diag_imag = float(np.max(np.abs(np.diagonal(k).imag)))
    eigvals = np.linalg.eigvalsh(k * seed.grid.spacing)
    lo, hi = float(eigvals[0]), float(eigvals[-1])
    return SimpleNamespace(
        flat_diagonal=max(diag_res, diag_imag) <= DIAGONAL_TOL,
        diagonal_residual=max(diag_res, diag_imag),
        positive=lo >= -POSITIVITY_REL_TOL * max(hi, 0.0),
        min_eigenvalue=lo,
        max_eigenvalue=hi,
    )


def section(seed):
    """The dense section K(g_a - g_b) * dg, Im K(0) dropped as validate_ruler drops it."""
    k = np.array(seed.kernel) * seed.grid.spacing
    np.fill_diagonal(k, k[0, 0].real)
    return k


def rayleigh_min(k):
    """v* K v / v* v in long double for eigh's lowest eigenvector v: above lambda_min, free of eigh's own error.

    A dense eigensolver is backward stable, so its eigenvalues may sit about
    n*eps*||K|| from the exact ones; it reads -1.4e-14 for the 512-point
    ideal ruler, whose exact lambda_min is 0.  Any Rayleigh quotient is an
    upper bound on lambda_min, and in long double it carries no such error.
    """
    v = np.linalg.eigh(k)[1][:, 0].astype(np.clongdouble)
    return float((v.conj() @ (k.astype(np.clongdouble) @ v)).real / (v.conj() @ v).real)


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
        (grid_for_gaussian(100.0, 5.0, 1024), 0.1),
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


def test_symbol_length_must_match_grid():
    grid = GeneratorGrid(-8.0, 8.0, 128)
    seed = make_gaussian_ruler(0.5, grid)
    with pytest.raises(GridMismatch):
        RulerSeed(grid, seed.symbol[1:-1])
    with pytest.raises(GridMismatch):
        RulerSeed(grid, np.array(seed.kernel))
    with pytest.raises(GridMismatch):  # all 2n-1 lags: a seed is stored on tau >= 0 only
        RulerSeed(grid, np.concatenate([seed.symbol[:0:-1].conj(), seed.symbol]))


def test_vanishing_width_is_flat():
    grid = GeneratorGrid(-8.0, 8.0, 128)
    seed = make_gaussian_ruler(1e-8, grid)
    np.testing.assert_allclose(seed.kernel.real, FLAT_DIAGONAL, rtol=1e-10)


def test_unit_width_passes_validation():
    grid = GeneratorGrid(-8.0, 8.0, 256)
    report = validate_ruler(make_gaussian_ruler(1.0, grid))
    assert report.all_pass
    assert report.diagonal_residual < 1e-10
    assert report.positivity_route == "gaussian-bound"
    assert report.min_eigenvalue_lower_bound >= -1e-10 * report.max_eigenvalue_lower_bound
    assert report.min_eigenvalue is None and report.max_eigenvalue is None


def test_ideal_ruler_passes_validation():
    grid = GeneratorGrid(-8.0, 8.0, 128)
    report = validate_ruler(make_ideal_ruler(grid))
    assert report.all_pass


def test_wrong_diagonal_detected():
    grid = GeneratorGrid(-8.0, 8.0, 128)
    seed = RulerSeed(grid, make_gaussian_ruler(0.5, grid).symbol * 2.0)
    report = validate_ruler(seed)
    assert not report.flat_diagonal
    assert report.diagonal_residual == pytest.approx(1.0 / (2 * math.pi), abs=1e-14)


def test_negative_eigenvalue_detected(rng):
    grid = GeneratorGrid(-8.0, 8.0, 128)
    report = validate_ruler(RulerSeed(grid, random_hermitian_symbol(rng, 128)))
    assert not report.positive
    assert report.min_eigenvalue < 0
    assert report.flat_diagonal


@pytest.mark.parametrize("factor, positive", [(2.0, False), (0.5, True)])
def test_positivity_gate_trips_at_its_tolerance(factor, positive):
    assert POSITIVITY_REL_TOL == 1e-10
    grid = GeneratorGrid(-8.0, 8.0, 64)
    n = grid.n_points
    # The ideal section dg/(2*pi) * ones is rank one, top eigenvalue n*dg/(2*pi).
    # Lowering K(0) by eps moves every eigenvalue by -eps*dg, so the gate sits
    # at eps = tol * (n/(2*pi) - eps), which is tol*n/(2*pi) to 1e-10 relative.
    eps = factor * POSITIVITY_REL_TOL * n * FLAT_DIAGONAL
    symbol = np.array(make_ideal_ruler(grid).symbol)
    symbol[0] -= eps
    report = validate_ruler(RulerSeed(grid, symbol))
    assert report.min_eigenvalue == pytest.approx(-eps * grid.spacing, rel=1e-4)
    assert report.positive == positive


@pytest.mark.parametrize(
    "build",
    [
        lambda grid: make_gaussian_ruler(0.7, grid).symbol,
        lambda grid: make_ideal_ruler(grid).symbol,
        lambda grid: make_gaussian_ruler(0.5, grid).symbol * 2.0,
        lambda grid: random_hermitian_symbol(np.random.default_rng(7), grid.n_points),
        offset_blur_symbol,
    ],
    ids=["gaussian", "ideal", "doubled", "random-hermitian", "offset-blur"],
)
def test_symbol_report_equals_dense_report(build):
    # The O(1) diagonal check gives the dense route's values bit for bit, and
    # the verdict is the dense route's whichever route reached it.  The
    # section's real form, called directly since the Gaussian bound certifies
    # the Gaussian seeds without it, gives the dense extreme eigenvalues to
    # roundoff, and a real-form report holds exactly those.  An even and an
    # odd n cover the odd middle row; the random-hermitian and offset-blur
    # symbols are complex, so they cover the coupled n x n form.
    for n in (160, 161):
        grid = grid_for_gaussian(0.3, 1.2, n)
        seed = RulerSeed(grid, build(grid))
        got, want = validate_ruler(seed), dense_report(seed)
        assert got.flat_diagonal == want.flat_diagonal
        assert got.diagonal_residual == want.diagonal_residual
        assert got.positive == want.positive
        lo, hi = _section_extremes(seed.symbol * grid.spacing)
        scale = max(abs(want.min_eigenvalue), abs(want.max_eigenvalue))
        assert abs(lo - want.min_eigenvalue) <= 1e-13 * scale
        assert abs(hi - want.max_eigenvalue) <= 1e-13 * scale
        if got.positivity_route == "real-form":
            assert (got.min_eigenvalue, got.max_eigenvalue) == (lo, hi)
        else:
            assert got.positivity_route == "gaussian-bound" and got.positive
        assert got.min_eigenvalue_lower_bound <= rayleigh_min(section(seed))
        assert got.max_eigenvalue_lower_bound <= want.max_eigenvalue * (1.0 + n * EPS)


def test_imaginary_k0_is_not_in_the_section():
    # Im K(0) fails the diagonal check; positivity reads Re K(0), as a
    # Hermitian eigensolver reads only the real part of a diagonal
    for n in (160, 161):
        grid = grid_for_gaussian(0.3, 1.2, n)
        real = RulerSeed(grid, offset_blur_symbol(grid))
        seed = RulerSeed(grid, real.symbol + 1e-3j * (grid.tau_grid == 0))
        report, want = validate_ruler(seed), validate_ruler(real)
        assert not report.flat_diagonal
        assert report.diagonal_residual == pytest.approx(1e-3, rel=1e-12)
        assert report.positive and report.positivity_route == want.positivity_route == "gaussian-bound"
        assert report.min_eigenvalue_lower_bound == want.min_eigenvalue_lower_bound
        assert report.max_eigenvalue_lower_bound == want.max_eigenvalue_lower_bound
        eig = np.linalg.eigvalsh(seed.kernel * grid.spacing)
        atol = 1e-13 * max(abs(eig[0]), abs(eig[-1]))
        lo, hi = _section_extremes(real.symbol * grid.spacing)
        np.testing.assert_allclose([lo, hi], eig[[0, -1]], rtol=0, atol=atol)


def test_non_positive_width():
    # a negative or NaN width is refused; width 0 is the ideal ruler, its flat symbol bit for bit
    grid = GeneratorGrid(-8.0, 8.0, 128)
    for dphi in (-1e-300, -0.5, math.nan, -math.inf):
        with pytest.raises(NonPositiveSigma):
            make_gaussian_ruler(dphi, grid)
    symbol = make_gaussian_ruler(0.0, grid).symbol
    flat = np.full(grid.n_points, FLAT_DIAGONAL, dtype=complex)
    assert symbol.dtype == flat.dtype and symbol.tobytes() == flat.tobytes()
    assert not symbol.flags.writeable
    assert make_ideal_ruler(grid).symbol.tobytes() == flat.tobytes()


@settings(max_examples=15, deadline=None)
@given(dphi=st.floats(0.05, 3.0))
def test_gaussian_seeds_always_legitimate(dphi):
    grid = GeneratorGrid(-6.0, 6.0, 96)
    assert validate_ruler(make_gaussian_ruler(dphi, grid)).all_pass


@pytest.mark.parametrize("n", [64, 512, 4096, 32768])
def test_every_gaussian_seed_takes_the_certificate(n, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the real form ran")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    grid = grid_for_gaussian(0.0, 1.0, n)
    for dphi in (0.0, 0.01, 0.05, 0.5, 1.0, 3.0, 50.0, 1e4):  # at 1e4 the symbol is 0 beyond lag 0
        report = validate_ruler(make_gaussian_ruler(dphi, grid))
        assert report.all_pass and report.positivity_route == "gaussian-bound", dphi


@settings(max_examples=25, deadline=None)
@given(
    dphi=st.one_of(st.just(0.0), st.floats(0.01, 50.0)),
    n=st.integers(64, 256),
    offset=st.floats(-3.0, 3.0),
    scale=st.floats(1e-3, 1e3),
)
def test_gaussian_bounds_hold(dphi, n, offset, scale):
    # the certified lower bound sits below lambda_min, and the quotient below
    # lambda_max up to the dense eigensolver's backward error n*eps*||K||
    grid = grid_for_gaussian(0.0, 1.0, n)
    seed = RulerSeed(grid, scale * np.exp(1j * offset * grid.tau_grid) * make_gaussian_ruler(dphi, grid).symbol)
    lo, rho = _gaussian_bounds(seed.symbol * grid.spacing)
    k = section(seed)
    assert lo <= rayleigh_min(k)
    assert rho <= np.linalg.eigvalsh(k)[-1] * (1.0 + n * EPS)


@pytest.mark.parametrize("bad", [math.inf, math.nan, 4e307])
def test_a_non_finite_symbol_is_not_certified(bad):
    # A NaN or infinite lag is refused before either route runs.  A finite lag
    # so large that the roundoff term overflows makes the bounds -inf and +inf,
    # and -inf >= -tol * inf, so it goes to the real form, whose extremes are finite.
    grid = GeneratorGrid(-8.0, 8.0, 64)
    symbol = np.array(make_ideal_ruler(grid).symbol)
    symbol[5] = bad
    seed = RulerSeed(grid, symbol)
    with np.errstate(all="ignore"):
        if not math.isfinite(bad):
            with pytest.raises(DegenerateDistribution, match="NaN or infinite"):
                validate_ruler(seed)
            return
        report = validate_ruler(seed)
    assert report.positivity_route == "real-form"
    assert math.isfinite(report.min_eigenvalue) and math.isfinite(report.max_eigenvalue)
    assert not report.positive


def test_a_real_symbol_the_bound_cannot_clear_takes_the_real_form():
    # The Lorentzian K(tau) = e^{-|tau|}/(2*pi) is positive, its transform a
    # Cauchy law, but no Gaussian reference is near it: the one real n x n
    # form decides, and gives the dense extremes to roundoff (measured 1.2e-17
    # and 8.9e-16 of max|eig|).  An even and an odd n cover the odd middle row.
    for n in (160, 161):
        grid = grid_for_gaussian(0.3, 1.2, n)
        seed = RulerSeed(grid, (FLAT_DIAGONAL * np.exp(-grid.tau_grid)).astype(complex))
        report = validate_ruler(seed)
        assert report.positivity_route == "real-form" and report.all_pass
        eig = np.linalg.eigvalsh(seed.kernel * grid.spacing)
        atol = 1e-13 * max(abs(eig[0]), abs(eig[-1]))
        np.testing.assert_allclose([report.min_eigenvalue, report.max_eigenvalue], eig[[0, -1]], rtol=0, atol=atol)


def test_bound_charges_its_own_rounding():
    # The ideal ruler's float reference is its symbol bit for bit, so the l1
    # distance is 0; the bound still charges the rounding of the reference,
    # at least eps per unit of the symbol's mass sum_{|k|<n} |t_k|.
    grid = GeneratorGrid(-8.0, 8.0, 64)
    t = make_ideal_ruler(grid).symbol * grid.spacing
    lo, rho = _gaussian_bounds(t)
    assert rho == pytest.approx(t[0].real * grid.n_points, rel=1e-14)
    assert lo <= -EPS * (2.0 * np.sum(np.abs(t)) - abs(t[0]))

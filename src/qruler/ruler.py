"""Shift-invariant ruler seeds and their legitimacy checks.

A ruler seed is the origin tick of a shift-invariant POVM, with kernel
K(g, g') in the generator eigenbasis.  The built-in seeds are Toeplitz,
K(g, g') = K(g - g'), and are stored by that symbol K(tau) sampled on the
grid's 2n-1 offsets, so building one costs O(n).  A legitimate seed is a
positive operator whose diagonal is flat at 1/(2*pi), which is equivalent
to the full tick family resolving the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GridMismatch, NonPositiveSigma
from .grids import GeneratorGrid

FLAT_DIAGONAL = 1.0 / (2.0 * np.pi)

HERMITICITY_TOL = 1e-12
DIAGONAL_TOL = 1e-10
POSITIVITY_REL_TOL = 1e-10  # discretization introduces benign negative noise


@dataclass(frozen=True, eq=False)
class RulerSeed:
    """A ruler seed given by exactly one of ``kernel`` and ``symbol``.

    For a symbol seed, ``kernel`` is filled in as the read-only strided
    Toeplitz view kernel[a, b] = symbol[a - b + n - 1]: it shares the
    symbol's memory, so no n x n buffer exists until a dense consumer
    computes with it.  A custom seed gives its dense kernel and has no
    symbol.
    """

    grid: GeneratorGrid
    kernel: np.ndarray | None = None  # complex (n, n), units of 1/(g-spacing)
    sigma_conjugate: float | None = None  # Gaussian width, None for custom/ideal
    symbol: np.ndarray | None = None  # complex (2n-1,), K(tau) on grid.tau_grid

    def __post_init__(self):
        n = self.grid.n_points
        if (self.kernel is None) == (self.symbol is None):
            raise ValueError("a ruler seed needs exactly one of kernel and symbol")
        if self.symbol is not None:
            if self.symbol.shape != (2 * n - 1,):
                raise GridMismatch("symbol length does not match grid")
            toeplitz = sliding_window_view(self.symbol, n)[:, ::-1]
            object.__setattr__(self, "kernel", toeplitz)
        elif self.kernel.shape != (n, n):
            raise GridMismatch("kernel shape does not match grid")


@dataclass(frozen=True)
class ValidationReport:
    hermitian: bool
    hermiticity_residual: float
    flat_diagonal: bool
    diagonal_residual: float
    positive: bool
    min_eigenvalue: float
    max_eigenvalue: float

    @property
    def all_pass(self) -> bool:
        return self.hermitian and self.flat_diagonal and self.positive


def make_gaussian_ruler(delta_phi_m: float, grid: GeneratorGrid) -> RulerSeed:
    """Gaussian seed with symbol K(tau) = exp(-dphi^2 tau^2 / 2) / (2*pi)."""
    if not delta_phi_m > 0:
        raise NonPositiveSigma(f"delta_phi_m must be > 0, got {delta_phi_m}")
    tau = grid.tau_grid
    symbol = (FLAT_DIAGONAL * np.exp(-0.5 * delta_phi_m**2 * tau**2)).astype(complex)
    symbol.flags.writeable = False
    return RulerSeed(grid, sigma_conjugate=delta_phi_m, symbol=symbol)


def make_ideal_ruler(grid: GeneratorGrid) -> RulerSeed:
    """Projection-valued limit: flat symbol 1/(2*pi), no measurement blur."""
    symbol = np.full(2 * grid.n_points - 1, FLAT_DIAGONAL, dtype=complex)
    symbol.flags.writeable = False
    return RulerSeed(grid, sigma_conjugate=0.0, symbol=symbol)


def validate_ruler(seed: RulerSeed) -> ValidationReport:
    """Check hermiticity, flat diagonal and positivity of the dense kernel.

    Symbol seeds are checked through their Toeplitz expansion.  Positivity
    uses eigenvalues of the kernel matrix scaled by the grid
    spacing (the discretized operator); the smallest eigenvalue may be
    slightly negative from discretization, hence the relative tolerance.
    """
    k = seed.kernel
    herm_res = float(np.max(np.abs(k - k.conj().T)))
    diag_res = float(np.max(np.abs(np.diagonal(k).real - FLAT_DIAGONAL)))
    diag_imag = float(np.max(np.abs(np.diagonal(k).imag)))
    eigvals = np.linalg.eigvalsh(0.5 * (k + k.conj().T) * seed.grid.spacing)
    lo, hi = float(eigvals[0]), float(eigvals[-1])
    return ValidationReport(
        hermitian=herm_res <= HERMITICITY_TOL,
        hermiticity_residual=herm_res,
        flat_diagonal=max(diag_res, diag_imag) <= DIAGONAL_TOL,
        diagonal_residual=max(diag_res, diag_imag),
        positive=lo >= -POSITIVITY_REL_TOL * max(hi, 0.0),
        min_eigenvalue=lo,
        max_eigenvalue=hi,
    )

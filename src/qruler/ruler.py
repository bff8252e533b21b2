"""Shift-invariant ruler seeds and their legitimacy checks.

A ruler seed is the origin tick of a shift-invariant POVM, with kernel
K(g, g') = K(g - g') in the generator eigenbasis, stored by that symbol
K(tau) sampled on the grid's 2n-1 offsets, so building one costs O(n).  A
legitimate seed is a positive operator whose diagonal is flat at 1/(2*pi),
which is equivalent to the full tick family resolving the identity.
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
    """A ruler seed given by its symbol K(tau) on ``grid.tau_grid``."""

    grid: GeneratorGrid
    symbol: np.ndarray  # complex (2n-1,), units of 1/(g-spacing)

    def __post_init__(self):
        if self.symbol.shape != (2 * self.grid.n_points - 1,):
            raise GridMismatch("symbol length does not match grid")

    @property
    def kernel(self) -> np.ndarray:
        """Dense kernel[a, b] = symbol[a - b + n - 1], a read-only view sharing the symbol's memory."""
        return sliding_window_view(self.symbol, self.grid.n_points)[:, ::-1]


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
    return RulerSeed(grid, symbol)


def make_ideal_ruler(grid: GeneratorGrid) -> RulerSeed:
    """Projection-valued limit: flat symbol 1/(2*pi), no measurement blur."""
    symbol = np.full(2 * grid.n_points - 1, FLAT_DIAGONAL, dtype=complex)
    symbol.flags.writeable = False
    return RulerSeed(grid, symbol)


def validate_ruler(seed: RulerSeed) -> ValidationReport:
    """Check hermiticity, flat diagonal and positivity of the seed.

    Hermiticity, K(-tau) = conj K(tau), and the diagonal, K(0) = 1/(2*pi),
    are read from the symbol in O(n).  Positivity uses eigenvalues of the
    Hermitian part's Toeplitz section scaled by the grid spacing (the
    discretized operator); the smallest may be slightly negative from
    discretization, hence the relative tolerance.
    """
    k = seed.symbol
    k_adj = k[::-1].conj()  # conj K(-tau), the adjoint's symbol
    herm_res = float(np.max(np.abs(k - k_adj)))
    k0 = k[seed.grid.n_points - 1]
    diag_res = float(max(abs(k0.real - FLAT_DIAGONAL), abs(k0.imag)))
    section = RulerSeed(seed.grid, 0.5 * (k + k_adj) * seed.grid.spacing).kernel
    eigvals = np.linalg.eigvalsh(section)
    lo, hi = float(eigvals[0]), float(eigvals[-1])
    return ValidationReport(
        hermitian=herm_res <= HERMITICITY_TOL,
        hermiticity_residual=herm_res,
        flat_diagonal=diag_res <= DIAGONAL_TOL,
        diagonal_residual=diag_res,
        positive=lo >= -POSITIVITY_REL_TOL * max(hi, 0.0),
        min_eigenvalue=lo,
        max_eigenvalue=hi,
    )

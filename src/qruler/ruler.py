"""Shift-invariant ruler seeds and their legitimacy checks.

A ruler seed is the origin tick of a shift-invariant POVM, with kernel
K(g, g') = K(g - g') in the generator eigenbasis, stored by that symbol
K(tau) on the grid's n offsets tau >= 0, so building one costs O(n).  A
seed is Hermitian by its type, K(-tau) = conj K(tau); ``kernel`` is the
one place that mirror is built.  A legitimate seed is a positive operator
whose diagonal is flat at 1/(2*pi), which is equivalent to the full tick
family resolving the identity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateDistribution, GridMismatch, NonPositiveSigma
from .grids import GeneratorGrid

FLAT_DIAGONAL = 1.0 / (2.0 * np.pi)

DIAGONAL_TOL = 1e-10
POSITIVITY_REL_TOL = 1e-10  # discretization introduces benign negative noise


@dataclass(frozen=True, eq=False)
class RulerSeed:
    """A ruler seed given by its symbol K(tau) on ``grid.tau_grid``, tau >= 0."""

    grid: GeneratorGrid
    symbol: np.ndarray  # complex (n,), units of 1/(g-spacing)

    def __post_init__(self):
        if self.symbol.shape != (self.grid.n_points,):
            raise GridMismatch("symbol length does not match grid")

    @property
    def kernel(self) -> np.ndarray:
        """Dense kernel[a, b] = K(g_a - g_b), a read-only Toeplitz view of the 2n-1 mirrored lags.

        The mirror is [conj K(tau_{n-1}) ... conj K(tau_1), K(0) ... K(tau_{n-1})].
        """
        k = self.symbol
        return sliding_window_view(np.concatenate([np.conj(k[:0:-1]), k]), self.grid.n_points)[:, ::-1]


@dataclass(frozen=True)
class ValidationReport:
    flat_diagonal: bool
    diagonal_residual: float
    positive: bool
    min_eigenvalue: float
    max_eigenvalue: float

    @property
    def all_pass(self) -> bool:
        return self.flat_diagonal and self.positive


def make_gaussian_ruler(delta_phi_m: float, grid: GeneratorGrid) -> RulerSeed:
    """Gaussian seed with symbol K(tau) = exp(-dphi^2 tau^2 / 2) / (2*pi)."""
    if not delta_phi_m > 0:
        raise NonPositiveSigma(f"delta_phi_m must be > 0, got {delta_phi_m}")
    try:
        rate = -0.5 * delta_phi_m**2
    except OverflowError:
        raise DegenerateDistribution(f"delta_phi_m={delta_phi_m!r}: its square overflows a float") from None
    symbol = (FLAT_DIAGONAL * np.exp(rate * grid.tau_grid**2)).astype(complex)
    symbol.flags.writeable = False
    return RulerSeed(grid, symbol)


def make_ideal_ruler(grid: GeneratorGrid) -> RulerSeed:
    """Projection-valued limit: flat symbol 1/(2*pi), no measurement blur."""
    symbol = np.full(grid.n_points, FLAT_DIAGONAL, dtype=complex)
    symbol.flags.writeable = False
    return RulerSeed(grid, symbol)


def validate_ruler(seed: RulerSeed) -> ValidationReport:
    """Check the flat diagonal and positivity of the seed.

    The diagonal, K(0) = 1/(2*pi), is read from the symbol; Im K(0) is the
    one place a symbol on tau >= 0 can break Hermitian symmetry.
    Positivity uses eigenvalues of the Toeplitz section scaled by the grid
    spacing (the discretized operator); the smallest may be slightly
    negative from discretization, hence the relative tolerance.
    """
    k0 = seed.symbol[0]
    diag_res = float(max(abs(k0.real - FLAT_DIAGONAL), abs(k0.imag)))
    eigvals = np.linalg.eigvalsh(RulerSeed(seed.grid, seed.symbol * seed.grid.spacing).kernel)
    lo, hi = float(eigvals[0]), float(eigvals[-1])
    return ValidationReport(
        flat_diagonal=diag_res <= DIAGONAL_TOL,
        diagonal_residual=diag_res,
        positive=lo >= -POSITIVITY_REL_TOL * max(hi, 0.0),
        min_eigenvalue=lo,
        max_eigenvalue=hi,
    )

"""Shift-invariant ruler seeds and their legitimacy checks.

A ruler seed is the origin tick of a shift-invariant POVM, with kernel
K(g, g') = K(g - g') in the generator eigenbasis, stored by that symbol
K(tau) on the grid's n offsets tau >= 0, so building one costs O(n).  A
seed is Hermitian by its type, K(-tau) = conj K(tau); ``kernel`` is the
one place that mirror is built.  A legitimate seed is a positive operator
whose diagonal is flat at 1/(2*pi), which is equivalent to the full tick
family resolving the identity.

Positivity is read from the section's real form.  A Hermitian Toeplitz
section T is centro-Hermitian, J T J = conj T, so one fixed unitary Q maps it
to a real symmetric matrix (Cantoni and Butler 1976; Lee 1980).  With
p = ceil(n/2), q = floor(n/2), A the leading p x p block of T and H the p x p
Hankel H[a, b] = t_{a+b-(n-1)}, Q* T Q is [[Re P, Im P'^T], [Im P', Re D]]
with P = W (A + H) W, P' its first q rows, D = (A - H)[:q, :q] and W the
identity but for 1/sqrt(2) on an odd n's middle row.  For a real symbol the
coupling Im P' vanishes and the two real blocks are diagonalized apart.
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


def _toeplitz(k: np.ndarray) -> np.ndarray:
    """Read-only view [a, b] -> k_{a-b} of the mirror [conj k_{n-1} ... conj k_1, k_0 ... k_{n-1}]."""
    return sliding_window_view(np.concatenate([np.conj(k[:0:-1]), k]), k.size)[:, ::-1]


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
        return _toeplitz(self.symbol)


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
    """Gaussian seed with symbol K(tau) = exp(-dphi^2 tau^2 / 2) / (2*pi); width 0 is the ideal ruler."""
    if not delta_phi_m >= 0:
        raise NonPositiveSigma(f"delta_phi_m must be >= 0, got {delta_phi_m}")
    try:
        rate = -0.5 * delta_phi_m**2
    except OverflowError:
        raise DegenerateDistribution(f"delta_phi_m={delta_phi_m!r}: its square overflows a float") from None
    symbol = (FLAT_DIAGONAL * np.exp(rate * grid.tau_grid**2)).astype(complex)
    symbol.flags.writeable = False
    return RulerSeed(grid, symbol)


def make_ideal_ruler(grid: GeneratorGrid) -> RulerSeed:
    """Projection-valued limit: flat symbol 1/(2*pi), no measurement blur."""
    return make_gaussian_ruler(0.0, grid)


def _section_extremes(t: np.ndarray) -> tuple[float, float]:
    """Smallest and largest eigenvalue of the Hermitian Toeplitz section of t, t[0] real, from its real form."""
    n = t.size
    p, q = (n + 1) // 2, n // 2
    real = not t.imag.any()
    if real:
        t = t.real
    lead = _toeplitz(t[:p])
    hankel = sliding_window_view(np.conj(t[::-1][: 2 * p - 1]), p)  # [a, b] -> t_{a+b-(n-1)}
    plus = lead + hankel
    minus = lead[:q, :q] - hankel[:q, :q]
    if p > q:  # odd n: the middle row and column enter with weight 1/sqrt(2)
        plus[-1, :-1] *= np.sqrt(0.5)
        plus[:-1, -1] *= np.sqrt(0.5)
        plus[-1, -1] *= 0.5
    if real:
        a, b = np.linalg.eigvalsh(plus), np.linalg.eigvalsh(minus)
        return float(min(a[0], b[0])), float(max(a[-1], b[-1]))
    m = np.empty((n, n))
    m[:p, :p] = plus.real
    m[p:, p:] = minus.real
    m[p:, :p] = plus.imag[:q]
    m[:p, p:] = m[p:, :p].T
    eigvals = np.linalg.eigvalsh(m)
    return float(eigvals[0]), float(eigvals[-1])


def validate_ruler(seed: RulerSeed) -> ValidationReport:
    """Check the flat diagonal and positivity of the seed.

    The diagonal, K(0) = 1/(2*pi), is read from the symbol; Im K(0) is the
    one place a symbol on tau >= 0 can break Hermitian symmetry.
    Positivity uses the extreme eigenvalues of the Toeplitz section scaled
    by the grid spacing (the discretized operator), with Im K(0) dropped as
    a Hermitian eigensolver drops it.  They come from the section's real
    form, built from the symbol in O(n^2): two real ceil(n/2) blocks for a
    real symbol, one real n x n matrix otherwise.  The smallest may be
    slightly negative from discretization, hence the relative tolerance.
    """
    k0 = seed.symbol[0]
    diag_res = float(max(abs(k0.real - FLAT_DIAGONAL), abs(k0.imag)))
    t = seed.symbol * seed.grid.spacing
    t[0] = t[0].real
    lo, hi = _section_extremes(t)
    return ValidationReport(
        flat_diagonal=diag_res <= DIAGONAL_TOL,
        diagonal_residual=diag_res,
        positive=lo >= -POSITIVITY_REL_TOL * max(hi, 0.0),
        min_eigenvalue=lo,
        max_eigenvalue=hi,
    )

"""Probe states sampled in the generator eigenbasis.

Amplitudes follow the density convention: a probe psi(g) satisfies
sum |psi(g)|^2 * dg = 1, so |psi|^2 is a probability density on the grid.
The geometric-series (sg) probe sits on its own number lattice 0..n_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDistribution, GridTooNarrow, InvalidGrid, NonPositiveSigma, XiOutOfDisc
from .grids import SPAN_SIGMAS, GeneratorGrid, integer_grid

SG_TAIL_TOLERANCE = 1e-12
SG_MIN_NMAX = 64  # grid resolution floor of the sg phase axis


@dataclass(frozen=True)
class GaussianProbeSpec:
    """Gaussian amplitude on the generator axis.

    ``center`` is the mean of the generator variable, ``sigma`` its
    standard deviation.  ``conjugate_center`` is the slope of the linear
    phase exp(i*k0*g), i.e. the mean of the conjugate variable up to sign
    (a probe built with k0 produces outcome statistics centered at -k0).
    """

    center: float
    sigma: float
    conjugate_center: float = 0.0

    def __post_init__(self):
        if not self.sigma > 0:
            raise NonPositiveSigma(f"sigma must be > 0, got {self.sigma}")


@dataclass(frozen=True)
class SGProbeSpec:
    """Normalizable geometric-series phase probe sum_n sqrt(1-|xi|^2) xi^n |n>."""

    xi: complex
    n_max: int | None = None  # None: smallest n with |xi|^(2n) <= tail tol, at least 64

    def __post_init__(self):
        if not abs(self.xi) < 1.0:  # a NaN xi fails too
            raise XiOutOfDisc(f"|xi| must be < 1, got {abs(self.xi)}")


@dataclass(frozen=True, eq=False)
class PureProbe:
    grid: GeneratorGrid
    amplitudes: np.ndarray  # complex, density-normalized

    def __post_init__(self):
        if self.amplitudes.shape != (self.grid.n_points,):
            raise ValueError("amplitude vector does not match grid size")

    @property
    def norm(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2) * self.grid.spacing)

    def moment(self, power: int = 1) -> float:
        """Spacing-weighted moment of g under |psi|^2."""
        w = np.abs(self.amplitudes) ** 2 * self.grid.spacing
        return float(np.sum(self.grid.points**power * w))

    def variance(self) -> float:
        return self.moment(2) - self.moment(1) ** 2


def make_gaussian_probe(spec: GaussianProbeSpec, grid: GeneratorGrid) -> PureProbe:
    """Sample psi(g) = (sigma*sqrt(2pi))^{-1/2} e^{-(g-g0)^2/(4 sigma^2)} e^{i k0 g}.

    Requires the grid to cover center +/- ``SPAN_SIGMAS`` sigma; the result is
    renormalized on the grid so its density norm is exactly 1.
    """
    half = SPAN_SIGMAS * spec.sigma
    if not grid.covers(spec.center - half, spec.center + half):
        raise GridTooNarrow(
            f"grid [{grid.g_min}, {grid.g_max}] does not cover "
            f"{spec.center} +/- {SPAN_SIGMAS:g}*{spec.sigma}"
        )
    try:
        var4 = 4.0 * spec.sigma**2
    except OverflowError:
        raise DegenerateDistribution(f"sigma={spec.sigma!r}: its square overflows a float") from None
    if var4 == 0.0:
        raise DegenerateDistribution(f"sigma={spec.sigma!r}: its square underflows to 0")
    g = grid.points
    envelope = np.exp(-((g - spec.center) ** 2) / var4)
    psi = envelope.astype(complex)
    if spec.conjugate_center != 0.0:
        psi = psi * np.exp(1j * spec.conjugate_center * g)
    psi /= math.sqrt(np.sum(np.abs(psi) ** 2) * grid.spacing)
    psi.flags.writeable = False
    return PureProbe(grid, psi)


def sg_n_max(xi: complex) -> int:
    """Smallest truncation n with |xi|^(2n) <= SG_TAIL_TOLERANCE.

    The neglected mass sum_{n > n_max} (1-|xi|^2)|xi|^(2n) = |xi|^(2(n_max+1))
    is then strictly below ``SG_TAIL_TOLERANCE``.
    """
    a = abs(xi)
    if a == 0.0:
        return 1
    return max(1, math.ceil(math.log(SG_TAIL_TOLERANCE) / (2.0 * math.log(a))))


def make_sg_probe(spec: SGProbeSpec) -> PureProbe:
    """Truncated geometric-series probe on the integer number grid.

    Amplitudes are used as stated, c_n = sqrt(1-|xi|^2) xi^n, not
    renormalized: the truncation rule keeps the missing tail mass below
    1e-12, well inside the unit-norm invariant.  An explicit ``n_max``
    below the grid floor of 64 is refused, never raised to it, and a
    derived or explicit lattice above MAX_LATTICE_POINTS states raises
    ``GridTooNarrow`` in ``integer_grid``, before anything is allocated.
    """
    n_max = spec.n_max
    if n_max is None:
        n_max = max(sg_n_max(spec.xi), SG_MIN_NMAX)
    elif n_max < SG_MIN_NMAX:
        raise InvalidGrid(f"n_max={n_max} is below the grid floor {SG_MIN_NMAX}")
    grid = integer_grid(0, n_max)
    tail = abs(spec.xi) ** (2 * (n_max + 1))
    if tail >= SG_TAIL_TOLERANCE:
        raise XiOutOfDisc(
            f"n_max={n_max} leaves tail mass {tail:.3e} >= {SG_TAIL_TOLERANCE}"
        )
    n = np.arange(n_max + 1)
    c = math.sqrt(1.0 - abs(spec.xi) ** 2) * np.asarray(spec.xi, complex) ** n
    c.flags.writeable = False
    return PureProbe(grid, c)

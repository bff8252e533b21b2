"""Uniform axes: ``GeneratorGrid`` is every g, mu, m and k axis of the package.

Probe and ruler are sampled on a uniform grid of generator eigenvalues g;
its offset (tau) axis holds the differences g' - g >= 0, which stand for
all 2n-1 lags of a Hermitian f(-tau) = conj f(tau).  Outcome densities sit
on the same type: the mu axis of a coherence transform, the Fourier dual
of its M' lags with spacing 2*pi/(M'*dtau), and a joint readout's m and k.
``integer_grid``, the phase scenarios' number lattice, holds its ceiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridTooNarrow, InvalidGrid

MIN_POINTS = 64  # resolution floor for quadrature accuracy
# Gaussian half-span in standard deviations: tail mass below 1e-14, which
# keeps all quadratures in this package well under their test tolerances
SPAN_SIGMAS = 8.0
# largest float step at the bounds, as a share of the spacing: a coarser
# float lattice rounds the points to uneven steps, or onto each other
ULP_SHARE = 1e-6
MAX_LATTICE_POINTS = 1 << 20  # largest number lattice (phase, sg): a 16 MB probe, phase's dn_s up to 65,535


@dataclass(frozen=True)
class GeneratorGrid:
    g_min: float
    g_max: float
    n_points: int

    def __post_init__(self):
        if self.n_points < MIN_POINTS:
            raise InvalidGrid(
                f"need at least {MIN_POINTS} points, got {self.n_points}"
            )
        if not np.isfinite(self.g_min) or not np.isfinite(self.g_max):
            raise InvalidGrid("grid bounds must be finite")
        if not self.g_max > self.g_min:
            raise InvalidGrid("g_max must exceed g_min")
        if not 0.0 < self.spacing < np.inf:  # the span overflows, or its share of n-1 underflows
            raise InvalidGrid(f"grid spacing {self.spacing!r} is not finite and positive")
        if math.ulp(max(abs(self.g_min), abs(self.g_max))) > ULP_SHARE * self.spacing:
            raise InvalidGrid(f"grid points {self.spacing!r} apart are too close for the float step at the bounds")

    @property
    def spacing(self) -> float:
        return (self.g_max - self.g_min) / (self.n_points - 1)

    @cached_property
    def points(self) -> np.ndarray:
        g = np.linspace(self.g_min, self.g_max, self.n_points)
        g.flags.writeable = False
        return g

    @cached_property
    def tau_grid(self) -> np.ndarray:
        """Offsets g' - g >= 0 reachable on this grid: j*dg, j = 0..n-1."""
        tau = np.arange(self.n_points) * self.spacing
        tau.flags.writeable = False
        return tau

    def covers(self, lo: float, hi: float) -> bool:
        slack = 1e-12 * (self.g_max - self.g_min)
        return self.g_min <= lo + slack and self.g_max >= hi - slack


def grid_for_gaussian(center: float, sigma: float, n_points: int = 512) -> GeneratorGrid:
    """Grid covering ``center`` +/- ``SPAN_SIGMAS`` standard deviations."""
    half = SPAN_SIGMAS * sigma
    return GeneratorGrid(center - half, center + half, n_points)


def integer_grid(lo: int, hi: int) -> GeneratorGrid:
    """Number lattice lo..hi on float bounds; above MAX_LATTICE_POINTS states, ``GridTooNarrow`` before allocating."""
    if not hi - lo < MAX_LATTICE_POINTS:
        raise GridTooNarrow(f"{hi - lo + 1} number states, above MAX_LATTICE_POINTS = {MAX_LATTICE_POINTS}")
    return GeneratorGrid(float(lo), float(hi), hi - lo + 1)

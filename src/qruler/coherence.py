"""Detection-process coherence functions and outcome statistics.

The outcome density p(mu) of a shift-invariant measurement and the
detection-process coherence function Gamma(tau) form a Fourier pair,

    p(mu) = integral dtau Gamma(tau) exp(-i tau mu),
    Gamma(tau) = integral' dg <g|rho0|g+tau> <g+tau|Delta0|g>
               = K(tau) * (psi * psi)(tau),

the quantum analogue of the Wiener-Khinchin relation between a spectral
density and a coherence function.  The primed range drops g where g+tau
falls off the grid.  For a shift-invariant ruler the seed enters only
through its symbol K(tau), and the probe only through its autocorrelation
(psi * psi)(tau) = integral' dg psi(g) conj(psi(g+tau)), computed by one
FFT, and Gamma is stored on its transform length.  Two independent routes
to p(mu) are provided: the transform of Gamma and a brute-force double sum
over the dense kernel, used to cross-check each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft  # for next_fast_len; the same pocketfft transforms as numpy.fft
from scipy.interpolate import CubicSpline

from .errors import (
    DegenerateDistribution,
    GridMismatch,
    NonPositiveSigma,
    NormalizationFailure,
)
from .ruler import FLAT_DIAGONAL, RulerSeed
from .states import PureProbe

GAMMA0_TOL = 1e-8
SYMMETRY_TOL = 1e-10
IMAG_TOL = 1e-10
NEGATIVE_CLIP = 1e-12
NORM_HARD_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class CoherenceFunction:
    """Sampled Gamma(tau) on a symmetric tau grid (odd length, uniform)."""

    tau_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if len(self.values) % 2 != 1 or len(self.tau_grid) != len(self.values):
            raise ValueError(
                f"need an odd number of lags with one value each, got "
                f"{len(self.tau_grid)} lags and {len(self.values)} values"
            )

    @property
    def gamma0(self) -> float:
        """Re Gamma(0), the middle lag; 1/(2*pi) for detection-process functions."""
        return float(self.values[len(self.values) // 2].real)

    @property
    def spacing(self) -> float:
        return float(self.tau_grid[1] - self.tau_grid[0])

    def degree(self) -> np.ndarray:
        """Degree of coherence gamma(tau) = Gamma(tau) / Gamma(0)."""
        return self.values / self.gamma0

    def shifted(self, delta: float) -> "CoherenceFunction":
        """Coherence function of the signal-shifted state.

        A signal shift lambda multiplies Gamma(tau) by exp(i tau lambda),
        translating p(mu) to p(mu - lambda).  Both invariants survive.
        """
        return CoherenceFunction(self.tau_grid, self.values * np.exp(1j * self.tau_grid * delta))


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Sampled outcome density, 1-D p(mu) or joint 2-D p(m, k)."""

    mu_grid: np.ndarray
    density: np.ndarray
    k_grid: np.ndarray | None = None

    @property
    def spacing(self) -> float:
        return float(self.mu_grid[1] - self.mu_grid[0])

    @property
    def k_spacing(self) -> float:
        return float(self.k_grid[1] - self.k_grid[0])

    @property
    def cell(self) -> float:
        """Integration element: dmu, or dm*dk for joint densities."""
        if self.density.ndim == 2:
            return self.spacing * self.k_spacing
        return self.spacing

    def total_mass(self) -> float:
        return float(np.sum(self.density) * self.cell)

    def mean(self) -> float:
        if self.density.ndim != 1:
            raise ValueError("mean() is defined for 1-D densities")
        return float(np.sum(self.mu_grid * self.density) * self.spacing)

    def variance(self) -> float:
        m = self.mean()
        return float(
            np.sum((self.mu_grid - m) ** 2 * self.density) * self.spacing
        )


def _check_coherence(gamma: CoherenceFunction, gamma0_expected: float | None) -> None:
    values = gamma.values
    g0 = values[len(values) // 2]
    if abs(g0.imag) > GAMMA0_TOL:
        raise NormalizationFailure(f"Gamma(0) has imaginary part {g0.imag:.3e}")
    if gamma0_expected is not None and abs(g0.real - gamma0_expected) > GAMMA0_TOL:
        raise NormalizationFailure(
            f"Gamma(0) = {g0.real!r}, expected {gamma0_expected!r}"
        )
    sym = float(np.max(np.abs(np.conj(values) - values[::-1])))
    if sym > SYMMETRY_TOL:
        raise NormalizationFailure(f"Gamma lacks Hermitian symmetry: {sym:.3e}")


def coherence_function(probe: PureProbe, ruler: RulerSeed) -> CoherenceFunction:
    """Gamma(tau) = K(tau) * sum'_g psi(g) conj(psi(g+tau)) * dg.

    The autocorrelation is one zero-padded FFT of the amplitudes, padded to
    the next power of two >= 2n-1 so no lag wraps; O(n log n) time and O(n)
    memory.  Gamma is returned on its transform length, the smallest odd
    M' >= 2n-1 that ``scipy.fft.next_fast_len`` keeps (tau = 0 stays the
    middle lag, and no transform runs Bluestein's algorithm).  Lags beyond
    the 2n-1 grid lags hold exact zeros, so the transform samples the same
    p(mu) on a finer grid over the same range pi/dtau.
    """
    if probe.grid != ruler.grid:
        raise GridMismatch("probe and ruler must share a grid")
    psi = probe.amplitudes
    n = len(psi)
    size = 1 << (2 * n - 2).bit_length()
    spec = scipy.fft.fft(psi, size)
    corr = scipy.fft.ifft(spec * np.conj(spec))  # corr[t] = sum_g psi(g+t) conj(psi(g))
    lags = np.concatenate([corr[size - n + 1:], corr[:n]])  # lag j at index j + n - 1
    m = length = 2 * n - 1
    while (length := scipy.fft.next_fast_len(length)) % 2 == 0:
        length += 1
    pad = (length - m) // 2
    vals = np.zeros(length, dtype=complex)
    vals[pad:pad + m] = ruler.symbol * lags[::-1] * probe.grid.spacing  # Gamma(tau) reads corr at -tau
    lag_tau = probe.grid.tau_grid
    step = float(lag_tau[1] - lag_tau[0]) * np.arange(1, pad + 1)
    tau = np.concatenate([lag_tau[0] - step[::-1], lag_tau, lag_tau[-1] + step])
    vals.flags.writeable = False
    tau.flags.writeable = False
    gamma = CoherenceFunction(tau, vals)
    _check_coherence(gamma, FLAT_DIAGONAL)
    return gamma


def _finalize_density(mu: np.ndarray, raw: np.ndarray, k_grid=None) -> OutcomeDistribution:
    """Apply realness, nonnegativity and normalization gates to a density."""
    scale = float(np.max(np.abs(raw.real))) if raw.size else 0.0
    max_imag = float(np.max(np.abs(raw.imag))) if np.iscomplexobj(raw) else 0.0
    if max_imag > IMAG_TOL * max(1.0, scale):
        raise NormalizationFailure(f"density not real: max |Im p| = {max_imag:.3e}")
    dens = np.array(raw.real, dtype=float)
    if float(np.min(dens)) < -NEGATIVE_CLIP:
        raise NormalizationFailure(
            f"density negative beyond tolerance: min p = {np.min(dens):.3e}"
        )
    np.clip(dens, 0.0, None, out=dens)
    dist = OutcomeDistribution(mu_grid=mu, density=dens, k_grid=k_grid)
    norm = dist.total_mass()
    if abs(norm - 1.0) > NORM_HARD_TOL:
        raise NormalizationFailure(
            f"density norm {norm!r} deviates by more than {NORM_HARD_TOL}"
        )
    dens /= norm
    dens.flags.writeable = False
    return dist


def statistics_from_coherence(gamma: CoherenceFunction) -> OutcomeDistribution:
    """p(mu) = sum_tau Gamma(tau) exp(-i tau mu) * dtau on the dual mu grid.

    With M tau points of spacing dtau, the mu grid has spacing
    2*pi/(M*dtau); on that grid the transform is a plain DFT that
    preserves normalization exactly.  Integer tau grids (periodic phase
    statistics) are the special case dtau = 1, where mu is the phase on
    (-pi, pi) with spacing 2*pi/M.
    """
    vals = gamma.values
    m = len(vals)
    dtau = gamma.spacing
    raw = dtau * np.fft.fftshift(scipy.fft.fft(np.fft.ifftshift(vals)))
    dmu = 2.0 * np.pi / (m * dtau)
    mu = np.arange(-(m // 2), m // 2 + 1) * dmu
    mu.flags.writeable = False
    return _finalize_density(mu, raw)


def direct_statistics(
    probe: PureProbe, ruler: RulerSeed, mu_grid: np.ndarray
) -> OutcomeDistribution:
    """Brute-force trace route, independent of the coherence transform:

        p(mu) = sum_{g,g'} <g|rho0|g'> <g'|Delta0|g> exp(i (g-g') mu) dg^2

    Reads the dense kernel, so it costs O(n^2) memory; an oracle only.
    """
    if probe.grid != ruler.grid:
        raise GridMismatch("probe and ruler must share a grid")
    mu = np.asarray(mu_grid, dtype=float)
    steps = np.diff(mu)
    if mu.ndim != 1 or len(mu) < 2 or not np.allclose(steps, steps[0]):
        raise ValueError("mu_grid must be a uniform 1-D grid")
    psi = probe.amplitudes
    b = np.outer(psi, np.conj(psi)) * ruler.kernel.T
    phases = np.exp(1j * np.outer(probe.grid.points, mu))  # e^{i g mu}
    raw = np.sum(phases * (b @ np.conj(phases)), axis=0) * probe.grid.spacing**2
    return _finalize_density(mu, raw)


def coherence_time(gamma: CoherenceFunction) -> float:
    """tau_c = integral dtau |gamma(tau)|^2 of the degree of coherence."""
    deg = gamma.degree()
    return float(np.sum(np.abs(deg) ** 2) * gamma.spacing)


def signal_uncertainty(p: OutcomeDistribution) -> float:
    """Inverse-purity width: Delta lambda = 1 / (2 sqrt(pi) integral p^2)."""
    if p.density.ndim != 1:
        raise ValueError("signal uncertainty is defined for 1-D densities")
    purity = float(np.sum(p.density**2) * p.spacing)
    if purity < 1e-300:
        raise DegenerateDistribution("integral of p^2 vanishes")
    return 1.0 / (2.0 * math.sqrt(math.pi) * purity)


def wk_product(gamma: CoherenceFunction, p: OutcomeDistribution) -> float:
    """tau_c * Delta lambda; equals sqrt(pi) for any legitimate transform pair."""
    return coherence_time(gamma) * signal_uncertainty(p)


@dataclass(frozen=True)
class GaussianModel:
    """Closed forms for a Gaussian probe (width sigma_g) and Gaussian ruler.

    phi_s2 = 1/(4 sigma_g^2) is the probe's conjugate-variable variance;
    Gamma(tau) = exp(-(phi_m2 + phi_s2) tau^2 / 2) / (2*pi).
    """

    probe_sigma: float
    ruler_sigma: float

    def __post_init__(self):
        if not self.probe_sigma > 0:
            raise NonPositiveSigma("probe sigma must be > 0")
        if self.ruler_sigma < 0:
            raise NonPositiveSigma("ruler sigma must be >= 0")

    @property
    def phi_s2(self) -> float:
        return 1.0 / (4.0 * self.probe_sigma**2)

    @property
    def phi_m2(self) -> float:
        return self.ruler_sigma**2

    @property
    def delta2_lambda(self) -> float:
        """Squared signal uncertainty, the total conjugate variance phi_s2 + phi_m2."""
        return self.phi_s2 + self.phi_m2

    def gamma(self, tau: np.ndarray) -> np.ndarray:
        return FLAT_DIAGONAL * np.exp(-0.5 * self.delta2_lambda * np.asarray(tau) ** 2)

    @property
    def tau_c(self) -> float:
        return math.sqrt(math.pi / self.delta2_lambda)


def appendix_coherence(
    probe: PureProbe,
    tau_grid: np.ndarray | None = None,
) -> CoherenceFunction:
    """Probe-only coherence function for the squared generator g^2,

        Gamma2(tau) = integral' dp psi(p) conj(psi(sqrt(p^2+tau))),

    the primed range keeping p^2 + tau >= 0.  No ruler factor is included,
    so Gamma(0) = 1 rather than 1/(2*pi).  For g itself the probe-only
    Gamma1 is 2*pi times ``coherence_function`` with the ideal ruler.
    The quadrature takes off-grid amplitudes from a cubic spline of the
    sampled probe, clamped to zero outside the grid.  Values for tau < 0
    are obtained from the Hermitian symmetry Gamma(-tau) = conj(Gamma(tau));
    the raw negative-tau integral would break that symmetry, which every
    coherence function must satisfy.
    """
    grid = probe.grid
    if tau_grid is None:
        sigma = math.sqrt(probe.variance())
        half = max(40.0 * sigma**2, 16.0 * sigma)
        tau_grid = np.linspace(-half, half, 2049)
    tau = np.asarray(tau_grid, dtype=float)
    if abs(tau[len(tau) // 2]) > 1e-12 * max(float(tau[-1] - tau[0]), 1.0):
        raise ValueError("tau_grid must be symmetric around 0")
    half_tau = tau[len(tau) // 2 :]
    p = grid.points
    arg = p[None, :] ** 2 + half_tau[:, None]
    inside = arg >= 0.0
    at = np.sqrt(np.where(inside, arg, 0.0))
    re = CubicSpline(p, probe.amplitudes.real, extrapolate=False)
    im = CubicSpline(p, probe.amplitudes.imag, extrapolate=False)
    shifted = np.nan_to_num(re(at) + 1j * im(at), nan=0.0)
    shifted[~inside] = 0.0
    vals_half = np.sum(probe.amplitudes[None, :] * np.conj(shifted), axis=1) * grid.spacing
    vals = np.concatenate([np.conj(vals_half[:0:-1]), vals_half])
    vals.flags.writeable = False
    tau = tau.copy()
    tau.flags.writeable = False
    gamma = CoherenceFunction(tau, vals)
    _check_coherence(gamma, None)
    return gamma

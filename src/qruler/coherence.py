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
FFT.  Both factors are Hermitian, K by the seed's type and the
autocorrelation by construction, so Gamma(-tau) = conj Gamma(tau): it is
stored by its lag spacing dtau and its values on the h lags j*dtau >= 0,
which stand for all M' = 2h-1 symmetric lags, and gated once, for
Gamma(0) = 1/(2*pi), where it is built.  So p(mu) is real, and the
transform is one half-spectrum FFT of the stored values, onto the dual
axis: a ``GeneratorGrid`` of M' points with spacing 2*pi/(M'*dtau), the
axis every outcome density carries by its type.  Two independent routes to p(mu) are provided: the
transform of Gamma and a brute-force double sum over the dense kernel,
used to cross-check each other.

A signal shift lambda multiplies Gamma(tau_j), tau_j = j*dtau, by
exp(i j s) with s = dtau*lambda.  ``CoherenceFunction.shifted`` builds
that phase from exact arguments: s is carried as four doubles of at most
27 significant bits each (Dekker's two-product, each half split by
Veltkamp), so every product of a piece with a lag index below
``EXACT_INDEX`` = 2**26 is exact, and the phase error stays a few ulps
for any |tau*lambda|, where fl(tau*lambda) alone would carry
|tau*lambda|*eps.  With j = a*B + b, B = ceil(sqrt(h)), the phase is the
outer product of a coarse table exp(i a B s) and a fine one exp(i b s):
O(sqrt(h)) complex exponentials, then h complex products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft  # next_fast_len and hfft; the same pocketfft transforms as numpy.fft

from .errors import (
    DegenerateDistribution,
    GridMismatch,
    InvalidGrid,
    NonPositiveSigma,
    NormalizationFailure,
    SignalOutOfRange,
)
from .grids import GeneratorGrid
from .ruler import FLAT_DIAGONAL, RulerSeed
from .states import PureProbe

GAMMA0_TOL = 1e-8
SYMMETRY_TOL = 1e-10
IMAG_TOL = 1e-10
NEGATIVE_CLIP = 1e-12  # of the density's peak, which grows as 1/sigma
NORM_HARD_TOL = 1e-6
# a piece of at most 27 significant bits times a lag index below this (26
# bits) is exact; MAX_LATTICE_POINTS = 2**20 keeps every run's h far below it
EXACT_INDEX = 1 << 26
SPLIT_MAX = 2.0**995  # largest |x| whose Veltkamp split 134217729*x cannot overflow


def _split(x: float) -> tuple[float, float]:
    """Veltkamp's split x = hi + lo, exact: hi has 26 significant bits, lo 27 (|x| <= SPLIT_MAX)."""
    c = 134217729.0 * x  # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


def _exact_pieces(a: float, b: float) -> tuple[float, float, float, float]:
    """Four doubles of at most 27 significant bits whose exact sum is a*b.

    Dekker's two-product a*b = p + e (exact barring underflow), then p and
    e each split by ``_split``.
    """
    p = a * b
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return (*_split(p), *_split(e))


@dataclass(frozen=True, eq=False)
class CoherenceFunction:
    """Sampled Hermitian Gamma(tau) on its h = len(values) lags tau_j = j*spacing, uniform from 0 by construction.

    Gamma(-tau) = conj Gamma(tau) gives the rest of its M' = 2h-1 lags; a
    ``center`` x0, the phase e^{i tau x0} on Gamma, is ``dual_axis``'s centre.
    """

    spacing: float
    values: np.ndarray
    center: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.spacing < math.inf:
            raise ValueError(f"the lag spacing must be finite and positive, got {self.spacing!r}")
        if len(self.values) < 2:
            raise ValueError(f"need two or more lags tau >= 0, got {len(self.values)}")
        if not 2.0 * abs(self.values[0].imag) <= SYMMETRY_TOL:  # hfft would drop Im Gamma(0)
            raise NormalizationFailure(f"Gamma lacks Hermitian symmetry: Im Gamma(0) = {self.values[0].imag:.3e}")

    @property
    def gamma0(self) -> float:
        """Re Gamma(0), the first lag; 1/(2*pi) for detection-process functions."""
        return float(self.values[0].real)

    @cached_property
    def tau_grid(self) -> np.ndarray:
        """The stored lags j*spacing, read-only, built on first read."""
        tau = np.arange(len(self.values)) * self.spacing
        tau.flags.writeable = False
        return tau

    def all_lags(self) -> tuple[np.ndarray, np.ndarray]:
        """(tau, Gamma) on all M' = 2h-1 symmetric lags, tau < 0 from Gamma(-tau) = conj Gamma(tau)."""
        tau = np.concatenate([-self.tau_grid[:0:-1], self.tau_grid])
        return tau, np.concatenate([np.conj(self.values[:0:-1]), self.values])

    def degree(self) -> np.ndarray:
        """Degree of coherence gamma(tau) = Gamma(tau) / Gamma(0)."""
        return self.values / self.gamma0

    @cached_property
    def dual_axis(self) -> GeneratorGrid:
        """The mu axis of the transform: M' = 2h-1 points spaced 2*pi/(M'*dtau), on center +/- (h-1)*dmu."""
        m = 2 * len(self.values) - 1
        half = (m // 2) * (2.0 * np.pi / (m * self.spacing))
        return GeneratorGrid(self.center - half, self.center + half, m)

    @cached_property
    def _lag_table(self) -> tuple[int, int, np.ndarray]:
        """(A, B, i*k): the coarse lag indices k = a*B, a < A, then the fine k = b < B, as i*k.

        B = ceil(sqrt(h)) and A = ceil(h/B), so every lag j < h is a*B + b.
        """
        h = len(self.values)
        if not h <= EXACT_INDEX:
            raise InvalidGrid(f"{h} lags, above the {EXACT_INDEX} whose products with a split shift are exact")
        fine = math.isqrt(h - 1) + 1
        coarse = -(-h // fine)
        k = np.concatenate([np.arange(coarse) * float(fine), np.arange(fine, dtype=float)])
        return coarse, fine, 1j * k

    def shifted(self, delta: float) -> "CoherenceFunction":
        """Coherence function of the signal-shifted state.

        A signal shift lambda multiplies Gamma(tau_j) by exp(i j s),
        s = dtau*lambda, translating p(mu) to p(mu - lambda); Hermitian
        symmetry survives, so the stored lags are all it shifts.  The phase
        comes from exact arguments (module docstring), a few ulps off at
        any |tau*delta| for h <= EXACT_INDEX = 2**26 lags (``InvalidGrid``
        beyond).  A NaN or infinite delta, or |delta|, dtau or |dtau*delta|
        above SPLIT_MAX (about 3e299), raises ``SignalOutOfRange`` before
        any arithmetic.  Gamma(0) is copied bit for bit; delta = 0 returns
        this Gamma.  The shifted Gamma keeps this one's ``center``.
        """
        if not math.isfinite(delta):
            raise SignalOutOfRange(f"signal shift delta = {delta!r} is not finite")
        if delta == 0.0:
            return self
        dtau = self.spacing
        if not max(abs(delta), abs(dtau), abs(dtau * delta)) <= SPLIT_MAX:
            raise SignalOutOfRange(
                f"signal shift delta = {delta!r} on lags dtau = {dtau!r}: |delta|, dtau or "
                f"|dtau*delta| exceeds {SPLIT_MAX:.3e}, the range of the exact split"
            )
        coarse, fine, k = self._lag_table
        pieces = np.exp(np.multiply.outer(_exact_pieces(dtau, delta), k))  # exp(i k*piece), each argument exact
        pair = pieces[:2] * pieces[2:]
        phase = pair[0] * pair[1]  # exp(i k s): the coarse k, then the fine
        table = np.empty((coarse, fine), dtype=complex)
        np.multiply(phase[:coarse, None], phase[coarse:], out=table)  # lag a*B + b at row a, column b
        h = len(self.values)
        out = table.reshape(-1)[:h]
        np.multiply(out[1:], self.values[1:], out=out[1:])
        out[0] = self.values[0]
        return CoherenceFunction(self.spacing, out, self.center)


@dataclass(frozen=True, eq=False)
class OutcomeDistribution:
    """Sampled outcome density, 1-D p(mu) or joint 2-D p(m, k), on uniform axes."""

    mu_grid: GeneratorGrid
    density: np.ndarray
    k_grid: GeneratorGrid | None = None

    def __post_init__(self):
        shape = (self.mu_grid.n_points,) if self.k_grid is None else (self.mu_grid.n_points, self.k_grid.n_points)
        if self.density.shape != shape:
            raise GridMismatch(f"density of shape {self.density.shape} on axes of shape {shape}")

    @property
    def cell(self) -> float:
        """Integration element: dmu, or dm*dk for joint densities."""
        return self.mu_grid.spacing * (1.0 if self.k_grid is None else self.k_grid.spacing)

    def total_mass(self) -> float:
        return float(self.density.sum() * self.cell)

    def mean(self) -> float:
        if self.k_grid is not None:
            raise ValueError("mean() is defined for 1-D densities")
        return float(np.sum(self.mu_grid.points * self.density) * self.cell)

    def variance(self) -> float:
        m = self.mean()
        return float(np.sum((self.mu_grid.points - m) ** 2 * self.density) * self.cell)


def coherence_function(probe: PureProbe, ruler: RulerSeed, center: float = 0.0) -> CoherenceFunction:
    """Gamma(tau) = K(tau) * sum'_g psi(g) conj(psi(g+tau)) * dg, of the probe displaced by ``center``.

    The autocorrelation is one zero-padded FFT of the amplitudes, padded to
    the next power of two >= 2n-1 so no lag wraps; O(n log n) time and O(n)
    memory.  Gamma(0) must be 1/(2*pi) to GAMMA0_TOL (a NaN fails that
    gate too).  Gamma is then stored by its lags tau = j*dg >= 0, j < h,
    where M' = 2h-1 is the smallest odd length >= 2n-1 that
    ``scipy.fft.next_fast_len`` keeps (so no transform runs Bluestein's
    algorithm).  Lags j >= n hold exact zeros, so the transform samples
    the same p(mu) on a finer grid over the same range pi/dtau.
    """
    if probe.grid != ruler.grid:
        raise GridMismatch("probe and ruler must share a grid")
    psi = probe.amplitudes
    n = len(psi)
    size = 1 << (2 * n - 2).bit_length()
    spec = scipy.fft.fft(psi, size)
    corr = scipy.fft.ifft(spec * np.conj(spec))  # corr[t] = sum_g psi(g+t) conj(psi(g))
    gamma = ruler.symbol * corr[-np.arange(n)] * probe.grid.spacing  # Gamma(tau) reads corr at -tau
    g0 = float(gamma[0].real)
    if not abs(g0 - FLAT_DIAGONAL) <= GAMMA0_TOL:
        raise NormalizationFailure(f"Gamma(0) = {g0!r}, expected {FLAT_DIAGONAL!r}")
    length = 2 * n - 1
    while (length := scipy.fft.next_fast_len(length)) % 2 == 0:
        length += 1
    h = (length + 1) // 2
    vals = np.zeros(h, dtype=complex)
    vals[:n] = gamma
    vals.flags.writeable = False
    return CoherenceFunction(probe.grid.spacing, vals, center)


def _finalize_density(mu: GeneratorGrid, raw: np.ndarray, k_grid=None, scaled=()) -> OutcomeDistribution:
    """Apply realness, nonnegativity (min p >= -NEGATIVE_CLIP * max p) and normalization gates; a NaN fails each.

    A float64 ``raw`` becomes the density itself: it is clipped,
    normalized and made read-only in place, so callers pass a fresh
    array.  Any other is copied, a complex one once its imaginary part
    passes the realness gate.  Each array in ``scaled`` (a density's
    derivative) is divided in place by the same norm as the density.
    """
    if np.iscomplexobj(raw):
        max_imag = float(np.max(np.abs(raw.imag)))
        if not max_imag <= IMAG_TOL * max(1.0, float(np.max(np.abs(raw.real)))):
            raise NormalizationFailure(f"density not real: max |Im p| = {max_imag:.3e}")
    dens = raw if raw.dtype == np.float64 else np.array(raw.real, dtype=float)
    low, peak = float(dens.min()), float(dens.max())
    if not low >= -NEGATIVE_CLIP * peak:
        raise NormalizationFailure(f"density negative beyond tolerance: min p = {low:.3e} at peak {peak:.3e}")
    np.maximum(dens, 0.0, out=dens)  # what np.clip(dens, 0.0, None) calls, without its wrapper
    dist = OutcomeDistribution(mu_grid=mu, density=dens, k_grid=k_grid)
    norm = dist.total_mass()
    if not abs(norm - 1.0) <= NORM_HARD_TOL:
        raise NormalizationFailure(
            f"density norm {norm!r} deviates by more than {NORM_HARD_TOL}"
        )
    dens /= norm
    for arr in scaled:
        arr /= norm
    dens.flags.writeable = False
    return dist


def statistics_from_coherence(gamma: CoherenceFunction, delta: float = 0.0) -> OutcomeDistribution:
    """p(mu - delta) = sum_tau Gamma(tau) exp(i tau delta) exp(-i tau mu) * dtau on the dual mu grid.

    The transform of ``gamma.shifted(delta)``, on ``gamma.dual_axis``: the
    axis depends on the lags and the centre alone, so a run's members share
    the one its unshifted Gamma caches.  The sum runs over the M' = 2*len(values) - 1
    symmetric lags that the stored lags tau >= 0 stand for, spacing dtau;
    the mu grid has spacing 2*pi/(M'*dtau), and on it the transform is a
    plain DFT that preserves normalization exactly.  Integer tau grids
    (periodic phase statistics) are the special case dtau = 1, where mu is
    the phase on (-pi, pi) with spacing 2*pi/M'.  Gamma is Hermitian, so p
    is real: the transform is one half-spectrum ``hfft`` of the stored
    values.  The mu axis is the ``GeneratorGrid`` of M' points on
    center +/- (h-1)*dmu, so its spacing is dmu to one ulp of its bounds.
    """
    return _finalize_density(gamma.dual_axis, _transform(gamma, gamma.shifted(delta).values))


def _transform(gamma: CoherenceFunction, values: np.ndarray) -> np.ndarray:
    """dtau * sum_tau values(tau) e^{-i tau mu} over the M' lags of ``gamma``, Hermitian ``values`` on tau >= 0.

    The ``hfft`` puts mu = 0 first; its two halves are scaled by dtau
    straight into the one returned array in fftshift's order, negative
    mu (the last h-1 outputs) before the h outputs mu >= 0.
    """
    h, dtau = len(values), gamma.spacing
    raw = scipy.fft.hfft(values, 2 * h - 1)
    out = np.empty_like(raw)
    np.multiply(dtau, raw[h:], out=out[: h - 1])
    np.multiply(dtau, raw[:h], out=out[h - 1 :])
    return out


def statistics_with_derivative(gamma: CoherenceFunction, delta: float = 0.0) -> tuple[OutcomeDistribution, np.ndarray]:
    """p(mu) of ``gamma.shifted(delta)`` and the exact dp/dlambda of ``gamma.shifted(lambda)`` at lambda = delta.

    The shift multiplies Gamma(tau) by e^{i tau lambda}, so dp/dlambda is
    the transform of i*tau*Gamma_delta(tau), Hermitian like Gamma, on the
    same lags and axis; it is divided by the norm p is divided by.
    """
    values = gamma.shifted(delta).values
    raw, d_raw = _transform(gamma, values), _transform(gamma, 1j * gamma.tau_grid * values)
    return _finalize_density(gamma.dual_axis, raw, scaled=(d_raw,)), d_raw


def direct_statistics(
    probe: PureProbe, ruler: RulerSeed, mu_grid: GeneratorGrid
) -> OutcomeDistribution:
    """Brute-force trace route, independent of the coherence transform:

        p(mu) = sum_{g,g'} <g|rho0|g'> <g'|Delta0|g> exp(i (g-g') mu) dg^2

    Reads the dense kernel, so it costs O(n^2) memory; an oracle only.
    """
    if probe.grid != ruler.grid:
        raise GridMismatch("probe and ruler must share a grid")
    psi = probe.amplitudes
    b = np.outer(psi, np.conj(psi)) * ruler.kernel.T
    phases = np.exp(1j * np.outer(probe.grid.points, mu_grid.points))  # e^{i g mu}
    raw = np.sum(phases * (b @ np.conj(phases)), axis=0) * probe.grid.spacing**2
    return _finalize_density(mu_grid, raw)


def coherence_time(gamma: CoherenceFunction) -> float:
    """tau_c = integral dtau |gamma(tau)|^2; each stored lag tau > 0 counts for -tau too."""
    sq = np.abs(gamma.degree()) ** 2
    return float((sq[0] + 2.0 * np.sum(sq[1:])) * gamma.spacing)


def signal_uncertainty(p: OutcomeDistribution) -> float:
    """Inverse-purity width: Delta lambda = 1 / (2 sqrt(pi) integral p^2)."""
    if p.k_grid is not None:
        raise ValueError("signal uncertainty is defined for 1-D densities")
    purity = float(np.sum(p.density**2) * p.cell)
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


def appendix_coherence(probe: PureProbe) -> CoherenceFunction:
    """Probe-only coherence function for the squared generator g^2,

        Gamma2(tau) = integral' dp psi(p) conj(psi(sqrt(p^2+tau))),

    the primed range keeping p^2 + tau >= 0.  No ruler factor is included,
    and the root is the one >= 0, so Gamma2(0) = integral dp psi(p)
    conj(psi(|p|)): the norm 1 only for a probe even in p (a real Gaussian
    centred at 0.7 gives 1.068), not 1/(2*pi).  For g itself the probe-only
    Gamma1 is 2*pi times ``coherence_function`` with the ideal ruler.
    The quadrature takes off-grid amplitudes from one complex cubic spline
    of the sampled probe, clamped to zero outside the grid.  It is evaluated
    and stored on the 1025 lags tau_j = j*dtau >= 0, dtau = max(40 sigma^2,
    16 sigma)/1024 with sigma^2 the probe's variance: Gamma2 is Hermitian,
    Gamma2(-tau) = conj Gamma2(tau), like every coherence function, and the
    raw negative-tau integral would break that symmetry.
    """
    from scipy.interpolate import CubicSpline  # loads scipy.optimize; only this quadrature needs it

    grid = probe.grid
    sigma = math.sqrt(probe.variance())
    dtau = max(40.0 * sigma**2, 16.0 * sigma) / 1024
    p = grid.points
    at = np.sqrt(p[None, :] ** 2 + (np.arange(1025) * dtau)[:, None])  # tau >= 0, so p^2 + tau >= 0 throughout
    shifted = np.nan_to_num(CubicSpline(p, probe.amplitudes, extrapolate=False)(at), nan=0.0)
    vals = np.sum(probe.amplitudes[None, :] * np.conj(shifted), axis=1) * grid.spacing
    vals.flags.writeable = False
    return CoherenceFunction(dtau, vals)

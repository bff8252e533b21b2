"""Concrete measurement scenarios producing lambda-parameterized statistics.

Three families:

* linear shifts of a Gaussian probe read out by a Gaussian ruler (1-D),
* phase shifts on the integer number lattice, periodic on (-pi, pi), of a
  Gaussian read out by a Gaussian ruler or of a truncated geometric-series
  (non-Gaussian) probe under an ideal phase measurement (ruler width 0),
* joint (m, k) momentum readout by squeezed-coherent projections, driven
  either by the quadratic generator p^2 or by a phase-space rotation.

Each ``run_*`` takes a frozen spec dataclass and returns a
:class:`ScenarioRun` whose ``family`` maps a signal value to an outcome
distribution on a fixed grid, whose ``derivative`` adds the exact
dp/dlambda there, and whose ``fisher`` method is the one route from a
run to its Fisher information: exact by default, by finite differences
of ``family`` at a given step (``default_step`` derives one from the
closed-form CRB, at most 1e-3*pi); a spec's ``run()`` calls its
module-level ``run_*`` by name.  The ruler's POVM does not depend on
the signal, so each run builds its measurement once and the signal acts
on the state only: the 1-D runs build Gamma, stored by its lag spacing,
once on its fast transform length, and shift it; the joint runs build
the (m, k) projections once and apply them to the evolved state and its
lambda-derivative, on the state grid dual to the m axis
(``state_grid``), where a readout is one FFT per window; both joint axes
take ``JOINT_POINTS`` points.  ``SCENARIOS`` maps the five runnable kinds
to their spec classes.  A spec's positional fields are its physical
parameters, from which the command line derives its flags, required values
and reported parameters; ``nonlinear``'s ``lambda_pad`` is keyword-only
and is not a flag.  Acceptance builds its runs through the same table.
``phase_distribution_ws`` takes the phase density of a blurred squeezed
vacuum through sg's periodic transform, from a Poisson-kernel Gamma of
lag spacing 1, zero on odd lags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.fft

from .coherence import (
    CoherenceFunction,
    OutcomeDistribution,
    _finalize_density,
    coherence_function,
    statistics_from_coherence,
    statistics_with_derivative,
)
from .errors import ContinuumApproxViolated, GridTooNarrow, NonPositiveSigma
from .fisher import (
    FisherReport,
    closed_form_fn,
    closed_form_fp2,
    closed_form_linear,
    closed_form_phase,
    fisher_from_derivative,
    fisher_from_family,
)
from .grids import MIN_POINTS, SPAN_SIGMAS, GeneratorGrid, grid_for_gaussian, integer_grid
from .ruler import make_gaussian_ruler
from .states import GaussianProbeSpec, PureProbe, SGProbeSpec, make_gaussian_probe, make_sg_probe


@dataclass(frozen=True, eq=False)
class ScenarioRun:
    """A prepared scenario: outcome statistics as a function of the signal, and its closed form at lambda = 0."""

    scenario: str
    family: Callable[[float], OutcomeDistribution]
    derivative: Callable[[float], tuple[OutcomeDistribution, np.ndarray]]  # (p, exact dp/dlambda)
    closed_form: FisherReport
    gamma: CoherenceFunction | None = None

    @property
    def qfi(self) -> float | None:
        """The probe's quantum Fisher information, from the closed form."""
        return self.closed_form.qfi

    @property
    def default_step(self) -> float:
        """A Richardson step for ``fisher``: 1e-3 of the closed-form CRB's root, at most a thousandth of a half-turn."""
        return 1e-3 * min(math.sqrt(self.closed_form.crb), math.pi)

    def fisher(self, lambda0: float = 0.0, step: float | None = None) -> FisherReport:
        """Numerical Fisher information at ``lambda0``: exact from ``derivative``,
        or with a ``step`` by finite differences of ``family`` (``default_step`` suits it)."""
        if step is None:
            return fisher_from_derivative(*self.derivative(lambda0), qfi=self.qfi)
        return fisher_from_family(self.family, lambda0, step, qfi=self.qfi)


# ---------------------------------------------------------------------------
# 1-D scenarios backed by the coherence-function transform
# ---------------------------------------------------------------------------


def _shift_run(scenario: str, probe: PureProbe, width_m: float, closed: FisherReport, center: float = 0.0) -> ScenarioRun:
    """A 1-D run: ``probe``, displaced by ``center``, read out by a Gaussian ruler of width
    ``width_m`` (0: ideal), whose Gamma, stored by its lags tau >= 0, is built once and a
    signal value only shifts; every member sits on the outcome grid ``gamma.dual_axis``
    caches about ``center``, the dual of the M' = 2*len(values) - 1 symmetric lags those
    stand for, and dp/dlambda is the transform of i*tau*Gamma_lambda on the same lags."""
    gamma = coherence_function(probe, make_gaussian_ruler(width_m, probe.grid), center)

    def family(lam: float) -> OutcomeDistribution:
        return statistics_from_coherence(gamma, lam)

    def derivative(lam: float) -> tuple[OutcomeDistribution, np.ndarray]:
        return statistics_with_derivative(gamma, lam)

    return ScenarioRun(scenario, family, derivative, closed, gamma=gamma)


@dataclass(frozen=True)
class LinearScenario:
    """Position shifts: generator P, widths are standard deviations."""

    dx_s: float
    dx_m: float  # 0 means ideal (projective) position readout
    x0: float = 0.0
    p0: float = 0.0

    def __post_init__(self):
        if not self.dx_s > 0:
            raise NonPositiveSigma("dx_s must be > 0")
        if self.dx_m < 0:
            raise NonPositiveSigma("dx_m must be >= 0")

    def run(self) -> ScenarioRun:
        return run_linear(self)


def run_linear(sc: LinearScenario) -> ScenarioRun:
    """p(m|lambda): Gaussian centered at x0 + lambda, variance dx_s^2 + dx_m^2.

    Built in the generator (momentum) eigenbasis: the probe has momentum
    width 1/(2*dx_s), the ruler kernel is exp(-dx_m^2 (p-p')^2 / 2)/(2*pi).
    x0 only translates the law: it is the outcome axis's centre, not a
    phase on the probe (``InvalidGrid`` where the axis's float points
    cannot resolve it).  A signal value multiplies Gamma by e^{i tau lambda}.
    A law wider (SPAN_SIGMAS sigmas) than the axis's half-span raises ``GridTooNarrow``.
    """
    spec = GaussianProbeSpec(center=sc.p0, sigma=1.0 / (2.0 * sc.dx_s))
    closed = closed_form_linear(sc.dx_s, sc.dx_m)
    run = _shift_run("linear", make_gaussian_probe(spec, grid_for_gaussian(spec.center, spec.sigma)), sc.dx_m, closed, sc.x0)
    if not SPAN_SIGMAS * math.hypot(sc.dx_s, sc.dx_m) <= (half := run.gamma.dual_axis.g_max - sc.x0):
        raise GridTooNarrow(f"{SPAN_SIGMAS:g} sigmas of the law leave the outcome axis's half-span {half!r}")
    return run


# smallest pi/sigma_phi for the continuum closed form: the wrapped law's |F*sigma_phi^2 - 1|
# is 4.5e-5 at 5, inside the 1e-4 of the 1-D Fisher checks, 4.3e-4 at 4.5 and 3.6e-6 at 5.5
WRAP_SIGMAS = 5.0


@dataclass(frozen=True)
class PhaseGaussianScenario:
    """Phase shifts of a number-basis Gaussian on its integer number lattice."""

    n_mean: float
    dn_s: float
    dphi_m: float = 0.0  # 0 means ideal phase measurement

    def __post_init__(self):
        if not self.dn_s > 0:
            raise NonPositiveSigma("dn_s must be > 0")
        if self.dphi_m < 0:
            raise NonPositiveSigma("dphi_m must be >= 0")

    def run(self) -> ScenarioRun:
        return run_phase_gaussian(self)


def run_phase_gaussian(sc: PhaseGaussianScenario) -> ScenarioRun:
    """p(phi|lambda) of a number-basis Gaussian, built as ``sg`` is: periodic on (-pi, pi).

    The probe sits on the integers n_mean +/- SPAN_SIGMAS*dn_s (extended up to MIN_POINTS),
    where the ruler's symbol is the Fourier series of the wrapped Gaussian blur.  Gated on
    n_mean >= SPAN_SIGMAS*dn_s (n >= 0) and pi/sigma_phi >= WRAP_SIGMAS, sigma_phi^2 = 1/(4 dn_s^2) + dphi_m^2.
    """
    if not SPAN_SIGMAS * sc.dn_s <= sc.n_mean < math.inf:
        raise ContinuumApproxViolated(f"need {SPAN_SIGMAS:g}*dn_s <= n_mean < inf: a number lattice in n >= 0")
    sigma_phi = math.hypot(0.5 / sc.dn_s, sc.dphi_m)
    if not sigma_phi <= math.pi / WRAP_SIGMAS:
        raise ContinuumApproxViolated(f"phase width {sigma_phi!r} wraps: need pi/sigma_phi >= {WRAP_SIGMAS:g}")
    lo = math.floor(sc.n_mean - SPAN_SIGMAS * sc.dn_s)
    hi = max(math.ceil(sc.n_mean + SPAN_SIGMAS * sc.dn_s), lo + MIN_POINTS - 1)
    probe = make_gaussian_probe(GaussianProbeSpec(sc.n_mean, sc.dn_s), integer_grid(lo, hi))
    closed = closed_form_phase(0.5 / sc.dn_s, sc.dphi_m)
    return _shift_run("phase_gaussian", probe, sc.dphi_m, closed)


# ---------------------------------------------------------------------------
# Non-Gaussian periodic phase scenario
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SGScenario:
    """Ideal phase measurement over the geometric-series probe."""

    xi: complex

    def run(self) -> ScenarioRun:
        return run_phase_sg(self)


def sg_wk_variance(xi: complex) -> float:
    """Closed-form squared signal uncertainty pi*((1-|xi|^2)/(1+|xi|^2))^2."""
    a2 = abs(xi) ** 2
    return math.pi * ((1.0 - a2) / (1.0 + a2)) ** 2


def sg_fisher_variance(xi: complex) -> float:
    """Cramér-Rao variance (1-|xi|^2)^2 / (2|xi|^2) of the same scenario."""
    a2 = abs(xi) ** 2
    if a2 == 0.0:
        return math.inf
    return (1.0 - a2) ** 2 / (2.0 * a2)


def sg_closed_form_density(xi: complex, phi: np.ndarray, lam: float = 0.0) -> np.ndarray:
    """p(phi|lambda) = ((1-|xi|^2)/2pi) / |1 - xi e^{i(phi-lambda)}|^2."""
    a2 = abs(xi) ** 2
    return (1.0 - a2) / (2.0 * np.pi) / np.abs(1.0 - xi * np.exp(1j * (phi - lam))) ** 2


def run_phase_sg(sc: SGScenario) -> ScenarioRun:
    """Periodic phase statistics of the truncated geometric-series probe.

    Gamma is the generic route with the ideal ruler's flat symbol; the
    transform is a Fourier series over integer tau, and outcomes are the
    M' phases phi_k = 2*pi*k/M' on (-pi, pi), where
    M' = 2*len(gamma.values) - 1 >= 2*n_max + 1 is the transform length
    of ``coherence_function`` and n_max = ``sg_n_max(xi)``.
    """
    probe = make_sg_probe(SGProbeSpec(xi=sc.xi))  # first: it refuses |xi| >= 1, where the closed forms fail
    fisher = 1.0 / sg_fisher_variance(sc.xi)  # 1/inf = 0 for the vacuum
    qfi = 2.0 * fisher  # QFI = 4 Var(N) = 2 F here, 0 for the vacuum
    return _shift_run("phase_sg", probe, 0.0, FisherReport(fisher, qfi))


# ---------------------------------------------------------------------------
# Joint (m, k) scenarios: squeezed-coherent projections
# ---------------------------------------------------------------------------


JOINT_POINTS = 256  # points on each joint outcome axis, m and k
MAX_STATE_POINTS = 4096  # largest joint state grid: an 8 MB [k, p] window at k = 256


def state_grid(center: float, half: float, m_grid: GeneratorGrid) -> GeneratorGrid:
    """The state grid over ``center`` +/- ``half`` dual to the m axis: dp*dm = 2*pi/M, M = m_grid.n_points.

    The readout is a Riemann sum over the state grid of a smooth,
    Gaussian-decaying integrand, so its only sampling error is the images
    O(k, m +/- 2*pi/dp) (Poisson summation); 2*pi/dp = M*dm exceeds the
    m span, so every image is off the outcome axis.  The grid takes
    n = max(MIN_POINTS, ceil(2*half/dp) + 1) points; a count above
    MAX_STATE_POINTS, or a NaN or infinite span, raises ``GridTooNarrow``
    before anything is allocated.
    """
    dp = 2.0 * math.pi / (m_grid.n_points * m_grid.spacing)
    cells = 2.0 * half / dp
    if not cells + 1.0 <= MAX_STATE_POINTS:
        raise GridTooNarrow(f"{cells + 1.0:.4g} state points at the m axis's dual spacing {dp!r}, "
                            f"above MAX_STATE_POINTS = {MAX_STATE_POINTS}")
    n = max(MIN_POINTS, math.ceil(cells) + 1)
    return GeneratorGrid(center - 0.5 * (n - 1) * dp, center + 0.5 * (n - 1) * dp, n)


def _joint_family(
    grid: GeneratorGrid,
    vx_m: float,
    m_grid: GeneratorGrid,
    k_grid: GeneratorGrid,
    state: Callable[[float], np.ndarray],
    d_log: Callable[[float], np.ndarray],
) -> tuple[Callable[[float], OutcomeDistribution], Callable[[float], tuple[OutcomeDistribution, np.ndarray]]]:
    """The (m, k) family and derivative of the momentum wavefunctions ``state(lam)`` on ``grid``.

    Both joint kinds read out in momentum: a squeezed-coherent projection
    state is a Gaussian window of width w = 1/(2*sqrt(vx_m)), normalized by
    (w*sqrt(2*pi))^{-1/2} and centered at -k, times e^{ipm}.  On a
    ``state_grid``, dual to the m axis, e^{i p_j m_l} is
    e^{i p_0 m_l} e^{i j dp m_0} e^{2 pi i jl/M}, so the readout
    O = <phi_{m,k}|psi> on [k, m] is a short-time Fourier transform: each
    window row times psi e^{i j dp m_0}, folded modulo M when n > M, and
    one length-M inverse FFT.  The phase e^{i p_0 m_l} is dropped: it
    cancels in |O|^2 and in Re(conj(O) dO).  The window, its norm and dp
    in it, and the twist e^{i j dp m_0} are built once.  A member is
    |O|^2/(2*pi) on [m, k], formed in place.  With
    dpsi/dlambda = psi * ``d_log(lam)``, the derivative reads out dO from
    dpsi the same way, and
    dp/dlambda = 2 Re(conj(O) dO)/(2*pi) = (O.re dO.re + O.im dO.im)/pi,
    one new [k, m] array: dO is dropped before the density is formed.
    """
    width, axis, m = 1.0 / (2.0 * math.sqrt(vx_m)), grid.points, m_grid.n_points
    window = np.add(axis[None, :], k_grid.points[:, None])  # then e^{-(p+k)^2/(4w^2)}, in place
    np.square(window, out=window)
    np.negative(window, out=window)
    window /= 4.0 * width**2
    np.exp(window, out=window)
    window *= grid.spacing / math.sqrt(width * math.sqrt(2.0 * math.pi))
    twist = np.exp(1j * grid.spacing * m_grid.g_min * np.arange(grid.n_points))

    def readout(psi: np.ndarray) -> np.ndarray:
        twisted = psi * twist
        rows = np.zeros((len(window), m), dtype=complex)  # [k, m], zero past n
        np.multiply(window[:, :m], twisted[:m], out=rows[:, : grid.n_points])
        for j in range(m, grid.n_points, m):  # e^{2 pi i jl/M} has period M in j: fold
            rows[:, : grid.n_points - j] += window[:, j : j + m] * twisted[j : j + m]
        return scipy.fft.ifft(rows, norm="forward", overwrite_x=True)  # in rows' place

    def density(overlap: np.ndarray) -> np.ndarray:
        sq = np.abs(overlap.T)
        np.square(sq, out=sq)
        sq /= 2.0 * np.pi
        return sq

    def slope(overlap: np.ndarray, d_overlap: np.ndarray) -> np.ndarray:
        dp = np.multiply(overlap.real, d_overlap.real)
        dp += np.multiply(overlap.imag, d_overlap.imag, out=d_overlap.imag)  # in dO's place
        dp /= np.pi
        return dp.T

    def family(lam: float) -> OutcomeDistribution:
        return _finalize_density(m_grid, density(readout(state(lam))), k_grid=k_grid)

    def derivative(lam: float) -> tuple[OutcomeDistribution, np.ndarray]:
        psi = state(lam)
        overlap = readout(psi)
        dp = slope(overlap, readout(psi * d_log(lam)))
        dist = _finalize_density(m_grid, density(overlap), k_grid=k_grid, scaled=(dp,))
        return dist, dp

    return family, derivative


@dataclass(frozen=True)
class _JointSpec:
    """Fields shared by the joint (m, k) scenarios.

    ``vx_s`` and ``vx_m`` are X-quadrature variances of probe and ruler;
    the conjugate variances follow the minimum-uncertainty link of pure
    uncorrelated Gaussians, vp = 1/(4*vx).  The outcome axes take
    ``JOINT_POINTS`` each; each runner samples its state on the
    ``state_grid`` dual to its m axis, whose count follows from the spans.
    """

    vx_s: float
    vx_m: float
    x0: float = 0.0
    p0: float = 0.0

    def __post_init__(self):
        if not self.vx_s > 0 or not self.vx_m > 0:
            raise NonPositiveSigma("variances must be > 0")


@dataclass(frozen=True)
class NonlinearScenario(_JointSpec):
    """Generator p^2 on a Gaussian probe, squeezed-coherent (m, k) readout."""

    lambda_pad: float = field(default=0.05, kw_only=True)  # largest |lambda| the grids absorb

    def run(self) -> ScenarioRun:
        return run_nonlinear(self)


def run_nonlinear(sc: NonlinearScenario) -> ScenarioRun:
    """Evolve psi_lambda(p) = e^{-i lambda p^2} psi0(p), project on (m, k).

    The evolution is exact (diagonal in momentum); outcome grids cover
    8 effective sigmas of the lambda-evolved state in each axis for
    |lambda| <= ``lambda_pad``, and a member outside that range (a
    Richardson stencil's included) raises ``GridTooNarrow``.  The state
    grid spans 8 sigmas of the probe's momentum about p0, on the
    ``state_grid`` dual to the m axis.
    """
    closed = closed_form_fp2(sc.vx_s, sc.vx_m, sc.p0)
    vp_s = 1.0 / (4.0 * sc.vx_s)
    sigma_p = math.sqrt(vp_s)
    vp_m = 1.0 / (4.0 * sc.vx_m)
    try:  # free-spreading of the x-width under e^{-i lambda p^2}: vx + 4 lambda^2 vp
        m_half = SPAN_SIGMAS * math.sqrt(sc.vx_s + 4.0 * sc.lambda_pad**2 * vp_s + sc.vx_m)
    except OverflowError:
        raise GridTooNarrow(f"lambda_pad={sc.lambda_pad!r}: its square overflows a float") from None
    m_half += 2.0 * sc.lambda_pad * abs(sc.p0)
    k_half = SPAN_SIGMAS * math.sqrt(vp_s + vp_m)
    m_grid = GeneratorGrid(sc.x0 - m_half, sc.x0 + m_half, JOINT_POINTS)
    k_grid = GeneratorGrid(-sc.p0 - k_half, -sc.p0 + k_half, JOINT_POINTS)
    grid = state_grid(sc.p0, SPAN_SIGMAS * sigma_p, m_grid)
    probe = make_gaussian_probe(
        GaussianProbeSpec(center=sc.p0, sigma=sigma_p, conjugate_center=-sc.x0), grid
    )
    p_axis = grid.points
    d_log = -1j * p_axis**2  # d/dlambda of e^{-i lambda p^2}, over itself

    def state(lam: float) -> np.ndarray:
        if abs(lam) > sc.lambda_pad * (1.0 + 1e-9):
            raise GridTooNarrow(f"|lambda|={abs(lam)} exceeds the sized range {sc.lambda_pad}")
        return probe.amplitudes * np.exp(-1j * lam * p_axis**2)

    family, derivative = _joint_family(grid, sc.vx_m, m_grid, k_grid, state, lambda lam: d_log)
    return ScenarioRun("nonlinear", family, derivative, closed)


@dataclass(frozen=True)
class CoherentSqueezedScenario(_JointSpec):
    """Phase rotations of a Gaussian probe centered at (x0, p0), squeezed-coherent (m, k) readout."""

    def run(self) -> ScenarioRun:
        return run_phase_coherent_squeezed(self)


def rotate_gaussian(
    vx: float, x0: float, p0: float, lam: float, x_axis: np.ndarray
) -> np.ndarray:
    """Exact phase-space rotation of a pure uncorrelated Gaussian.

    Rotates means and covariance by angle ``lam`` and reconstructs the
    wavefunction; a rotated pure Gaussian has complex width parameter
    alpha = 1/(4 Vx) - i Cxp/(2 Vx).  The global phase is dropped.
    """
    mean_x, mean_p, vx_l, alpha = _rotated_moments(vx, x0, p0, lam)
    u = x_axis - mean_x
    psi = (2.0 * np.pi * vx_l) ** (-0.25) * np.exp(-alpha * u**2 + 1j * mean_p * u)
    return psi


def _rotated_moments(vx: float, x0: float, p0: float, lam: float) -> tuple[float, float, float, complex]:
    """Means, X variance and width parameter alpha after a rotation by ``lam``."""
    vp = 1.0 / (4.0 * vx)
    c, s = math.cos(lam), math.sin(lam)
    mean_x = c * x0 + s * p0
    mean_p = -s * x0 + c * p0
    vx_l = c * c * vx + s * s * vp
    alpha = 1.0 / (4.0 * vx_l) - 1j * c * s * (vp - vx) / (2.0 * vx_l)
    return mean_x, mean_p, vx_l, alpha


def rotate_gaussian_dlog(
    vx: float, x0: float, p0: float, lam: float, x_axis: np.ndarray
) -> np.ndarray:
    """-i N psi / psi for ``rotate_gaussian``'s psi, N = (x^2 - d^2/dx^2)/2 the rotation's generator.

    With psi'/psi = g = -2 alpha u + i mean_p, psi''/psi = g^2 - 2 alpha,
    as ``nonlinear``'s d log psi is -i p^2.  It is d log psi / d lambda up
    to the rate of the global phase ``rotate_gaussian`` drops, an
    imaginary constant whose share of 2 Re(conj(O) dO) cancels.
    """
    mean_x, mean_p, _, alpha = _rotated_moments(vx, x0, p0, lam)
    g = -2.0 * alpha * (x_axis - mean_x) + 1j * mean_p
    return -0.5j * (x_axis**2 - g * g + 2.0 * alpha)


def run_phase_coherent_squeezed(sc: CoherentSqueezedScenario) -> ScenarioRun:
    """Joint (m, k) statistics of a rotating Gaussian probe.

    The rotation is applied exactly on the Gaussian's means and covariance,
    in momentum like ``nonlinear``; outcome grids are sized to cover the
    whole rotation circle, so the family is valid for any angle.  The
    state grid covers the same circle, on the ``state_grid`` dual to the
    m axis.
    """
    vp_s = 1.0 / (4.0 * sc.vx_s)
    vp_m = 1.0 / (4.0 * sc.vx_m)
    # F_N <= 4 Var(N) term by term for pure Gaussians, so the report accepts it
    fisher = closed_form_fn(sc.vx_s, vp_s, sc.vx_m, vp_m, sc.x0, sc.p0).fisher
    closed = FisherReport(fisher, gaussian_number_qfi(sc.vx_s, vp_s, sc.x0, sc.p0))
    radius = math.hypot(sc.x0, sc.p0)
    sig_max = math.sqrt(max(sc.vx_s, vp_s))
    half_state = SPAN_SIGMAS * sig_max + radius
    m_half = SPAN_SIGMAS * math.sqrt(sig_max**2 + sc.vx_m) + radius
    k_half = SPAN_SIGMAS * math.sqrt(sig_max**2 + vp_m) + radius
    m_grid = GeneratorGrid(-m_half, m_half, JOINT_POINTS)
    k_grid = GeneratorGrid(-k_half, k_half, JOINT_POINTS)
    grid = state_grid(0.0, half_state, m_grid)
    # the Fourier transform is the quarter turn (x, p) -> (p, -x), which
    # commutes with rotations: psi_lam(p) is the position wavefunction of
    # the state with variances swapped and means (p0, -x0), rotated by lam
    turned = (vp_s, sc.p0, -sc.x0)
    family, derivative = _joint_family(
        grid, sc.vx_m, m_grid, k_grid,
        lambda lam: rotate_gaussian(*turned, lam, grid.points),
        lambda lam: rotate_gaussian_dlog(*turned, lam, grid.points),
    )
    return ScenarioRun("phase_coherent_squeezed", family, derivative, closed)


def gaussian_number_qfi(vx: float, vp: float, x0: float, p0: float) -> float:
    """4*Var(N) of a pure Gaussian state: 2(vx^2+vp^2) - 1 + 4(vx x0^2 + vp p0^2)."""
    return 2.0 * (vx**2 + vp**2) - 1.0 + 4.0 * (vx * x0**2 + vp * p0**2)


SCENARIOS = {
    "linear": LinearScenario,
    "phase": PhaseGaussianScenario,
    "sg": SGScenario,
    "nonlinear": NonlinearScenario,
    "phase-cs": CoherentSqueezedScenario,
}


# ---------------------------------------------------------------------------
# Phase-space phase distribution of blurred squeezed vacuum
# ---------------------------------------------------------------------------


PHASE_POINTS = 2049  # M' = 2h-1 phases on (-pi, pi), from h = 1025 integer lags
TAIL_TOL = 1e-16      # largest |r|^((h-1)/2), the last kept Poisson term


@dataclass(frozen=True, eq=False)
class PhaseDistribution:
    gamma: CoherenceFunction  # Gamma(tau) = r^(tau/2)/2pi on even integer tau >= 0, 0 on odd
    dist: OutcomeDistribution  # its transform: the phase density on (-pi, pi)
    delta2_phi0: float       # heuristic width vx*vp/|vx-vp|, inf when vx = vp
    profile_residual: float  # sup-norm gap between samples and the closed profile


def phase_distribution_ws(vx_eff: float, vp_eff: float) -> PhaseDistribution:
    """Polar-angle distribution of a centered Gaussian phase-space function.

    ``vx_eff`` and ``vp_eff`` are blurred variances (probe plus detector).
    The radial integral is a Poisson kernel in 2*phi: with
    s = sqrt(vx_eff/vp_eff), kappa = s^2 - 1 and r = (s-1)/(s+1),

        W(phi) = s / (2*pi*(1 + kappa sin^2 phi)) = sum_n r^|n| e^{2in phi} / (2*pi),

    the periodic transform, as for ``sg``, of Gamma(tau) = r^(tau/2)/(2*pi)
    on even integer tau and 0 on odd tau, over h = 1025 lags tau >= 0
    (M' = PHASE_POINTS phases).  A last kept term |r|^((h-1)/2) above
    TAIL_TOL raises ``GridTooNarrow``.  The heuristic squared width
    vx*vp/|vx - vp| is infinite when vx_eff = vp_eff, where W is uniform.
    """
    if not vx_eff > 0 or not vp_eff > 0:
        raise NonPositiveSigma("effective variances must be > 0")
    h = (PHASE_POINTS + 1) // 2
    s = math.sqrt(vx_eff / vp_eff)
    r = (s - 1.0) / (s + 1.0)
    tail = abs(r) ** ((h - 1) // 2)
    if tail > TAIL_TOL:
        raise GridTooNarrow(f"Poisson tail |r|^{(h - 1) // 2} = {tail:.2e} > {TAIL_TOL} at vx/vp = {s * s!r}")
    vals = np.zeros(h)
    vals[::2] = r ** np.arange((h + 1) // 2) / (2.0 * np.pi)
    vals.flags.writeable = False
    gamma = CoherenceFunction(1.0, vals)
    dist = statistics_from_coherence(gamma)
    profile = s / (2.0 * np.pi) / (1.0 + (s * s - 1.0) * np.sin(dist.mu_grid.points) ** 2)
    residual = float(np.max(np.abs(dist.density - profile)))
    width = math.inf if vx_eff == vp_eff else vx_eff * vp_eff / abs(vx_eff - vp_eff)
    return PhaseDistribution(gamma=gamma, dist=dist, delta2_phi0=width, profile_residual=residual)

"""Concrete measurement scenarios producing lambda-parameterized statistics.

Four families:

* linear shifts of a Gaussian probe read out by a Gaussian ruler (1-D),
* phase shifts of a number-basis Gaussian on the continuum approximation,
* phase shifts of a truncated geometric-series (non-Gaussian) probe under
  an ideal phase measurement, periodic on (-pi, pi),
* joint (m, k) momentum readout by squeezed-coherent projections, driven
  either by the quadratic generator p^2 or by a phase-space rotation.

Each ``run_*`` takes a frozen spec dataclass and returns a
:class:`ScenarioRun` whose ``family`` maps a signal value to an outcome
distribution on a fixed grid, and whose ``fisher`` method is the one
route from a run to its finite-difference Fisher information; a spec's
``run()`` calls its module-level ``run_*`` by name.  The
ruler's POVM does not depend on the signal, so each run builds its
measurement once and the signal acts on the state only: the 1-D runs
build the coherence function Gamma once, on its fast transform length,
and shift it; the joint runs build the (m, k) projections once
and apply them to the evolved state.  ``SCENARIOS`` maps the five
runnable kinds to their spec classes.  A spec's positional fields are its
physical parameters, from which the command line derives its flags,
required values and reported parameters; its grid sizes (and
``lambda_pad``) are keyword-only and are not flags.  Acceptance builds
its runs through the same table.  ``phase_distribution_ws`` takes the
phase density of a blurred squeezed vacuum through sg's periodic
transform, from a Poisson-kernel Gamma on even integer lags.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass, field
from typing import Callable

import numpy as np

from .coherence import (
    CoherenceFunction,
    OutcomeDistribution,
    _finalize_density,
    coherence_function,
    statistics_from_coherence,
)
from .errors import ContinuumApproxViolated, GridTooNarrow, NonPositiveSigma
from .fisher import FisherReport, closed_form_fn, closed_form_fp2, closed_form_linear, closed_form_phase, fisher_from_family
from .grids import SPAN_SIGMAS, GeneratorGrid, grid_for_gaussian
from .ruler import make_gaussian_ruler, make_ideal_ruler
from .states import GaussianProbeSpec, SGProbeSpec, make_gaussian_probe, make_sg_probe


@dataclass(frozen=True, eq=False)
class ScenarioRun:
    """A prepared scenario: outcome statistics as a function of the signal."""

    scenario: str
    family: Callable[[float], OutcomeDistribution]
    closed_form: FisherReport
    default_step: float
    gamma: CoherenceFunction | None = None

    @property
    def qfi(self) -> float | None:
        """The probe's quantum Fisher information, from the closed form."""
        return self.closed_form.qfi

    def fisher(self, lambda0: float = 0.0, step: float | None = None) -> FisherReport:
        """Numerical Fisher information at ``lambda0``; ``step`` defaults to ``default_step``."""
        step = self.default_step if step is None else step
        return fisher_from_family(self.family, lambda0, step, qfi=self.qfi)


def _default_step(crb: float | None) -> float:
    if crb is None or not math.isfinite(crb) or crb <= 0:
        return 1e-4
    return 1e-3 * math.sqrt(crb)


# ---------------------------------------------------------------------------
# 1-D scenarios backed by the coherence-function transform
# ---------------------------------------------------------------------------


def _shift_run(
    scenario: str, gamma: CoherenceFunction, closed: FisherReport, step: float
) -> ScenarioRun:
    """A 1-D run: Gamma, stored by its lags tau >= 0, is built once and a
    signal value only shifts it; the outcome grid is the dual of the
    M' = 2*len(values) - 1 symmetric lags those stand for."""
    def family(lam: float) -> OutcomeDistribution:
        return statistics_from_coherence(gamma.shifted(lam))

    return ScenarioRun(scenario, family, closed, step, gamma=gamma)


def _gaussian_shift_run(
    scenario: str, spec: GaussianProbeSpec, n_points: int, width_m: float, closed: FisherReport
) -> ScenarioRun:
    """A Gaussian probe read out by a Gaussian ruler of width ``width_m``, ideal at 0."""
    grid = grid_for_gaussian(spec.center, spec.sigma, n_points)
    ruler = make_gaussian_ruler(width_m, grid) if width_m > 0 else make_ideal_ruler(grid)
    gamma = coherence_function(make_gaussian_probe(spec, grid), ruler)
    return _shift_run(scenario, gamma, closed, _default_step(closed.crb))


@dataclass(frozen=True)
class LinearScenario:
    """Position shifts: generator P, widths are standard deviations."""

    dx_s: float
    dx_m: float  # 0 means ideal (projective) position readout
    x0: float = 0.0
    p0: float = 0.0
    _: KW_ONLY
    n_points: int = 512

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
    width 1/(2*dx_s) and a linear phase encoding the position center, the
    ruler kernel is exp(-dx_m^2 (p-p')^2 / 2)/(2*pi).  A signal value
    multiplies the coherence function by exp(i*tau*lambda).
    """
    # phase slope -x0 puts the outcome distribution's center at +x0
    spec = GaussianProbeSpec(center=sc.p0, sigma=1.0 / (2.0 * sc.dx_s), conjugate_center=-sc.x0)
    closed = closed_form_linear(sc.dx_s, sc.dx_m)
    return _gaussian_shift_run("linear", spec, sc.n_points, sc.dx_m, closed)


@dataclass(frozen=True)
class PhaseGaussianScenario:
    """Phase shifts of a number-basis Gaussian, continuum approximation."""

    n_mean: float
    dn_s: float
    dphi_m: float = 0.0  # 0 means ideal phase measurement
    _: KW_ONLY
    n_points: int = 1024

    def __post_init__(self):
        if not self.dn_s > 0:
            raise NonPositiveSigma("dn_s must be > 0")
        if self.dphi_m < 0:
            raise NonPositiveSigma("dphi_m must be >= 0")

    def run(self) -> ScenarioRun:
        return run_phase_gaussian(self)


def run_phase_gaussian(sc: PhaseGaussianScenario) -> ScenarioRun:
    """p(phi|lambda) for a bright number-basis Gaussian probe.

    Valid only when the mean excitation is large enough that the discrete
    number spectrum can be treated as a real axis; the gate here is
    n_mean >= 5 * dn_s, otherwise the grid would cross n = 0 with
    non-negligible mass.
    """
    if sc.n_mean < 5.0 * sc.dn_s:
        raise ContinuumApproxViolated(
            f"need n_mean >= 5*dn_s for the continuum approximation, "
            f"got n_mean={sc.n_mean}, dn_s={sc.dn_s}"
        )
    spec = GaussianProbeSpec(center=sc.n_mean, sigma=sc.dn_s)
    closed = closed_form_phase(1.0 / (2.0 * sc.dn_s), sc.dphi_m)
    return _gaussian_shift_run("phase_gaussian", spec, sc.n_points, sc.dphi_m, closed)


# ---------------------------------------------------------------------------
# Non-Gaussian periodic phase scenario
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SGScenario:
    """Ideal phase measurement over the geometric-series probe."""

    xi: complex
    _: KW_ONLY
    n_max: int | None = None

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
    of ``coherence_function``.
    """
    probe = make_sg_probe(SGProbeSpec(xi=sc.xi, n_max=sc.n_max))
    var = sg_fisher_variance(sc.xi)
    fisher = 0.0 if math.isinf(var) else 1.0 / var
    qfi = 2.0 * fisher  # QFI = 4 Var(N) = 2 F here, 0 for the vacuum
    closed = FisherReport(fisher, qfi)
    step = _default_step(min(var, sg_wk_variance(sc.xi)) if math.isfinite(var) else None)
    gamma = coherence_function(probe, make_ideal_ruler(probe.grid))
    return _shift_run("phase_sg", gamma, closed, step)


# ---------------------------------------------------------------------------
# Joint (m, k) scenarios: squeezed-coherent projections
# ---------------------------------------------------------------------------


def _joint_family(
    grid: GeneratorGrid, vx_m: float, m_grid: GeneratorGrid, k_grid: GeneratorGrid, state: Callable[[float], np.ndarray]
) -> Callable[[float], OutcomeDistribution]:
    """The (m, k) family of the momentum wavefunctions ``state(lam)`` on ``grid``.

    Both joint kinds read out in momentum: a squeezed-coherent projection
    state is a Gaussian window of width w = 1/(2*sqrt(vx_m)), normalized by
    (w*sqrt(2*pi))^{-1/2} and centered at -k, times e^{ipm}.  Window, phases
    and scale are built once; a member |<phi_{m,k}|psi>|^2/(2*pi) on [m, k]
    is one real × complex GEMM, window [k, p] @ psi*phases [p, m] read as
    interleaved real and imaginary columns.
    """
    width, axis = 1.0 / (2.0 * math.sqrt(vx_m)), grid.points
    window = np.exp(-((axis[None, :] + k_grid.points[:, None]) ** 2) / (4.0 * width**2))
    phases = np.exp(1j * np.outer(axis, m_grid.points))
    scale = grid.spacing / math.sqrt(width * math.sqrt(2.0 * math.pi))

    def family(lam: float) -> OutcomeDistribution:
        weighted = (state(lam)[:, None] * phases).view(np.float64)  # [p, 2*m]
        overlap = (window @ weighted).view(complex)  # [k, m]
        overlap *= scale
        return _finalize_density(m_grid, np.abs(overlap.T) ** 2 / (2.0 * np.pi), k_grid=k_grid)

    return family


@dataclass(frozen=True)
class _JointSpec:
    """Fields shared by the joint (m, k) scenarios.

    ``vx_s`` and ``vx_m`` are X-quadrature variances of probe and ruler;
    the conjugate variances follow the minimum-uncertainty link of pure
    uncorrelated Gaussians, vp = 1/(4*vx).
    """

    vx_s: float
    vx_m: float
    x0: float = 0.0
    p0: float = 0.0
    _: KW_ONLY
    n_points: int = 1024
    m_points: int = 256
    k_points: int = 256

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
    8 effective sigmas of the lambda-evolved state in each axis.
    """
    closed = closed_form_fp2(sc.vx_s, sc.vx_m, sc.p0)
    step = _default_step(closed.crb)
    pad = max(sc.lambda_pad, 2.0 * step)  # the default stencil reaches lambda = +/- 2*step
    vp_s = 1.0 / (4.0 * sc.vx_s)
    sigma_p = math.sqrt(vp_s)
    vp_m = 1.0 / (4.0 * sc.vx_m)
    grid = grid_for_gaussian(sc.p0, sigma_p, sc.n_points)
    probe = make_gaussian_probe(
        GaussianProbeSpec(center=sc.p0, sigma=sigma_p, conjugate_center=-sc.x0), grid
    )
    # free-spreading of the x-width under e^{-i lambda p^2}: vx + 4 lambda^2 vp
    m_half = SPAN_SIGMAS * math.sqrt(sc.vx_s + 4.0 * pad**2 * vp_s + sc.vx_m)
    m_half += 2.0 * pad * abs(sc.p0)
    k_half = SPAN_SIGMAS * math.sqrt(vp_s + vp_m)
    m_grid = GeneratorGrid(sc.x0 - m_half, sc.x0 + m_half, sc.m_points)
    k_grid = GeneratorGrid(-sc.p0 - k_half, -sc.p0 + k_half, sc.k_points)
    p_axis = grid.points

    def state(lam: float) -> np.ndarray:
        if abs(lam) > pad * (1.0 + 1e-9):
            raise GridTooNarrow(f"|lambda|={abs(lam)} exceeds the sized range {pad}")
        return probe.amplitudes * np.exp(-1j * lam * p_axis**2)

    return ScenarioRun("nonlinear", _joint_family(grid, sc.vx_m, m_grid, k_grid, state), closed, step)


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
    vp = 1.0 / (4.0 * vx)
    c, s = math.cos(lam), math.sin(lam)
    mean_x = c * x0 + s * p0
    mean_p = -s * x0 + c * p0
    vx_l = c * c * vx + s * s * vp
    cxp_l = c * s * (vp - vx)
    alpha = 1.0 / (4.0 * vx_l) - 1j * cxp_l / (2.0 * vx_l)
    u = x_axis - mean_x
    psi = (2.0 * np.pi * vx_l) ** (-0.25) * np.exp(-alpha * u**2 + 1j * mean_p * u)
    return psi


def run_phase_coherent_squeezed(sc: CoherentSqueezedScenario) -> ScenarioRun:
    """Joint (m, k) statistics of a rotating Gaussian probe.

    The rotation is applied exactly on the Gaussian's means and covariance,
    in momentum like ``nonlinear``; outcome grids are sized to cover the
    whole rotation circle, so the family is valid for any angle.
    """
    vp_s = 1.0 / (4.0 * sc.vx_s)
    vp_m = 1.0 / (4.0 * sc.vx_m)
    # F_N <= 4 Var(N) term by term for pure Gaussians, so the report accepts it
    fisher = closed_form_fn(sc.vx_s, vp_s, sc.vx_m, vp_m, sc.x0, sc.p0).fisher
    closed = FisherReport(fisher, gaussian_number_qfi(sc.vx_s, vp_s, sc.x0, sc.p0))
    radius = math.hypot(sc.x0, sc.p0)
    sig_max = math.sqrt(max(sc.vx_s, vp_s))
    half_state = SPAN_SIGMAS * sig_max + radius
    grid = GeneratorGrid(-half_state, half_state, sc.n_points)
    m_half = SPAN_SIGMAS * math.sqrt(sig_max**2 + sc.vx_m) + radius
    k_half = SPAN_SIGMAS * math.sqrt(sig_max**2 + vp_m) + radius
    m_grid = GeneratorGrid(-m_half, m_half, sc.m_points)
    k_grid = GeneratorGrid(-k_half, k_half, sc.k_points)
    # the Fourier transform is the quarter turn (x, p) -> (p, -x), which
    # commutes with rotations: psi_lam(p) is the position wavefunction of
    # the state with variances swapped and means (p0, -x0), rotated by lam
    family = _joint_family(
        grid, sc.vx_m, m_grid, k_grid, lambda lam: rotate_gaussian(vp_s, sc.p0, -sc.x0, lam, grid.points)
    )
    return ScenarioRun("phase_coherent_squeezed", family, closed, _default_step(closed.crb))


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
    tau = np.arange(h, dtype=float)
    vals.flags.writeable = False
    tau.flags.writeable = False
    gamma = CoherenceFunction(tau, vals)
    dist = statistics_from_coherence(gamma)
    profile = s / (2.0 * np.pi) / (1.0 + (s * s - 1.0) * np.sin(dist.mu_grid.points) ** 2)
    residual = float(np.max(np.abs(dist.density - profile)))
    width = math.inf if vx_eff == vp_eff else vx_eff * vp_eff / abs(vx_eff - vp_eff)
    return PhaseDistribution(gamma=gamma, dist=dist, delta2_phi0=width, profile_residual=residual)

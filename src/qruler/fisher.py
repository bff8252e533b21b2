"""Fisher information, Cramér-Rao bounds and per-scenario closed forms.

The numerical route differentiates a lambda-parameterized family of
outcome densities with a 4-point central-difference stencil plus
Richardson extrapolation, then integrates (dp/dlambda)^2 / p over the
outcome axes the members share: ``GeneratorGrid``s, compared by value,
so equal axes mean equal density shapes.  Closed forms for the linear,
phase, rotation and quadratic-generator scenarios are provided alongside
for cross-checking.  Every route returns a :class:`FisherReport`, which
stores F and the quantum bound and derives the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coherence import OutcomeDistribution
from .errors import DegenerateDistribution, GridMismatch, NonPositiveSigma, StepTooLarge
from .states import PureProbe

DENSITY_FLOOR = 1e-12       # relative floor excluding 0/0 quadrature noise
RESIDUAL_GATE = 1e-3        # Richardson residual gate, relative
QFI_SLACK = 1e-6            # numerical headroom on F <= F_Q


@dataclass(frozen=True)
class FisherReport:
    """Fisher information F and, when known, the quantum bound F_Q >= F."""

    fisher: float
    qfi: float | None = None

    def __post_init__(self):
        if self.fisher < 0:
            raise ValueError(f"Fisher information must be >= 0, got {self.fisher}")
        if self.qfi is not None and self.fisher > self.qfi * (1.0 + QFI_SLACK):
            raise ValueError(
                f"Fisher {self.fisher} exceeds quantum bound {self.qfi}"
            )

    @property
    def crb(self) -> float:
        """Cramér-Rao variance bound 1/F; infinite when F = 0."""
        return math.inf if self.fisher == 0 else 1.0 / self.fisher

    @property
    def ratio_to_qfi(self) -> float | None:
        """F / F_Q, or None when the quantum bound is unknown or zero."""
        return self.fisher / self.qfi if self.qfi else None


def fisher_from_family(
    p_family: Callable[[float], OutcomeDistribution],
    lambda0: float,
    step: float,
    qfi: float | None = None,
) -> FisherReport:
    """F = integral (d p/d lambda)^2 / p at lambda0, by finite differences.

    The derivative uses the 4-point stencil at lambda0 +/- step and
    lambda0 +/- 2*step, Richardson-combined to fourth order.  If the
    extrapolation correction changes F by more than 0.1%, or F exceeds
    the quantum bound ``qfi`` by more than ``QFI_SLACK``, the step is
    rejected as too large (or too small, drowned in roundoff).
    """
    if not step > 0:
        raise ValueError("step must be > 0")
    center = p_family(lambda0)
    offsets = {d: p_family(lambda0 + d * step) for d in (-2, -1, 1, 2)}
    for dist in offsets.values():
        if dist.mu_grid != center.mu_grid or dist.k_grid != center.k_grid:
            raise GridMismatch("family members must share an outcome grid")
    d1 = (offsets[1].density - offsets[-1].density) / (2.0 * step)
    d2 = (offsets[2].density - offsets[-2].density) / (4.0 * step)
    dr = (4.0 * d1 - d2) / 3.0
    mask = center.density >= DENSITY_FLOOR * np.max(center.density)
    p0, cell = center.density[mask], center.cell
    f_r = float(np.sum(dr[mask] ** 2 / p0) * cell)
    f_1 = float(np.sum(d1[mask] ** 2 / p0) * cell)
    residual = abs(f_1 - f_r) / max(f_r, 1e-300)
    # below ~1e-12 the family carries no resolvable information and the
    # relative residual is pure noise
    if f_r > 1e-12 and residual > RESIDUAL_GATE:
        raise StepTooLarge(
            f"Richardson residual {residual:.3e} exceeds {RESIDUAL_GATE}"
        )
    if qfi is not None and f_r > qfi * (1.0 + QFI_SLACK):
        raise StepTooLarge(f"Fisher {f_r} exceeds quantum bound {qfi} at step {step}")
    return FisherReport(f_r, qfi)


def qfi_pure(probe: PureProbe, power: str) -> float:
    """Quantum Fisher information 4*Var(G) of a pure probe.

    On a grid of generator eigenvalues g the operator acts by
    multiplication: by g for power="G", by g**2 for power="G2", the
    square of the grid variable.
    """
    if power not in ("G", "G2"):
        raise ValueError("power must be 'G' or 'G2'")
    g = probe.grid.points
    op = g**2 if power == "G2" else g
    w = np.abs(probe.amplitudes) ** 2 * probe.grid.spacing
    m1 = float(np.sum(op * w))
    m2 = float(np.sum(op**2 * w))
    return 4.0 * (m2 - m1 * m1)


def closed_form_linear(dx_s: float, dx_m: float) -> FisherReport:
    """Linear shifts with Gaussian probe/ruler of widths dx_s, dx_m.

    Delta^2 lambda = dx_s^2 + dx_m^2; dx_m = 0 is the ideal measurement,
    where F equals the quantum Fisher information 4*Var(P) = 1/dx_s^2.
    """
    if not dx_s > 0:
        raise NonPositiveSigma("dx_s must be > 0")
    if dx_m < 0:
        raise NonPositiveSigma("dx_m must be >= 0")
    try:
        var, qfi = dx_s**2 + dx_m**2, 1.0 / dx_s**2
    except (OverflowError, ZeroDivisionError):
        raise DegenerateDistribution(f"dx_s={dx_s!r}, dx_m={dx_m!r}: a squared width leaves the float range") from None
    return FisherReport(1.0 / var, qfi)


def closed_form_phase(dphi_s: float, dphi_m: float) -> FisherReport:
    """Phase shifts: the additive law of :func:`closed_form_linear` in phase variables.

    dphi_s is the probe's phase width 1/(2*dn_s) for a number-basis
    Gaussian of width dn_s, so F_Q = 4*Var(N) = 1/dphi_s^2; the ideal
    measurement dphi_m = 0 saturates the quantum bound.
    """
    return closed_form_linear(dphi_s, dphi_m)


def closed_form_fn(
    vx_s: float, vp_s: float, vx_m: float, vp_m: float, x0: float, p0: float
) -> FisherReport:
    """Rotation-generator Fisher information for joint (m, k) readout.

    Arguments are variances (not widths), kept independent so blurred or
    non-minimum-uncertainty combinations can be evaluated:

        F_N = (vx_s - vp_s)^2 / ((vx_s + vx_m)(vp_s + vp_m))
              + x0^2 / (vp_s + vp_m) + p0^2 / (vx_s + vx_m)
    """
    for name, v in (("vx_s", vx_s), ("vp_s", vp_s), ("vx_m", vx_m), ("vp_m", vp_m)):
        if not v > 0:
            raise NonPositiveSigma(f"{name} must be > 0")
    a = vx_s + vx_m
    b = vp_s + vp_m
    try:
        f = (vx_s - vp_s) ** 2 / (a * b) + x0**2 / b + p0**2 / a
    except OverflowError:
        raise DegenerateDistribution(f"vx_s={vx_s!r}, vp_s={vp_s!r}: a square leaves the float range") from None
    return FisherReport(f)


def closed_form_fp2(vx_s: float, vx_m: float, p0: float) -> FisherReport:
    """Quadratic-generator Fisher information for joint (m, k) readout.

    Arguments are X variances; the conjugate variances follow the
    minimum-uncertainty link vp = 1/(4*vx).  With the linear-scenario
    F_P = 1/(vx_s + vx_m),

        F_{P^2} = (vp_s / vp_m) F_P^2 + 4 p0^2 F_P,

    which at p0 = 0 reads (vx_m / vx_s) / (vx_m + vx_s)^2.  The report
    carries the ratio to the probe's quantum Fisher information
    QF = 1/(2*vx_s^2); that ratio is symmetric under swapping probe and
    measurement variances even though F itself is not.
    """
    if not vx_s > 0:
        raise NonPositiveSigma("vx_s must be > 0")
    if not vx_m > 0:
        raise NonPositiveSigma("vx_m must be > 0")
    f_p = 1.0 / (vx_s + vx_m)
    vp_s = 1.0 / (4.0 * vx_s)
    try:
        f = (vx_m / vx_s) * f_p**2 + 4.0 * p0**2 * f_p
        qfi = 8.0 * vp_s**2 + 16.0 * p0**2 * vp_s  # 4*Var(P^2), Gaussian probe
    except OverflowError:
        raise DegenerateDistribution(f"vx_s={vx_s!r}, p0={p0!r}: a square leaves the float range") from None
    return FisherReport(f, qfi)

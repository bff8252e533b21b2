"""Fisher information, Cramér-Rao bounds and per-scenario closed forms.

F = integral (dp/dlambda)^2 / p over the outcome axes has two routes.
``fisher_from_derivative`` takes an exact derivative dp/dlambda, which
every ``ScenarioRun`` supplies: no step, no residual, one evaluation.
``fisher_from_family`` stays as the independent route: it
differentiates a lambda-parameterized family of outcome densities with
a 4-point central-difference stencil plus Richardson extrapolation, on
the outcome axes the members share (``GeneratorGrid``s, compared by
value, so equal axes mean equal density shapes).  Both integrate over
the same cells, p >= DENSITY_FLOOR * max p.  Every route returns a
:class:`FisherReport`, which stores F and the quantum bound, derives the
rest and holds the one quantum-bound gate: an F above
F_Q*(1 + QFI_SLACK) + FISHER_FLOOR raises ``QuantumBoundExceeded``.
Closed forms for the linear, phase, rotation and quadratic-generator
scenarios are provided alongside for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .coherence import OutcomeDistribution
from .errors import DegenerateDistribution, GridMismatch, NonPositiveSigma, QuantumBoundExceeded, StepTooLarge
from .states import PureProbe

DENSITY_FLOOR = 1e-12       # relative floor excluding 0/0 quadrature noise
RESIDUAL_GATE = 1e-3        # Richardson residual gate, relative
QFI_SLACK = 1e-6            # numerical headroom on F <= F_Q, relative
# absolute F below which a family carries no resolvable information: the
# Richardson residual is not gated below it, and F <= F_Q gets it as headroom,
# 1.3e14 times the roundoff F at F_Q = 0 (phase-cs vacuum, lambda0 = 0.37:
# 7.7e-27 by Richardson at the default step, 0 exact)
FISHER_FLOOR = 1e-12


@dataclass(frozen=True)
class FisherReport:
    """Fisher information F and, when known, the quantum bound F_Q >= F."""

    fisher: float
    qfi: float | None = None

    def __post_init__(self):
        if self.qfi is not None and not self.fisher <= self.qfi * (1.0 + QFI_SLACK) + FISHER_FLOOR:
            raise QuantumBoundExceeded(f"Fisher {self.fisher} exceeds quantum bound {self.qfi}")
        if not self.fisher >= 0:
            raise DegenerateDistribution(f"Fisher information must be >= 0, got {self.fisher}")

    @property
    def crb(self) -> float:
        """Cramér-Rao variance bound 1/F; infinite when F = 0."""
        return math.inf if self.fisher == 0 else 1.0 / self.fisher

    @property
    def ratio_to_qfi(self) -> float | None:
        """F / F_Q, or None when the quantum bound is unknown or zero."""
        return self.fisher / self.qfi if self.qfi else None


def fisher_from_derivative(
    dist: OutcomeDistribution, dp: np.ndarray, qfi: float | None = None
) -> FisherReport:
    """F = integral (dp/dlambda)^2 / p from an exact derivative ``dp`` on ``dist``'s axes.

    The cells are those of ``fisher_from_family``.
    """
    mask = dist.density >= DENSITY_FLOOR * np.max(dist.density)
    return FisherReport(_integrate(dp, mask, dist.density[mask], dist.cell), qfi)


def _integrate(dp: np.ndarray, mask: np.ndarray, p0: np.ndarray, cell: float) -> float:
    """sum dp^2 / p over the cells of ``mask``, times the cell; p0 is p on those cells."""
    terms = dp[mask]
    np.square(terms, out=terms)
    terms /= p0
    return float(np.sum(terms) * cell)


def fisher_from_family(
    p_family: Callable[[float], OutcomeDistribution],
    lambda0: float,
    step: float,
    qfi: float | None = None,
) -> FisherReport:
    """F = integral (d p/d lambda)^2 / p at lambda0, by finite differences.

    The derivative uses the 4-point stencil at lambda0 +/- step and
    lambda0 +/- 2*step, Richardson-combined to fourth order.  If the
    extrapolation correction changes F by more than 0.1%, the step is
    rejected as too large (or too small, drowned in roundoff).

    The stencil streams: the central difference d1 of the +/- step
    members, then d2 of the +/- 2*step members, each member dropped once
    its difference is taken, and the Richardson combination is formed in
    d1's array after d1's own F.  So at most the centre, d1, two members
    and their difference are held at once, and the cells' densities p0
    only after the last member.
    """
    if not step > 0:
        raise ValueError("step must be > 0")
    center = p_family(lambda0)

    def difference(d: int) -> np.ndarray:
        """(p(lambda0 + d*step) - p(lambda0 - d*step)) / (2*d*step)."""
        minus, plus = p_family(lambda0 - d * step), p_family(lambda0 + d * step)
        for dist in (minus, plus):
            if dist.mu_grid != center.mu_grid or dist.k_grid != center.k_grid:
                raise GridMismatch("family members must share an outcome grid")
        diff = np.subtract(plus.density, minus.density)
        diff /= 2.0 * d * step
        return diff

    d1, d2 = difference(1), difference(2)
    mask = center.density >= DENSITY_FLOOR * np.max(center.density)
    p0, cell = center.density[mask], center.cell
    f_1 = _integrate(d1, mask, p0, cell)
    dr = d1  # (4*d1 - d2)/3, in d1's array
    dr *= 4.0
    dr -= d2
    dr /= 3.0
    f_r = _integrate(dr, mask, p0, cell)
    residual = abs(f_1 - f_r) / max(f_r, 1e-300)
    # below FISHER_FLOOR the relative residual is pure noise
    if f_r > FISHER_FLOOR and residual > RESIDUAL_GATE:
        raise StepTooLarge(
            f"Richardson residual {residual:.3e} exceeds {RESIDUAL_GATE}"
        )
    return FisherReport(f_r, qfi)


def qfi_pure(probe: PureProbe, power: str) -> float:
    """Quantum Fisher information 4*Var(G) of a pure probe.

    On a grid of generator eigenvalues g the operator acts by
    multiplication: by g**k, k = 1 for power="G" and k = 2 for power="G2",
    so 4*Var(G) = 4*(moment(2k) - moment(k)**2).
    """
    if power not in ("G", "G2"):
        raise ValueError("power must be 'G' or 'G2'")
    k = 2 if power == "G2" else 1
    return 4.0 * (probe.moment(2 * k) - probe.moment(k) ** 2)


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

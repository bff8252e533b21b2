"""Shift-invariant ruler seeds and their legitimacy checks.

A ruler seed is the origin tick of a shift-invariant POVM, with kernel
K(g, g') = K(g - g') in the generator eigenbasis, stored by that symbol
K(tau) on the grid's n offsets tau >= 0, so building one costs O(n).  A
seed is Hermitian by its type, K(-tau) = conj K(tau); ``kernel`` is the
one place that mirror is built.  A legitimate seed is a positive operator
whose diagonal is flat at 1/(2*pi), which is equivalent to the full tick
family resolving the identity.

Positivity is first read from a bound computed in O(n).  Every seed
``make_gaussian_ruler`` builds samples the characteristic function of a
normal law, so each section is a Gram matrix and positive (Bochner-Herglotz;
Gray, Toeplitz and Circulant Matrices: A Review, 2006).  Let t be the symbol
scaled by the grid spacing, t_0 real, and T its section.  Fit the reference
g_k = c e^{iak} e^{r k^2}: c = max(t_0, 0), a = arg t_1, and r <= 0 from the
farthest lag m with |t_m| >= ``FIT_FLOOR`` c, r = log(|t_m|/c)/m^2 (a rate
read at lag 1 is ill-conditioned for a nearly flat symbol).  For any float
c >= 0, a and r <= 0 every section G of g is positive, and a Toeplitz matrix
E = sum_k e_k Z_k, with Z_k the shift by k of norm <= 1, has
||E||_2 <= sum_{|k|<n} |e_k|, so lambda_min(T) >= -sum_{|k|<n} |t_k - g_k|.

That sum is read from the float values as S = sum_{|k|<n} |y_k - w_k|, with
y_k = t_k e^{-iak} (t itself when a = 0) and w_k = c e^{r k^2}, since
|t_k - g_k| = |t_k e^{-iak} - w_k|, so the bound adds a roundoff term R.
With u = eps/2 the unit roundoff: w_k rounds r k^2 by a relative u, which
moves it by u |r| k^2, and the exp and the product add 2u, so it is off by
at most u |w_k| (|r| k^2 + 2); y_k rounds a k, which turns its phase by
u |a| k, and the cos, sin and complex product add under 4u, so it is off by
at most u |t_k| (|a| k + 4).  Each |y_k - w_k| is read to a relative 2u and
the sum of n terms adds (n - 1) u of it, so the exact sum is at most
S (1 + (n + 1) u).  Charging eps for u, which covers the second-order terms
and the rounding of R itself,

    R = eps [(n + 3) S + sum_{|k|<n} (|w_k| (|r| k^2 + 4) + |t_k| (|a| k + 4))],

and lambda_min(T) >= -(S + R).  The Rayleigh quotient of the modulated flat
vector e^{iaj}/sqrt(n), rho = t_0 + (2/n) Re sum_{k>=1} (n - k) t_k e^{-iak},
is at most lambda_max.  The seed is positive when -(S + R) >= -tol * rho, with
tol = ``POSITIVITY_REL_TOL``: stricter than the real form's gate, which
scales tol by lambda_max.  A symbol the bound cannot clear goes to the real
form, which decides as before, so the two routes never disagree.

Otherwise positivity is read from the section's real form.  A Hermitian
Toeplitz section T is centro-Hermitian, J T J = conj T, so one fixed unitary Q
maps it to a real symmetric matrix (Cantoni and Butler 1976; Lee 1980).  With
p = ceil(n/2), q = floor(n/2), A the leading p x p block of T and H the p x p
Hankel H[a, b] = t_{a+b-(n-1)}, Q* T Q is [[Re P, Im P'^T], [Im P', Re D]]
with P = W (A + H) W, P' its first q rows, D = (A - H)[:q, :q] and W the
identity but for 1/sqrt(2) on an odd n's middle row.  One real n x n matrix
serves every symbol: for a real one the coupling Im P' is zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DegenerateDistribution, GridMismatch, NonPositiveSigma
from .grids import GeneratorGrid

FLAT_DIAGONAL = 1.0 / (2.0 * np.pi)
EPS = float(np.finfo(float).eps)

DIAGONAL_TOL = 1e-10
POSITIVITY_REL_TOL = 1e-10  # discretization introduces benign negative noise
FIT_FLOOR = 1e-8  # the reference's rate is read at the farthest lag with |t| >= FIT_FLOOR * t_0
MIN_RATE = -800.0  # the rate when |t_m| = 0 (log gives -inf, and -inf * 0 is NaN): e^{-800 k^2} is 0 for k >= 1


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
    """Legitimacy of a seed; the extremes are of its section scaled by the grid spacing.

    ``positivity_route`` names what decided ``positive``: "gaussian-bound",
    the O(n) certificate, or "real-form", the section's computed extreme
    eigenvalues.  The two lower bounds are computed for every seed, so a
    real-form report also shows how far the certificate was from its gate;
    the eigenvalues are None unless the real form ran.
    """

    flat_diagonal: bool
    diagonal_residual: float
    positive: bool
    positivity_route: str
    min_eigenvalue_lower_bound: float  # -(S + R) of the module docstring
    max_eigenvalue_lower_bound: float  # rho, the modulated flat vector's Rayleigh quotient
    min_eigenvalue: float | None
    max_eigenvalue: float | None

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
    lead = _toeplitz(t[:p])
    hankel = sliding_window_view(np.conj(t[::-1][: 2 * p - 1]), p)  # [a, b] -> t_{a+b-(n-1)}
    plus = lead + hankel
    minus = lead[:q, :q] - hankel[:q, :q]
    if p > q:  # odd n: the middle row and column enter with weight 1/sqrt(2)
        plus[-1, :-1] *= np.sqrt(0.5)
        plus[:-1, -1] *= np.sqrt(0.5)
        plus[-1, -1] *= 0.5
    m = np.empty((n, n))
    m[:p, :p] = plus.real
    m[p:, p:] = minus.real
    m[p:, :p] = plus.imag[:q]
    m[:p, p:] = m[p:, :p].T
    eigvals = np.linalg.eigvalsh(m)
    return float(eigvals[0]), float(eigvals[-1])


def _gaussian_bounds(t: np.ndarray) -> tuple[float, float]:
    """Lower bounds on the smallest and the largest eigenvalue of t's section, from a Gaussian reference in O(n)."""
    n = t.size
    k = np.arange(n, dtype=float)
    k2 = k * k
    c = t[0].real if t[0].real > 0 else 0.0
    mag = np.abs(t)
    far = max(n - 1 - int(np.argmax(mag[::-1] >= FIT_FLOOR * c)), 1)  # any r <= 0 is sound; this one is tight
    ratio = float(mag[far]) / c if c > 0 else 1.0
    rate = min(math.log(ratio) / far**2, 0.0) if ratio > 0 else MIN_RATE
    a = math.atan2(t[1].imag, t[1].real)
    with np.errstate(all="ignore"):  # a lag near the float range overflows to bounds validate_ruler does not certify
        y = t * np.exp(-1j * a * k) if a else t  # |t_k - g_k| = |y_k - c e^{r k^2}|; a = 0 is an exact no-op
        envelope = c * np.exp(rate * k2)
        dist = np.abs(y - envelope)
        ell1 = 2.0 * dist.sum() - dist[0]
        mass = np.dot(envelope, 4.0 - rate * k2) + np.dot(mag, 4.0 + abs(a) * k)
        roundoff = EPS * ((n + 3) * ell1 + 2.0 * mass - 4.0 * (c + mag[0]))
        rho = y[0].real + 2.0 / n * np.dot(n - k[1:], y[1:].real)
    return float(-(ell1 + roundoff)), float(rho)


def validate_ruler(seed: RulerSeed) -> ValidationReport:
    """Check the flat diagonal and positivity of the seed.

    The diagonal, K(0) = 1/(2*pi), is read from the symbol; Im K(0) is the
    one place a symbol on tau >= 0 can break Hermitian symmetry.
    Positivity is of the Toeplitz section scaled by the grid spacing (the
    discretized operator), with Im K(0) dropped as a Hermitian eigensolver
    drops it.  The O(n) Gaussian-reference bound of the module docstring
    certifies it when it can.  Otherwise the extreme eigenvalues come from
    the section's real form, one real n x n matrix built from the symbol
    in O(n^2).  The smallest may be slightly negative from discretization,
    hence the relative tolerance.  A NaN or infinite lag in the scaled
    symbol raises ``DegenerateDistribution`` before either route runs.
    """
    k0 = seed.symbol[0]
    diag_res = float(max(abs(k0.real - FLAT_DIAGONAL), abs(k0.imag)))
    t = seed.symbol * seed.grid.spacing
    if not np.isfinite(t).all():
        raise DegenerateDistribution("the ruler symbol times the grid spacing holds a NaN or infinite lag")
    t[0] = t[0].real
    lo_bound, hi_bound = _gaussian_bounds(t)
    lo = hi = None
    if math.isfinite(hi_bound) and lo_bound >= -POSITIVITY_REL_TOL * max(hi_bound, 0.0):  # else -inf >= -tol * inf
        route, positive = "gaussian-bound", True
    else:
        lo, hi = _section_extremes(t)
        route, positive = "real-form", lo >= -POSITIVITY_REL_TOL * max(hi, 0.0)
    return ValidationReport(
        flat_diagonal=diag_res <= DIAGONAL_TOL,
        diagonal_residual=diag_res,
        positive=positive,
        positivity_route=route,
        min_eigenvalue_lower_bound=lo_bound,
        max_eigenvalue_lower_bound=hi_bound,
        min_eigenvalue=lo,
        max_eigenvalue=hi,
    )

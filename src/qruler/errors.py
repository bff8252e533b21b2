"""Exception hierarchy shared by all qruler modules."""


class DomainError(Exception):
    """Base class for physics/numerics domain violations."""


class InvalidGrid(DomainError):
    """Grid parameters violate the uniform-grid invariants."""


class GridTooNarrow(DomainError):
    """Grid does not cover the required support window."""


class GridMismatch(DomainError):
    """Two objects that must share a grid do not."""


class NonPositiveSigma(DomainError):
    """A width parameter that must be strictly positive is not."""


class XiOutOfDisc(DomainError):
    """Geometric-amplitude parameter with |xi| >= 1."""


class NormalizationFailure(DomainError):
    """Computed density is not an acceptable probability density."""


class DegenerateDistribution(DomainError):
    """Density too flat/degenerate for the requested functional."""


class SignalOutOfRange(DomainError):
    """A signal value that is not finite, or beyond the range of exact shift arithmetic."""


class StepTooLarge(DomainError):
    """Finite-difference step rejected by the extrapolation residual gate."""


class QuantumBoundExceeded(DomainError):
    """A Fisher information above the quantum bound F_Q, by either route."""


class ContinuumApproxViolated(DomainError):
    """Continuous-spectrum approximation not valid for these parameters."""


class NonPositiveBudget(DomainError):
    """Coherence budget constant that is not strictly positive, or whose nonlinear optimum 27*C^2/256 is not a normal float."""


class ConfigError(Exception):
    """Malformed or out-of-range run configuration."""

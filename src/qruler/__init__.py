"""Numerical lab for shift-invariant quantum-ruler measurement models.

Builds probe states and ruler seeds in the generator eigenbasis, relates
their coherence functions to outcome statistics through a discrete
Wiener-Khinchin transform pair, evaluates Fisher-information resolution
bounds for linear, phase and quadratic generators, and optimizes
resolution under a fixed coherence budget.
"""

from .budget import (
    BudgetSweep,
    CoherenceBudget,
    LinearOptimum,
    NonlinearOptimum,
    golden_section,
    optimize_linear,
    optimize_nonlinear,
    sweep_budget,
)
from .coherence import (
    CoherenceFunction,
    GaussianModel,
    OutcomeDistribution,
    appendix_coherence,
    coherence_function,
    coherence_time,
    direct_statistics,
    signal_uncertainty,
    statistics_from_coherence,
    wk_product,
)
from .errors import (
    ConfigError,
    ContinuumApproxViolated,
    DegenerateDistribution,
    DomainError,
    GridMismatch,
    GridTooNarrow,
    InvalidGrid,
    NonPositiveBudget,
    NonPositiveSigma,
    NormalizationFailure,
    NotShiftInvariant,
    StepTooLarge,
    XiOutOfDisc,
)
from .fisher import (
    FisherReport,
    closed_form_fn,
    closed_form_fp2,
    closed_form_linear,
    closed_form_phase,
    fisher_from_family,
    qfi_pure,
)
from .grids import GeneratorGrid, GeneratorKind, grid_for_gaussian, integer_grid
from .ruler import (
    RulerSeed,
    ValidationReport,
    make_gaussian_ruler,
    make_ideal_ruler,
    validate_ruler,
)
from .scenarios import (
    CoherentSqueezedScenario,
    LinearScenario,
    NonlinearScenario,
    PhaseDistribution,
    PhaseGaussianScenario,
    ScenarioRun,
    SGScenario,
    gaussian_number_qfi,
    phase_distribution_ws,
    rotate_by_propagator,
    rotate_gaussian,
    run_linear,
    run_nonlinear,
    run_phase_coherent_squeezed,
    run_phase_gaussian,
    run_phase_sg,
    sg_closed_form_density,
    sg_fisher_variance,
    sg_wk_variance,
)
from .states import (
    GaussianProbeSpec,
    PureProbe,
    SGProbeSpec,
    make_gaussian_probe,
    make_sg_probe,
    sg_n_max,
)

__version__ = "0.1.0"

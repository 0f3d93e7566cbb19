"""Exact distributions, metrics, and robustness sweeps for branching-process
ratio estimation.

The package computes the law of the generation-size ratio Z_n/Z_{n-1} of a
Galton-Watson process exactly (sparse rational atoms, tracked truncation
defects), measures distances between such laws (total variation, Prohorov
via max-flow, bounded-Lipschitz via a sparse LP on HiGHS, with a primal
function and a dual bound), cross-checks them against seeded simulation,
and verifies the analytic inequalities that control how the estimator's law
responds to perturbations of the offspring law.
"""

from .errors import (
    BudgetExceeded,
    CouplingInfeasible,
    DegenerateConditioning,
    GwError,
    InvalidParameter,
    MismatchedLaws,
    NonIntegerSupport,
    SolverDidNotConverge,
    SupercriticalRequired,
)
from .measures import DiscreteMeasure, mean, tv_distance
from .offspring import (
    DEFAULT_TAIL_BUDGET,
    ExtinctionResult,
    FamilySpec,
    OffspringLaw,
    TailBound,
    build,
    criticality,
    extinction_probability,
    extinction_transform,
    iterate_pgf_at_zero,
    pgf,
    pgf_derivative,
    psi1_tail,
    survival_transform,
)
from .engine import (
    JointLaw,
    PowerCache,
    Propagator,
    condition_on_survival,
    extinction_by_n,
    joint_law,
    propagate,
    wlln_probability,
)
from .metrics import (
    Coupling,
    MetricResult,
    bounded_lipschitz,
    joint_tv,
    prohorov,
    strassen_coupling,
    trajectory_tv,
)
from .estimator import EstimatorLaw, consistency_probability, estimator_law
from .montecarlo import SimConfig, SimTable, empirical_estimator_law, simulate_paths
from .lab import (
    CLAIM_IDS,
    ExperimentSpec,
    VerificationReport,
    binary_sweep_spec,
    binned_estimator_law,
    contamination_grid,
    contamination_sweep_spec,
    robustness_modulus,
    run_default_suite,
    verify_conditional_consistency,
    verify_conditional_occupancy,
    verify_decomposition_identity,
    verify_extinction_bound,
    verify_joint_tv_bound,
    verify_mean_continuity,
    verify_wlln,
)

__version__ = "0.1.0"

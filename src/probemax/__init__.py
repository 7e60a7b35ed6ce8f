"""Min-max upper bounds and near-optimal probing sets for adaptive ProbeMax.

Given independent non-negative random variables and a budget of k probes,
this package computes the min-max upper bound U* on the best adaptive
probing policy, constructs fixed probe sets whose threshold stopping
policies come within a factor 2 + eps (general variables) or e/(e-1)
(continuous variables) of that bound, and ships brute-force oracles to
verify every guarantee at desk scale.
"""

from .distributions import (
    DiscreteFinite,
    Distribution,
    Exponential,
    Mixture,
    Uniform,
    point_mass,
)
from .errors import (
    AlphaOutOfRange,
    DegenerateSet,
    GuaranteeViolation,
    IndexOutOfRange,
    InstanceTooLarge,
    InvalidEpsilon,
    InvalidTolerance,
    NotContinuous,
    NotDiscrete,
    ProbemaxError,
    SwapStall,
    ValidationError,
    ZeroTail,
)
from .gap2 import (
    Gap2Result,
    TieClass,
    build_tilde_set,
    gap2_policy,
    narrow_interval,
    select_gap2_set,
    tie_class_at,
)
from .gap_continuous import (
    ContinuousResult,
    PsiSolution,
    build_policy,
    compute_psi_star,
    construct_s_minus_plus,
    derandomize,
    maximize_overlap,
    solve_continuous,
)
from .instance_io import (
    emit_instance,
    gen_instance,
    iid_uniform01,
    parse_instance_file,
    parse_instance_text,
)
from .minmax import (
    BoundResult,
    Instance,
    h_derivative_continuous,
    h_max,
    h_value,
    minimize_hmax,
    rho,
)
from .oracles import adaptive_optimum_dp, static_optimum_enum
from .policy_eval import (
    PolicyStats,
    SimResult,
    ThresholdPolicy,
    evaluate,
    expected_max_exact_discrete,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaOutOfRange",
    "BoundResult",
    "ContinuousResult",
    "DegenerateSet",
    "DiscreteFinite",
    "Distribution",
    "Exponential",
    "Gap2Result",
    "GuaranteeViolation",
    "IndexOutOfRange",
    "Instance",
    "InstanceTooLarge",
    "InvalidEpsilon",
    "InvalidTolerance",
    "Mixture",
    "NotContinuous",
    "NotDiscrete",
    "PolicyStats",
    "ProbemaxError",
    "PsiSolution",
    "SimResult",
    "SwapStall",
    "ThresholdPolicy",
    "TieClass",
    "Uniform",
    "ValidationError",
    "ZeroTail",
    "adaptive_optimum_dp",
    "build_policy",
    "build_tilde_set",
    "compute_psi_star",
    "construct_s_minus_plus",
    "derandomize",
    "emit_instance",
    "evaluate",
    "expected_max_exact_discrete",
    "gap2_policy",
    "gen_instance",
    "h_derivative_continuous",
    "h_max",
    "h_value",
    "iid_uniform01",
    "maximize_overlap",
    "minimize_hmax",
    "narrow_interval",
    "parse_instance_file",
    "parse_instance_text",
    "point_mass",
    "rho",
    "select_gap2_set",
    "simulate",
    "solve_continuous",
    "static_optimum_enum",
    "tie_class_at",
]

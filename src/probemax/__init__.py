"""Min-max upper bounds and near-optimal probing sets for adaptive ProbeMax.

Given independent non-negative random variables and a budget of k probes,
this package computes the min-max upper bound U* on the best adaptive
probing policy, constructs fixed probe sets whose threshold stopping
policies come within a factor 2 + eps (general variables) or e/(e-1)
(continuous variables) of that bound, and ships brute-force oracles to
verify every guarantee at desk scale.

The top level exports the API the README documents; every other name is
importable from its own module.
"""

from .distributions import DiscreteFinite, Exponential, Uniform, point_mass
from .errors import GuaranteeViolation, ProbemaxError, ValidationError
from .gap2 import select_gap2_set
from .gap_continuous import solve_continuous
from .instance_io import emit_instance, gen_instance, parse_instance_file
from .minmax import Instance, minimize_hmax, rho
from .oracles import adaptive_optimum_dp, static_optimum_enum
from .policy_eval import ThresholdPolicy, evaluate, expected_max_exact_discrete, simulate

__version__ = "0.1.0"

__all__ = [
    "Instance",
    "DiscreteFinite",
    "Uniform",
    "Exponential",
    "point_mass",
    "parse_instance_file",
    "emit_instance",
    "gen_instance",
    "minimize_hmax",
    "rho",
    "select_gap2_set",
    "solve_continuous",
    "ThresholdPolicy",
    "evaluate",
    "simulate",
    "adaptive_optimum_dp",
    "static_optimum_enum",
    "expected_max_exact_discrete",
    "ProbemaxError",
    "ValidationError",
    "GuaranteeViolation",
]

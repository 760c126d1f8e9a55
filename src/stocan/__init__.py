"""Budgeted stochastic probing with state-dependent costs and rejections.

The library builds a fractional solution with continuous greedy over a
box-plus-knapsack polytope, rounds it online with randomized small/large
probing policies combined by a fair coin, and ships exhaustive oracles
plus a seeded harness that verifies every guarantee at desk scale.
"""

from .errors import (
    CapacityError,
    StocanError,
    ValidationError,
)
from .extension import (
    FactoredExtension,
    estimate_H,
    sampled_marginals,
)
from .model import (
    Instance,
    LatticeObjective,
    check_lattice_submodular,
    check_monotone,
    instance_from_dict,
    load_instance,
    make_objective,
)
from .optimizer import (
    GreedyConfig,
    continuous_greedy,
    density_greedy,
    split_solution,
)
from .oracle import exhaustive_nonadaptive_value, optimal_policy_value
from .policies import (
    RunRecord,
    exact_policy_value,
    simulate_policy,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "FactoredExtension",
    "GreedyConfig",
    "Instance",
    "LatticeObjective",
    "RunRecord",
    "StocanError",
    "ValidationError",
    "check_lattice_submodular",
    "check_monotone",
    "continuous_greedy",
    "density_greedy",
    "estimate_H",
    "exact_policy_value",
    "exhaustive_nonadaptive_value",
    "instance_from_dict",
    "load_instance",
    "make_objective",
    "optimal_policy_value",
    "sampled_marginals",
    "simulate_policy",
    "split_solution",
]

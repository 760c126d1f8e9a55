"""Budgeted stochastic probing with state-dependent costs and rejections.

The library builds a fractional solution with continuous greedy over a
box-plus-knapsack polytope, rounds it online with randomized small/large
probing policies combined by a fair coin, and ships exhaustive oracles
plus a seeded harness that verifies every guarantee at desk scale.
"""

from .errors import (
    BudgetViolationError,
    CapacityError,
    PreconditionError,
    StocanError,
    ValidationError,
)
from .extension import (
    FactoredExtension,
    estimate_H,
    exact_H_bruteforce,
    sampled_marginals,
)
from .model import (
    Instance,
    LatticeObjective,
    check_lattice_submodular,
    check_monotone,
    draw_realization,
    h_eval,
    instance_from_dict,
    load_instance,
    make_objective,
    save_instance,
)
from .optimizer import (
    GreedyConfig,
    continuous_greedy,
    density_greedy,
    grid_search_lp_value,
    split_solution,
)
from .oracle import OracleResult, exhaustive_nonadaptive_value, optimal_policy_value
from .policies import (
    RunRecord,
    exact_policy_value,
    run_policy,
    simulate_policy,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetViolationError",
    "CapacityError",
    "FactoredExtension",
    "GreedyConfig",
    "Instance",
    "LatticeObjective",
    "OracleResult",
    "PreconditionError",
    "RunRecord",
    "StocanError",
    "ValidationError",
    "check_lattice_submodular",
    "check_monotone",
    "continuous_greedy",
    "density_greedy",
    "draw_realization",
    "estimate_H",
    "exact_H_bruteforce",
    "exact_policy_value",
    "exhaustive_nonadaptive_value",
    "grid_search_lp_value",
    "h_eval",
    "instance_from_dict",
    "load_instance",
    "make_objective",
    "optimal_policy_value",
    "run_policy",
    "sampled_marginals",
    "save_instance",
    "simulate_policy",
    "split_solution",
]

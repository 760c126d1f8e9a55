"""Enumerations that the closed-form paths in ``stocan`` are checked against.

``exact_H_bruteforce`` computes ``H`` by enumerating every subset of
item-state pairs, and is the oracle of ``FactoredExtension``.
``grid_search_lp_value`` enumerates a grid of the box+knapsack polytope,
and is the oracle of ``optimizer.density_greedy``. Both are exponential,
share no code with the paths they check, and serve only as test oracles.
"""

import numpy as np

from stocan.errors import CapacityError
from stocan.extension import check_fractional

BRUTEFORCE_GUARD = 20  # max I*S for subset enumeration
GRID_POINT_GUARD = 4_000_000
_CHUNK = 1 << 14


def exact_H_bruteforce(x: np.ndarray, objective) -> float:
    """Exact H by enumerating every subset of item-state pairs."""
    x = check_fractional(x, objective)
    I, S = x.shape
    E = I * S
    if E > BRUTEFORCE_GUARD:
        raise CapacityError(
            f"I*S = {E} exceeds the 2^{BRUTEFORCE_GUARD} subset guard; "
            "use FactoredExtension or estimate_H"
        )
    flat = x.reshape(-1)
    total = 0.0
    n = 1 << E
    bit_cols = np.arange(E)
    state_vals = np.arange(1, S + 1)
    for start in range(0, n, _CHUNK):
        masks = np.arange(start, min(start + _CHUNK, n), dtype=np.int64)
        bits = (masks[:, None] >> bit_cols) & 1  # (chunk, E)
        probs = np.prod(np.where(bits == 1, flat, 1.0 - flat), axis=1)
        incl = bits.reshape(-1, I, S).astype(bool)
        u = np.max(np.where(incl, state_vals[None, None, :], 0), axis=2)
        total += float(np.dot(objective.value_many(u), probs))
    return total


def grid_search_lp_value(omega: np.ndarray, caps: np.ndarray, costs: np.ndarray,
                         budget: float, resolution: float = 1e-3) -> float:
    """Best objective over the feasible grid of multiples of ``resolution``.

    Independent verification oracle for ``density_greedy``: every
    coordinate is enumerated over ``{0, r, 2r, ...} ∩ [0, cap]``, except
    the coordinate with the largest grid, which admits a closed-form
    best feasible grid value once the others are fixed (the objective is
    linear, so it is maximal at the largest affordable grid point when
    its weight is positive, and at zero otherwise).
    """
    omega = np.asarray(omega, dtype=float).reshape(-1)
    caps = np.asarray(caps, dtype=float).reshape(-1)
    costs = np.asarray(costs, dtype=float).reshape(-1)
    steps = np.floor(caps / resolution + 1e-12).astype(int)  # grid: 0..steps[k] times r
    if len(caps) == 1:
        levels = np.arange(steps[0] + 1) * resolution
        feasible = levels * costs[0] <= budget
        if not np.any(feasible):
            return 0.0
        return float(np.max(omega[0] * levels[feasible], initial=0.0))
    last = int(np.argmax(steps))
    rest = [k for k in range(len(caps)) if k != last]
    points = 1
    for k in rest:
        points *= int(steps[k]) + 1
    if points > GRID_POINT_GUARD:
        raise CapacityError(f"grid enumeration needs {points} points (guard {GRID_POINT_GUARD})")
    axes = [np.arange(steps[k] + 1) * resolution for k in rest]
    mesh = np.meshgrid(*axes, indexing="ij")
    flat = np.stack([m.reshape(-1) for m in mesh], axis=1)  # (points, d-1)
    cost_rest = flat @ costs[rest]
    value_rest = flat @ omega[rest]
    slack = budget - cost_rest
    ok = slack >= 0
    value_rest = np.where(ok, value_rest, -np.inf)
    if omega[last] > 0:
        if costs[last] > 0:
            max_units = np.floor(np.maximum(slack, 0.0) / (costs[last] * resolution) + 1e-12)
            units = np.minimum(max_units, steps[last])
        else:
            units = float(steps[last])
        value_rest = value_rest + np.where(ok, omega[last] * units * resolution, 0.0)
    best = float(np.max(value_rest))
    return max(best, 0.0)

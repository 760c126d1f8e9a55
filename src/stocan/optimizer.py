"""Fractional optimization: the inner LP and the continuous greedy loop.

The inner problem is a box intersected with one knapsack constraint:

    maximize sum omega_is * x_is
    s.t.     0 <= x_is <= cap_is,   sum x_is * c_is <= B.

Density greedy (fill pairs in decreasing omega/cost order) is exactly
optimal for this polytope, so no external LP solver is involved. An
exhaustive grid-search oracle is provided for verification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, ValidationError
from .extension import FactoredExtension, check_fractional, sampled_marginals
from .model import Instance, LatticeObjective, PROB_TOL
from .rng import OPTIMIZER, substream

GRID_POINT_GUARD = 4_000_000


@dataclass(frozen=True)
class GreedyConfig:
    """Continuous-greedy settings: T rounds with step 1/T."""

    rounds: int = 1000
    marginal_mode: str = "exact"
    samples: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.rounds < 1:
            raise ValidationError("rounds", "must be at least 1")
        if self.marginal_mode not in ("exact", "sampled"):
            raise ValidationError("marginals", f"unknown mode {self.marginal_mode!r}")
        if self.samples < 1:
            raise ValidationError("samples", "must be at least 1")


def density_greedy(omega: np.ndarray, caps: np.ndarray, costs: np.ndarray,
                   budget: float) -> np.ndarray:
    """Exact maximizer of a linear objective over box + one knapsack.

    Pairs with nonpositive weight stay at zero; zero-cost profitable
    pairs fill to their caps; the rest fill in decreasing weight/cost
    order (ties broken lexicographically), leaving at most one pair
    fractional below its cap. The inner LP of continuous greedy has the
    state probabilities as caps.
    """
    omega = np.asarray(omega, dtype=float)
    caps = np.asarray(caps, dtype=float)
    costs = np.asarray(costs, dtype=float)
    if omega.shape != caps.shape:
        raise ValidationError("omega", f"expected shape {caps.shape}, got {omega.shape}")
    if not np.all(np.isfinite(omega)):
        raise ValidationError("omega", "weights must be finite")
    x = np.zeros(caps.shape)
    free = (costs == 0) & (omega > 0)
    x[free] = caps[free]
    remaining = float(budget)
    # profitable positive-cost pairs by flat index, in decreasing omega/cost order;
    # the stable sort keeps ties in row-major, that is lexicographic, order
    flat = np.flatnonzero((omega > 0) & (costs > 0))
    flat = flat[np.argsort(-(omega.ravel()[flat] / costs.ravel()[flat]), kind="stable")]
    x_flat, cap_of, cost_of = x.reshape(-1), caps.ravel().tolist(), costs.ravel().tolist()
    for p in flat.tolist():
        if remaining <= 0:
            break
        take = min(cap_of[p], remaining / cost_of[p])
        if take <= 0:
            continue
        x_flat[p] = take
        remaining = max(remaining - take * cost_of[p], 0.0)
    return x


def grid_search_lp_value(omega: np.ndarray, caps: np.ndarray, costs: np.ndarray,
                         budget: float, resolution: float = 1e-3) -> float:
    """Best objective over the feasible grid of multiples of ``resolution``.

    Independent verification oracle for :func:`density_greedy`: every
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


def continuous_greedy(inst: Instance, objective: LatticeObjective,
                      config: GreedyConfig = GreedyConfig(), *,
                      trace: bool = False, evaluator: FactoredExtension | None = None):
    """Build a fractional solution in T rounds of step 1/T.

    Each round weighs every pair by its join marginal at the current
    point, solves the inner LP, and advances with the damped step

        y  <-  y + delta * x_LP * (1 - y)   (elementwise).

    The damping keeps already-likely pairs from being re-bought: the
    join marginal of pair (i, s) equals ``(1 - y_is)`` times the partial
    derivative of H, so each round's gain telescopes into the 1 - 1/e
    guarantee, and a pair pinned at a unit cap follows the closed-form
    recurrence ``y <- y + delta * (1 - y)``. The result is LP-feasible:
    ``y <= p`` entrywise (since ``y_is <= 1 - prod_t(1 - delta x_t) <=
    max_t x_t``) and the fractional cost stays within budget (y is
    dominated by the average of the per-round LP solutions).

    With ``trace=True`` (exact mode only) also returns the exact H value
    after every round, starting with H(0). Exact mode uses ``evaluator``
    when given (it must be built for ``objective``) and builds one otherwise.
    The inner LP's caps are the state probabilities clipped into [0, 1]
    (the loader admits them ``PROB_TOL`` outside), so ``y`` stays in
    [0, 1] and the rounds take exact marginals without re-validating it.
    """
    delta = 1.0 / config.rounds
    y = np.zeros_like(inst.prob)
    caps = np.clip(inst.prob, 0.0, 1.0)
    exact = config.marginal_mode == "exact"
    if exact and evaluator is None:
        evaluator = FactoredExtension(objective)
    if trace and not exact:
        raise ValidationError("trace", "trace requires exact marginals")
    values = [evaluator.H(y)] if trace else None
    if exact:
        check_fractional(y, objective)  # the shape, once
    for t in range(config.rounds):
        if exact:
            omega = evaluator._marginals(y)
        else:
            omega, _ = sampled_marginals(y, objective, config.samples,
                                         substream(config.seed, OPTIMIZER, t))
        x = density_greedy(omega, caps, inst.cost, inst.budget)
        y = y + delta * x * (1.0 - y)
        if trace:
            values.append(evaluator.H(y))
    if trace:
        return y, values
    return y


def split_solution(y: np.ndarray, inst: Instance) -> tuple[np.ndarray, np.ndarray]:
    """Split y by state cost: pairs costing at most B/2 versus the rest.

    The boundary cost exactly B/2 goes to the small part, matching the
    small policy's keep predicate. The two parts sum to y exactly.
    """
    y = np.asarray(y, dtype=float)
    small_mask = inst.cost <= inst.budget / 2
    y_small = np.where(small_mask, y, 0.0)
    y_large = np.where(small_mask, 0.0, y)
    return y_small, y_large


def check_lp_feasible(y: np.ndarray, inst: Instance, tol: float = PROB_TOL) -> None:
    """Raise unless y is inside the LP polytope (within tol)."""
    y = np.asarray(y, dtype=float)
    if y.shape != inst.prob.shape:
        raise ValidationError("y", f"expected shape {inst.prob.shape}, got {y.shape}")
    if np.any(y < -tol):
        raise ValidationError("y", "entries must be nonnegative")
    if np.any(y > inst.prob + tol):
        i, s = np.unravel_index(int(np.argmax(y - inst.prob)), y.shape)
        raise ValidationError("y", f"y[{i},{s}] = {y[i, s]} exceeds cap p = {inst.prob[i, s]}")
    spend = float(np.sum(y * inst.cost))
    if spend > inst.budget + tol:
        raise ValidationError("y", f"fractional cost {spend} exceeds budget {inst.budget}")

"""Fractional optimization: the inner LP and the continuous greedy loop.

The inner problem is a box intersected with one knapsack constraint:

    maximize sum omega_is * x_is
    s.t.     0 <= x_is <= cap_is,   sum x_is * c_is <= B.

Density greedy (fill pairs in decreasing omega/cost order) is exactly
optimal for this polytope, so no external LP solver is involved; the
tests check it against an exhaustive grid search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .extension import FactoredExtension, check_fractional, sampled_marginals
from .model import Instance, LatticeObjective, PROB_TOL, _floats, _int
from .rng import OPTIMIZER, substream


@dataclass(frozen=True)
class GreedyConfig:
    """Continuous-greedy settings: T rounds with step 1/T."""

    rounds: int = 1000
    marginal_mode: str = "exact"
    samples: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if _int(self.rounds, "rounds") < 1:
            raise ValidationError("rounds", "must be at least 1")
        if self.marginal_mode not in ("exact", "sampled"):
            raise ValidationError("marginals", f"unknown mode {self.marginal_mode!r}")
        if _int(self.samples, "samples") < 1:
            raise ValidationError("samples", "must be at least 1")
        if _int(self.seed, "seed") < 0:
            raise ValidationError("seed", "must be nonnegative")


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


def continuous_greedy(inst: Instance, objective: LatticeObjective,
                      config: GreedyConfig = GreedyConfig(), *,
                      evaluator: FactoredExtension | None = None) -> np.ndarray:
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

    Exact mode uses ``evaluator`` when given (it must be built for
    ``objective``) and builds one otherwise. The inner LP's caps are the
    state probabilities clipped into [0, 1] (the loader admits them
    ``PROB_TOL`` outside), so ``y`` stays in [0, 1] and the rounds take
    exact marginals without re-validating it. A pair costing more than
    the budget has cap 0: nothing can select it, so the relaxation still
    bounds the adaptive optimum.
    """
    delta = 1.0 / config.rounds
    y = np.zeros_like(inst.prob)
    caps = np.where(inst.cost <= inst.budget, np.clip(inst.prob, 0.0, 1.0), 0.0)
    exact = config.marginal_mode == "exact"
    if exact:
        if evaluator is None:
            evaluator = FactoredExtension(objective)
        check_fractional(y, objective)  # the shape, once
    for t in range(config.rounds):
        if exact:
            omega = evaluator._marginals(y)
        else:
            omega, _ = sampled_marginals(y, objective, config.samples,
                                         substream(config.seed, OPTIMIZER, t))
        x = density_greedy(omega, caps, inst.cost, inst.budget)
        y = y + delta * x * (1.0 - y)
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


def check_lp_feasible(y: np.ndarray, inst: Instance) -> None:
    """Raise unless y is finite and inside the LP polytope (within ``PROB_TOL``)."""
    y = np.asarray(y, dtype=float)
    if y.shape != inst.prob.shape:
        raise ValidationError("y", f"expected shape {inst.prob.shape}, got {y.shape}")
    _floats(y, "y", 2)  # NaN fails every comparison below
    if np.any(y < -PROB_TOL):
        i, s = np.unravel_index(int(np.argmin(y)), y.shape)
        raise ValidationError(f"y[{i}][{s}]", f"{y[i, s]} is negative")
    if np.any(y > inst.prob + PROB_TOL):
        i, s = np.unravel_index(int(np.argmax(y - inst.prob)), y.shape)
        raise ValidationError(f"y[{i}][{s}]", f"{y[i, s]} exceeds its cap p = {inst.prob[i, s]}")
    spend = float(np.sum(y * inst.cost))
    if spend > inst.budget + PROB_TOL:
        raise ValidationError("y", f"fractional cost {spend} exceeds budget {inst.budget}")

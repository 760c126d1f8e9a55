"""Exact optimal-policy values on tiny instances, by exhaustive search.

The adaptive oracle enumerates every deterministic policy: at each point
it may stop, or probe any unprobed item and then, per observed state,
pick the item (if affordable) or reject it. Probing is free and the
probe order is chosen adaptively, so this is the strongest baseline the
approximation guarantees can be measured against. Probed-but-rejected
items never matter again, which makes the value a function of the
(probed set, selected pairs) state alone and lets memoization collapse
the search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import CapacityError
from .extension import value_table
from .model import Instance, LatticeObjective

ORACLE_MAX_ITEMS = 5
ORACLE_MAX_STATES = 3
NONADAPTIVE_WORK_GUARD = 2_500_000


@dataclass(frozen=True)
class OracleResult:
    value: float
    first_probe: int | None  # None when stopping immediately is optimal


def _guard(inst: Instance) -> None:
    if inst.item_count > ORACLE_MAX_ITEMS or inst.state_count > ORACLE_MAX_STATES:
        raise CapacityError(
            f"oracle handles at most {ORACLE_MAX_ITEMS} items and {ORACLE_MAX_STATES} states "
            f"(got {inst.item_count} x {inst.state_count})"
        )


def optimal_policy_value(inst: Instance, objective: LatticeObjective, *,
                         memoize: bool = True) -> OracleResult:
    """Value of the best deterministic adaptive probing policy.

    ``memoize=False`` re-derives every subtree recursively; it exists so
    the memoized path can be cross-checked on very small instances.
    """
    _guard(inst)
    I, S = inst.item_count, inst.state_count
    budget = inst.budget
    cost = inst.cost
    prob = inst.prob
    values = value_table(objective).reshape((S + 1,) * I)
    memo: dict[tuple, float] = {}

    def spent_of(sel: tuple) -> float:
        # recomputed from scratch so budget checks never accumulate rounding
        return float(sum(cost[i, s - 1] for i, s in enumerate(sel) if s > 0))

    def probe(i: int, probed: int, sel: tuple) -> float:
        """Expected value of probing item ``i`` next, then continuing optimally."""
        remaining = budget - spent_of(sel)
        expected = 0.0
        for s in range(1, S + 1):
            p = prob[i, s - 1]
            if p == 0.0:
                continue
            reject = best(probed | 1 << i, sel)
            if cost[i, s - 1] <= remaining:
                picked = sel[:i] + (s,) + sel[i + 1:]
                expected += p * max(reject, best(probed | 1 << i, picked))
            else:
                expected += p * reject
        return expected

    def best(probed: int, sel: tuple) -> float:
        key = (probed, sel)
        if memoize and key in memo:
            return memo[key]
        value = values[sel]  # stopping is always allowed
        for i in range(I):
            if not probed >> i & 1:
                value = max(value, probe(i, probed, sel))
        if memoize:
            memo[key] = value
        return value

    root = (0,) * I
    value = float(best(0, root))
    first = None
    for i in range(I):
        expected = probe(i, 0, root)
        if expected > values[root] and math.isclose(expected, value, rel_tol=0, abs_tol=1e-12):
            first = i
            break
    return OracleResult(value=value, first_probe=first)


def exhaustive_nonadaptive_value(inst: Instance, objective: LatticeObjective) -> float:
    """Best fixed arrival order with a fixed per-(item, state) accept rule.

    The rule decides, independent of history, whether an observed
    (item, state) is taken when affordable. Evaluation is exact over all
    state realizations. Always a lower bound on the adaptive optimum.
    """
    _guard(inst)
    I, S = inst.item_count, inst.state_count
    work = math.factorial(I) * (2 ** (I * S)) * (S ** I)
    if work > NONADAPTIVE_WORK_GUARD:
        raise CapacityError(
            f"nonadaptive enumeration needs ~{work} evaluations (guard {NONADAPTIVE_WORK_GUARD})"
        )
    budget = inst.budget
    cost = inst.cost
    prob = inst.prob
    values = value_table(objective).reshape((S + 1,) * I)
    realizations = []
    for phi in itertools.product(range(1, S + 1), repeat=I):
        p = 1.0
        for i in range(I):
            p *= prob[i, phi[i] - 1]
        if p > 0.0:
            realizations.append((phi, p))

    best = 0.0
    for order in itertools.permutations(range(I)):
        for rule in range(1 << (I * S)):
            total = 0.0
            for phi, p in realizations:
                spent = 0.0
                sel = [0] * I
                for i in order:
                    s = phi[i]
                    c = cost[i, s - 1]
                    if rule >> (i * S + s - 1) & 1 and spent + c <= budget:
                        sel[i] = s
                        spent += c
                total += p * values[tuple(sel)]
            if total > best:
                best = total
    return float(best)

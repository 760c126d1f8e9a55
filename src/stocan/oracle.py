"""Exact optimal-policy values on small instances.

The adaptive oracle ranges over every deterministic policy: at each point
it may stop, or probe any unprobed item and then, per observed state,
pick the item (if affordable) or reject it. Probing is free and the
probe order is chosen adaptively, so this is the strongest baseline the
approximation guarantees can be measured against. Probed-but-rejected
items never matter again, so the value is a function of each item's
status alone (unprobed, probed and not selected, or selected at a state),
and backward induction fills one value per status vector, ``(S+2)^I`` in
all, level by level from no unprobed item up to all of them.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import CapacityError
from .extension import value_table
from .model import ENUM_GUARD, Instance, LatticeObjective

NONADAPTIVE_WORK_GUARD = 2_500_000


def optimal_policy_value(inst: Instance, objective: LatticeObjective) -> float:
    """Value of the best deterministic adaptive probing policy.

    A status vector has one digit per item: ``S+1`` unprobed, ``0`` probed
    and not selected, ``s`` selected at state ``s``. Its value is the
    larger of stopping, ``f`` of its selection, and probing each unprobed
    item ``i`` in item order, ``sum_s p_is * (max(reject, select) if c_is
    fits else reject)``; both options have one unprobed item fewer. What
    fits is the budget minus the selection's costs, summed from scratch in
    item order, so budget checks never accumulate rounding.
    """
    I, S = inst.item_count, inst.state_count
    n = (S + 2) ** I
    if n > ENUM_GUARD:
        raise CapacityError(f"(S+2)^I = {n} exceeds the enumeration guard {ENUM_GUARD}")
    status = np.indices((S + 2,) * I, dtype=np.min_scalar_type(S + 1)).reshape(I, n)
    unprobed = status == S + 1
    sel = np.where(unprobed, 0, status)
    stop = value_table(objective).take(np.ravel_multi_index(sel, (S + 1,) * I))
    remaining = inst.budget - sum(np.pad(inst.cost[i], (1, 0)).take(sel[i]) for i in range(I))
    weight = (S + 2) ** np.arange(I - 1, -1, -1)  # an item's weight in the rank of a status
    level = unprobed.sum(axis=0)
    values = np.empty(n)
    for k in range(I + 1):
        at = np.flatnonzero(level == k)
        best = stop[at]
        for i in range(I):
            mask = unprobed[i, at]
            rejected = at[mask] - (S + 1) * weight[i]  # item i probed and not selected
            reject, left = values[rejected], remaining[at[mask]]
            expected = np.zeros(rejected.size)
            for s in range(1, S + 1):
                p = inst.prob[i, s - 1]
                if p != 0.0:
                    pick = values[rejected + s * weight[i]]
                    take = (inst.cost[i, s - 1] <= left) & (pick > reject)
                    expected += p * np.where(take, pick, reject)
            best[mask] = np.where(expected > best[mask], expected, best[mask])
        values[at] = best
    return float(values[-1])  # the last level is the root alone, all items unprobed


def exhaustive_nonadaptive_value(inst: Instance, objective: LatticeObjective) -> float:
    """Best fixed arrival order with a fixed per-(item, state) accept rule.

    The rule decides, independent of history, whether an observed
    (item, state) is taken when affordable. Evaluation is exact over all
    state realizations. Always a lower bound on the adaptive optimum.
    """
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

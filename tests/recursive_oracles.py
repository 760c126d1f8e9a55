"""Recursive evaluations that the array passes in ``stocan`` are checked against.

``walk_policy_value`` enumerates every state realization and, per
realization, the tree of accept-coin outcomes along the arrival order.
``search_optimal_policy`` is the memoized search over (probed set,
selection) states. Both are exponential and serve only as test oracles
for ``policies.exact_policy_value`` and ``oracle.optimal_policy_value``.
"""

import itertools

from stocan import policies
from stocan.extension import value_table


def walk_policy_value(kind, inst, objective, y, order="identity"):
    """Exact expected policy value by walking every realization and coin path."""
    probs = policies.acceptance_probabilities(inst, y)
    I, S = inst.item_count, inst.state_count
    order = policies.resolve_order(order, I)
    budget = inst.budget
    half = budget / 2
    values = value_table(objective).reshape((S + 1,) * I)

    def walk(pos, spent, sel, phi, keep_small):
        if pos == I:
            return values[tuple(sel)]
        i = order[pos]
        s = phi[i]
        cost = float(inst.cost[i, s - 1])
        if (cost <= half) != keep_small or spent + cost > budget:
            return walk(pos + 1, spent, sel, phi, keep_small)
        q = float(probs[i, s - 1])
        skip = walk(pos + 1, spent, sel, phi, keep_small)
        if q == 0.0:
            return skip
        sel[i] = s
        take = walk(pos + 1, spent + cost, sel, phi, keep_small)
        sel[i] = 0
        return q * take + (1.0 - q) * skip

    total = 0.0
    for phi in itertools.product(range(1, S + 1), repeat=I):
        p_phi = 1.0
        for i in range(I):
            p_phi *= inst.prob[i, phi[i] - 1]
        if p_phi == 0.0:
            continue
        sel = [0] * I
        if kind == "small":
            v = walk(0, 0.0, sel, phi, True)
        elif kind == "large":
            v = walk(0, 0.0, sel, phi, False)
        else:
            v = 0.5 * walk(0, 0.0, sel, phi, True) + 0.5 * walk(0, 0.0, sel, phi, False)
        total += p_phi * v
    return float(total)


def search_optimal_policy(inst, objective):
    """Best deterministic adaptive probing policy by memoized recursive search."""
    I, S = inst.item_count, inst.state_count
    budget = inst.budget
    cost = inst.cost
    prob = inst.prob
    values = value_table(objective).reshape((S + 1,) * I)
    memo = {}

    def spent_of(sel):
        # recomputed from scratch so budget checks never accumulate rounding
        return float(sum(cost[i, s - 1] for i, s in enumerate(sel) if s > 0))

    def probe(i, probed, sel):
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

    def best(probed, sel):
        key = (probed, sel)
        if key not in memo:
            value = values[sel]  # stopping is always allowed
            for i in range(I):
                if not probed >> i & 1:
                    value = max(value, probe(i, probed, sel))
            memo[key] = value
        return memo[key]

    return float(best(0, (0,) * I))

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stocan import model, optimizer, oracle, policies
from stocan.errors import CapacityError

from conftest import generated, make_instance, modular_objective
from recursive_oracles import search_optimal_policy, walk_policy_value


def brute_knapsack(values, costs, budget):
    """Best value over all item subsets within budget (test-side oracle)."""
    n = len(values)
    best = 0.0
    for mask in range(1 << n):
        c = sum(costs[i] for i in range(n) if mask >> i & 1)
        if c <= budget:
            v = sum(values[i] for i in range(n) if mask >> i & 1)
            best = max(best, v)
    return best


def test_single_item_two_states_hand_value():
    inst = make_instance([[0.5, 0.5]], [[1.0, 2.0]], 1.0)
    f = modular_objective([1.0], 2)
    # state 1 is affordable and worth picking, state 2 never fits the budget
    assert oracle.optimal_policy_value(inst, f) == pytest.approx(0.5, abs=1e-12)
    assert oracle.exhaustive_nonadaptive_value(inst, f) == pytest.approx(0.5, abs=1e-12)


def test_deterministic_states_reduce_to_knapsack():
    probs = [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    costs = [[0.4, 0.5], [0.3, 0.8], [0.1, 0.6]]
    inst = make_instance(probs, costs, 0.9)
    weights = [1.0, 0.7, 1.4]
    f = modular_objective(weights, 2)
    phi = [1, 1, 2]  # the certain realization
    values = [weights[i] * phi[i] for i in range(3)]
    item_costs = [costs[i][phi[i] - 1] for i in range(3)]
    expected = brute_knapsack(values, item_costs, 0.9)
    assert oracle.optimal_policy_value(inst, f) == pytest.approx(expected, abs=1e-12)


def test_slack_budget_collects_every_realization():
    inst, f = generated(201, 3, 2)
    rich = make_instance(inst.prob, inst.cost, float(inst.cost[:, -1].sum()) + 1.0)
    expected = 0.0
    for phi in itertools.product(range(1, 3), repeat=3):
        p = np.prod([rich.prob[i, phi[i] - 1] for i in range(3)])
        expected += p * f.value(list(phi))
    assert oracle.optimal_policy_value(rich, f) == pytest.approx(expected, abs=1e-12)


def test_memoized_matches_pure_recursion():
    # the backward induction against the recursive search in recursive_oracles
    for k in range(6):
        inst, f = generated(210 + k, 1 + k % 3, 2, ["separable_concave", "nested_coverage",
                                                    "concave_over_modular"][k % 3])
        assert oracle.optimal_policy_value(inst, f) == search_optimal_policy(inst, f)


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(model.FAMILIES), items=st.integers(1, 5), states=st.integers(1, 3),
       seed=st.integers(0, 10_000), greedy=st.booleans())
def test_array_passes_match_the_recursions(family, items, states, seed, greedy):
    """The forward pass equals the realization walk and the induction equals the
    memoized search, for every policy kind under the identity and a random order."""
    inst, f = generated(seed, items, states, family)
    rng = np.random.default_rng(seed)
    if greedy:
        y = optimizer.continuous_greedy(inst, f, optimizer.GreedyConfig(rounds=20))
    else:  # a random point of the LP polytope: below the caps, scaled into the budget
        y = inst.prob * rng.random(inst.prob.shape)
        spend = float(np.sum(y * inst.cost))
        if spend > inst.budget:
            y *= inst.budget / spend
    for order in ("identity", rng.permutation(items)):
        for kind in policies.KINDS:
            walked = walk_policy_value(kind, inst, f, y, order=order)
            exact = policies.exact_policy_value(kind, inst, f, y, order=order)
            assert abs(exact - walked) <= 1e-12 * max(1.0, abs(walked)), (kind, order)
    assert oracle.optimal_policy_value(inst, f) == search_optimal_policy(inst, f)


def test_nonadaptive_never_beats_adaptive():
    for k in range(8):
        inst, f = generated(220 + k, 1 + k % 3, 1 + k % 2)
        adaptive = oracle.optimal_policy_value(inst, f)
        nonadaptive = oracle.exhaustive_nonadaptive_value(inst, f)
        assert nonadaptive <= adaptive + 1e-12


def test_single_item_adaptivity_worthless():
    inst, f = generated(230, 1, 2, "concave_over_modular")
    assert oracle.exhaustive_nonadaptive_value(inst, f) == \
        pytest.approx(oracle.optimal_policy_value(inst, f), abs=1e-12)


def test_adaptivity_strictly_helps_on_witness_instance():
    # item 0 is free and reveals whether element 0 is already covered;
    # the budget buys exactly one of the two deterministic coverers
    inst = make_instance(
        [[0.5, 0.5], [1.0, 0.0], [1.0, 0.0]],
        [[0.0, 0.0], [0.5, 0.5], [0.5, 0.5]],
        0.5,
    )
    f = model.make_objective("nested_coverage", {
        "covers": [[[], [0]], [[0], [0]], [[1], [1]]],
        "element_weights": [1.0, 0.8],
    })
    adaptive = oracle.optimal_policy_value(inst, f)
    nonadaptive = oracle.exhaustive_nonadaptive_value(inst, f)
    # by hand: adapt = 0.5*(1.8) + 0.5*(1.0); best fixed rule buys item 2 always
    assert adaptive == pytest.approx(1.4, abs=1e-12)
    assert nonadaptive == pytest.approx(1.3, abs=1e-12)
    assert adaptive > nonadaptive + 1e-6


def test_capacity_guards():
    # 10 items x 2 states: (S+2)^I = 4^10 is past the enumeration guard
    probs = np.full((10, 2), 0.5)
    costs = np.tile([[0.1, 0.2]], (10, 1))
    inst = make_instance(probs, costs, 1.0)
    f = modular_objective([1.0] * 10, 2)
    with pytest.raises(CapacityError, match=r"\(S\+2\)\^I = 1048576"):
        oracle.optimal_policy_value(inst, f)
    inst43, f43 = generated(240, 4, 3)
    with pytest.raises(CapacityError):
        oracle.exhaustive_nonadaptive_value(inst43, f43)


def test_oracle_dominates_policy_values():
    for k in range(5):
        inst, f = generated(250 + k, 2, 2, ["separable_concave", "nested_coverage",
                                            "concave_over_modular"][k % 3])
        y = optimizer.continuous_greedy(inst, f, optimizer.GreedyConfig(rounds=100))
        opt = oracle.optimal_policy_value(inst, f)
        for order in ([0, 1], [1, 0]):
            for kind in policies.KINDS:
                exact = policies.exact_policy_value(kind, inst, f, y, order=order)
                assert exact <= opt + 1e-12

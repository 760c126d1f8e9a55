import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stocan import extension, model, optimizer
from stocan.errors import CapacityError, ValidationError
from stocan.rng import substream

from conftest import generated, make_instance, modular_objective
from enumeration_oracles import grid_search_lp_value


# ---------------------------------------------------------------------------
# inner LP


def test_density_greedy_forced_order():
    # densities 3 and 1: fill the first pair to its cap, spend the rest on the second
    x = optimizer.density_greedy(np.array([[3.0], [1.0]]), np.array([[0.5], [0.5]]),
                                 np.array([[1.0], [1.0]]), 0.6)
    assert np.allclose(x, [[0.5], [0.1]], atol=1e-12)
    assert float(np.sum(np.array([[3.0], [1.0]]) * x)) == pytest.approx(1.6, abs=1e-12)


def inner_lp(omega, inst):
    """The inner LP of continuous greedy: caps are the state probabilities."""
    return optimizer.density_greedy(omega, inst.prob, inst.cost, inst.budget)


def test_lp_ignores_nonpositive_weights():
    inst = make_instance([[0.5, 0.5]], [[0.2, 0.4]], 1.0)
    assert np.all(inner_lp(np.array([[-1.0, 0.0]]), inst) == 0)


def test_lp_zero_cost_pairs_fill_to_cap():
    inst = make_instance([[0.3, 0.7]], [[0.0, 0.5]], 0.1)
    x = inner_lp(np.array([[2.0, 1.0]]), inst)
    assert x[0, 0] == 0.3  # free and profitable
    assert x[0, 1] == pytest.approx(0.2, abs=1e-12)


def test_lp_solution_respects_constraints():
    rng = substream(41, 0)
    for k in range(50):
        inst, _ = generated(800 + k, 2, 2)
        omega = rng.uniform(-0.3, 1.0, size=(2, 2))
        x = inner_lp(omega, inst)
        assert np.all(x >= -1e-15)
        assert np.all(x <= inst.prob + 1e-9)
        assert float(np.sum(x * inst.cost)) <= inst.budget + 1e-9


def test_lp_rejects_nonfinite_weights():
    inst = make_instance([[1.0]], [[0.5]], 1.0)
    with pytest.raises(ValidationError):
        inner_lp(np.array([[np.inf]]), inst)
    with pytest.raises(ValidationError):  # one weight per (item, state) pair
        inner_lp(np.array([[1.0, 1.0]]), inst)


def test_lp_deterministic_tiebreak():
    # equal densities: lexicographically first pair fills first
    caps = np.array([[0.4, 0.4]])
    costs = np.array([[1.0, 1.0]])
    x = optimizer.density_greedy(np.array([[1.0, 1.0]]), caps, costs, 0.5)
    assert x[0, 0] == 0.4 and x[0, 1] == pytest.approx(0.1, abs=1e-15)


def reference_density_greedy(omega, caps, costs, budget):
    """density_greedy by a Python sort of (-omega/cost, pair) keys: its oracle for order and bytes."""
    x = np.zeros_like(caps)
    free = (costs == 0) & (omega > 0)
    x[free] = caps[free]
    remaining = float(budget)
    order = sorted(
        ((i, s) for (i, s) in np.ndindex(omega.shape) if omega[i, s] > 0 and costs[i, s] > 0),
        key=lambda p: (-omega[p] / costs[p], p),
    )
    for p in order:
        if remaining <= 0:
            break
        take = min(caps[p], remaining / costs[p])
        if take <= 0:
            continue
        x[p] = take
        remaining = max(remaining - take * costs[p], 0.0)
    return x


# a few values, so that equal densities (ties) and zero or negative weights are common
_GRID = st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0, 2.0]) | st.floats(-1.0, 3.0)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), items=st.integers(1, 5), states=st.integers(1, 4),
       budget=st.sampled_from([0.0, 0.3, 1.0, 2.5]) | st.floats(0.0, 5.0))
def test_density_greedy_equals_its_sorted_oracle_bit_for_bit(data, items, states, budget):
    size = items * states
    omega, caps, costs = (
        np.array(data.draw(st.lists(values, min_size=size, max_size=size))).reshape(items, states)
        for values in (_GRID, st.sampled_from([0.0, 0.2, 0.5, 1.0]) | st.floats(0.0, 1.0),
                       st.sampled_from([0.0, 0.1, 0.5, 1.0]) | st.floats(0.0, 2.0)))
    with np.errstate(over="ignore"):  # a tiny cost overflows omega/cost to inf on both sides
        got = optimizer.density_greedy(omega, caps, costs, budget)
        want = reference_density_greedy(omega, caps, costs, budget)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def reference_greedy(inst, objective, rounds):
    """continuous_greedy in exact mode with every round's marginals validated."""
    ext = extension.FactoredExtension(objective)
    y = np.zeros_like(inst.prob)
    for _ in range(rounds):
        y = y + (1.0 / rounds) * inner_lp(ext.marginals(y), inst) * (1.0 - y)
    return y


@pytest.mark.parametrize("family", model.FAMILIES)
def test_greedy_rounds_equal_validated_rounds_bit_for_bit(family):
    inst, f = generated(55, 4, 3, family)
    y = optimizer.continuous_greedy(inst, f, optimizer.GreedyConfig(rounds=40))
    assert y.tobytes() == reference_greedy(inst, f, 40).tobytes()


def test_greedy_optimizes_caps_just_outside_the_unit_interval_as_clipped_caps():
    # free, profitable pairs whose caps leave [0, 1] within the loader's tolerance
    costs = [[0.0, 0.0], [0.2, 0.6]]
    edge = make_instance([[1 + 5e-10, -5e-10], [0.5, 0.5]], costs, 1.0)
    clipped = make_instance([[1.0, 0.0], [0.5, 0.5]], costs, 1.0)
    g = modular_objective([1.0, 2.0], 2)
    for rounds in (1, 2, 5):
        y = optimizer.continuous_greedy(edge, g, optimizer.GreedyConfig(rounds=rounds))
        assert np.all((0.0 <= y) & (y <= 1.0)), rounds
        optimizer.check_lp_feasible(y, edge)
        assert y.tobytes() == reference_greedy(clipped, g, rounds).tobytes(), rounds


def test_lp_dominates_grid_oracle():
    rng = substream(43, 0)
    for k in range(30):
        items, states = [(1, 2), (2, 1), (1, 3), (2, 2)][k % 4]
        inst, _ = generated(900 + k, items, states)
        omega = rng.uniform(-0.2, 1.0, size=(items, states))
        value = float(np.sum(omega * inner_lp(omega, inst)))
        if items * states <= 3:
            grid = grid_search_lp_value(omega, inst.prob, inst.cost, inst.budget,
                                        resolution=1e-3)
        else:
            grid = grid_search_lp_value(omega, inst.prob, inst.cost, inst.budget,
                                        resolution=5e-3)
        assert value >= grid - 1e-9
        assert value <= grid + 1e-2  # the grid nearly attains the optimum


def test_grid_oracle_guard():
    with pytest.raises(CapacityError):
        grid_search_lp_value(np.ones((3, 2)), np.full((3, 2), 0.9),
                             np.ones((3, 2)), 1.0, resolution=1e-4)


# ---------------------------------------------------------------------------
# continuous greedy


def test_greedy_closed_form_single_pair(single_item_unit):
    inst, f = single_item_unit
    y = optimizer.continuous_greedy(inst, f, optimizer.GreedyConfig(rounds=1000))
    T, delta = 1000, 1e-3
    assert y[0, 0] == pytest.approx(1 - (1 - delta) ** T, abs=1e-12)
    assert abs(y[0, 0] - (1 - 1 / math.e)) <= 1e-3


def test_greedy_single_round_is_scaled_lp():
    inst, f = generated(51, 2, 2, "separable_concave")
    x = inner_lp(extension.FactoredExtension(f).marginals(np.zeros((2, 2))), inst)
    y = optimizer.continuous_greedy(inst, f, optimizer.GreedyConfig(rounds=1))
    assert np.allclose(y, x, atol=1e-15)  # delta = 1 and (1 - y) = 1 at the origin


def test_greedy_modular_slack_budget_reaches_cap_pattern():
    # every pair profitable and affordable: each coordinate follows the
    # saturation recurrence toward its (unit) cap
    inst = make_instance([[1.0], [1.0], [1.0]], [[0.3], [0.5], [0.2]], 10.0)
    f = modular_objective([1.0, 2.0, 0.5], 1)
    T = 400
    y = optimizer.continuous_greedy(inst, f, optimizer.GreedyConfig(rounds=T))
    r = 1 - (1 - 1 / T) ** T
    assert np.allclose(y, r, atol=1e-12)
    ext = extension.FactoredExtension(f)
    top = f.value([1, 1, 1])
    assert ext.H(y) >= (1 - 1 / math.e) * top - 1e-2


def test_greedy_feasible_for_any_rounds():
    for rounds in (1, 3, 17, 80):
        inst, f = generated(52, 3, 2, "nested_coverage")
        y = optimizer.continuous_greedy(inst, f, optimizer.GreedyConfig(rounds=rounds))
        optimizer.check_lp_feasible(y, inst)


def test_greedy_monotone_progress():
    """The rounds replayed with ``marginals`` and ``density_greedy`` give the greedy's y
    byte for byte, and H never falls from one round to the next."""
    inst, f = generated(53, 2, 2, "concave_over_modular")
    T = 60
    ext = extension.FactoredExtension(f)
    caps = np.where(inst.cost <= inst.budget, np.clip(inst.prob, 0.0, 1.0), 0.0)
    y = np.zeros_like(inst.prob)
    values = [ext.H(y)]
    for _ in range(T):
        x = optimizer.density_greedy(ext.marginals(y), caps, inst.cost, inst.budget)
        y = y + (1.0 / T) * x * (1.0 - y)
        values.append(ext.H(y))
    greedy = optimizer.continuous_greedy(inst, f, optimizer.GreedyConfig(rounds=T))
    assert greedy.tobytes() == y.tobytes()
    assert np.all(np.diff(values) >= -1e-12)
    assert values[-1] > values[0]


def test_greedy_sampled_marginals_run():
    inst, f = generated(54, 2, 2)
    cfg = optimizer.GreedyConfig(rounds=20, marginal_mode="sampled", samples=2000, seed=5)
    y = optimizer.continuous_greedy(inst, f, cfg)
    optimizer.check_lp_feasible(y, inst)
    y2 = optimizer.continuous_greedy(inst, f, cfg)
    assert np.array_equal(y, y2)  # deterministic given seed


def test_greedy_config_validation():
    with pytest.raises(ValidationError):
        optimizer.GreedyConfig(rounds=0)
    with pytest.raises(ValidationError):
        optimizer.GreedyConfig(marginal_mode="psychic")


# ---------------------------------------------------------------------------
# small/large split


def test_split_all_small():
    inst = make_instance([[0.5, 0.5]], [[0.1, 0.2]], 1.0)
    y = np.array([[0.2, 0.3]])
    ys, yl = optimizer.split_solution(y, inst)
    assert np.array_equal(ys, y)
    assert np.all(yl == 0)


def test_split_boundary_goes_small():
    inst = make_instance([[0.5, 0.5]], [[0.5, 0.8]], 1.0)  # first state costs exactly B/2
    ys, yl = optimizer.split_solution(np.array([[0.2, 0.3]]), inst)
    assert ys[0, 0] == 0.2 and yl[0, 0] == 0.0
    assert yl[0, 1] == 0.3 and ys[0, 1] == 0.0


def test_split_parts_sum_exactly_and_superadditive():
    rng = substream(59, 0)
    for k in range(25):
        inst, f = generated(1000 + k, 3, 2, ["separable_concave", "nested_coverage",
                                             "concave_over_modular"][k % 3])
        y = rng.random((3, 2)) * inst.prob
        ys, yl = optimizer.split_solution(y, inst)
        assert np.array_equal(ys + yl, y)
        ext = extension.FactoredExtension(f)
        assert ext.H(ys) + ext.H(yl) >= ext.H(y) - 1e-12

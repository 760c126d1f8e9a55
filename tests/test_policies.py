import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stocan import extension, harness, model, optimizer, policies
from stocan.errors import CapacityError, PreconditionError, ValidationError

from conftest import generated, make_instance, modular_objective


def greedy_y(inst, f, rounds=150):
    return optimizer.continuous_greedy(inst, f, optimizer.GreedyConfig(rounds=rounds))


def plan_spent(kind, inst, f, y, runs, order="identity", seed=0):
    """The kernel's spend per run of the campaign ``simulate_policy`` runs, block after block."""
    probs = policies.acceptance_probabilities(inst, y)
    order = policies._normal_order(order, inst.item_count)
    spent = []
    for block in policies._draw_plan(inst, runs, order == "random", seed):
        view = policies._arrivals(block, order)
        keep_small = view[2] if kind == "stocan" else kind == "small"
        spent.append(policies._kernel(inst, f, probs, view, keep_small, False).spent)
    return np.concatenate(spent)


# ---------------------------------------------------------------------------
# preconditions and orders


def test_order_resolution():
    assert np.array_equal(policies.resolve_order("identity", 3), [0, 1, 2])
    assert np.array_equal(policies.resolve_order([2, 0, 1], 3), [2, 0, 1])
    with pytest.raises(ValidationError):
        policies.resolve_order([0, 0, 1], 3)
    with pytest.raises(ValidationError):
        policies.resolve_order("shuffled", 3)


def test_infeasible_y_raises_precondition_error():
    inst = make_instance([[0.5, 0.5]], [[0.2, 0.4]], 1.0)
    f = modular_objective([1.0], 2)
    too_big = np.array([[0.9, 0.1]])  # exceeds the p cap, accept prob would pass 1/4
    with pytest.raises(PreconditionError):
        policies.run_policy("small", inst, f, too_big, [1], seed=0)
    with pytest.raises(PreconditionError):
        policies.simulate_policy("small", inst, f, too_big, 10, seed=0)


def test_acceptance_probabilities_zero_over_zero():
    inst = make_instance([[1.0, 0.0]], [[0.1, 0.2]], 1.0)
    probs = policies.acceptance_probabilities(inst, np.array([[0.6, 0.0]]))
    assert probs[0, 1] == 0.0
    assert probs[0, 0] == pytest.approx(0.15, abs=1e-15)
    assert np.all(probs <= 0.25 + 1e-9)


# ---------------------------------------------------------------------------
# single-run records


def test_zero_y_selects_nothing():
    inst, f = generated(121, 3, 2, "nested_coverage")
    y = np.zeros((3, 2))
    phi = model.draw_realization(inst, 4)
    rec = policies.run_policy("small", inst, f, y, phi, seed=1)
    assert rec.selected == ()
    assert rec.value == f.value([0, 0, 0])
    assert rec.total_cost == 0.0


def test_record_structure_and_determinism():
    inst, f = generated(122, 3, 2)
    y = greedy_y(inst, f)
    phi = model.draw_realization(inst, 7)
    a = policies.run_policy("stocan", inst, f, y, phi, order=[2, 0, 1], seed=12)
    b = policies.run_policy("stocan", inst, f, y, phi, order=[2, 0, 1], seed=12)
    assert a == b
    assert a.order == (2, 0, 1)
    assert [e[0] for e in a.events] == [2, 0, 1]  # events follow the arrival order
    assert sorted(e[0] for e in a.events) == [0, 1, 2]
    assert a.branch in ("small", "large")
    assert a.total_cost <= inst.budget
    assert a.value == model.h_eval(a.selected, f)
    parsed = json.loads(a.to_json())
    assert set(parsed) == {"kind", "branch", "order", "events", "selected", "total_cost", "value"}


def test_small_policy_never_keeps_large_items():
    inst, f = generated(123, 3, 2)
    y = greedy_y(inst, f)
    for seed in range(40):
        phi = model.draw_realization(inst, seed)
        rec = policies.run_policy("small", inst, f, y, phi, seed=seed)
        for i, s in rec.selected:
            assert inst.cost[i, s - 1] <= inst.budget / 2
        rec_l = policies.run_policy("large", inst, f, y, phi, seed=seed)
        for i, s in rec_l.selected:
            assert inst.cost[i, s - 1] > inst.budget / 2
        assert len(rec_l.selected) <= 1


def test_large_policy_discards_everything_when_all_small():
    inst = make_instance([[0.5, 0.5], [1.0, 0.0]], [[0.1, 0.2], [0.3, 0.3]], 1.0)
    f = modular_objective([1.0, 1.0], 2)
    y = inst.prob * 0.9
    sim = policies.simulate_policy("large", inst, f, y, 2000, seed=5)
    assert np.all(sim.values == f.value([0, 0]))
    assert sim.largest_selection.tolist() == [0, 0]


# ---------------------------------------------------------------------------
# acceptance-frequency concentration


def test_small_accept_frequency_quarter():
    inst = make_instance([[1.0]], [[0.5]], 1.0)  # cost = B/2, kept by the small policy
    f = modular_objective([1.0], 1)
    y = np.array([[1.0]])  # equals the cap, so accept prob is exactly 1/4
    sim = policies.simulate_policy("small", inst, f, y, 100_000, seed=31)
    assert abs(sim.pair_inclusion_frequency(0, 1) - 0.25) <= 0.006


def test_large_accept_frequency_quarter():
    inst = make_instance([[1.0]], [[1.0]], 1.0)  # cost = B, kept by the large policy
    f = modular_objective([1.0], 1)
    y = np.array([[1.0]])
    sim = policies.simulate_policy("large", inst, f, y, 100_000, seed=32)
    assert abs(sim.pair_inclusion_frequency(0, 1) - 0.25) <= 0.006


def test_unbudgeted_small_inclusion_matches_quarter_scaled_y():
    inst, f = generated(124, 3, 2)
    y = greedy_y(inst, f)
    runs = 100_000
    sim = policies.simulate_policy("small", inst, f, y, runs, seed=33, ignore_budget=True)
    for i in range(3):
        for s in (1, 2):
            if inst.cost[i, s - 1] > inst.budget / 2:
                continue
            target = y[i, s - 1] / 4
            stderr = math.sqrt(target * (1 - target) / runs)
            assert abs(sim.pair_inclusion_frequency(i, s) - target) <= 4 * stderr + 1e-12


def test_unbudgeted_value_floors_at_quarter_of_small_H():
    inst, f = generated(125, 3, 2, "concave_over_modular")
    y = greedy_y(inst, f)
    y_small, _ = optimizer.split_solution(y, inst)
    H_small = extension.FactoredExtension(f).H(y_small)
    sim = policies.simulate_policy("small", inst, f, y, 100_000, seed=34, ignore_budget=True)
    assert sim.mean >= H_small / 4 - 4 * sim.stderr


# ---------------------------------------------------------------------------
# the combined policy


def test_branch_frequency_fair():
    inst, f = generated(126, 2, 2)
    y = greedy_y(inst, f)
    sim = policies.simulate_policy("stocan", inst, f, y, 100_000, seed=35)
    freq = float(np.mean(sim.branch_small))
    assert abs(freq - 0.5) <= 0.0064  # four binomial standard errors


def test_stocan_zero_y_gives_base_value():
    inst, f = generated(127, 2, 2, "nested_coverage")
    y = np.zeros((2, 2))
    sim = policies.simulate_policy("stocan", inst, f, y, 500, seed=36)
    assert np.all(sim.values == f.value([0, 0]))


def test_stocan_mean_is_average_of_branches():
    inst, f = generated(128, 3, 2)
    y = greedy_y(inst, f)
    runs = 100_000
    combined = policies.simulate_policy("stocan", inst, f, y, runs, seed=37)
    small = policies.simulate_policy("small", inst, f, y, runs, seed=38)
    large = policies.simulate_policy("large", inst, f, y, runs, seed=39)
    blend = 0.5 * (small.mean + large.mean)
    pooled = math.sqrt(combined.stderr**2 + 0.25 * small.stderr**2 + 0.25 * large.stderr**2)
    assert abs(combined.mean - blend) <= 4 * pooled


# ---------------------------------------------------------------------------
# simulation contracts


def test_single_run_stderr_flagged():
    inst, f = generated(129, 2, 2)
    y = greedy_y(inst, f)
    sim = policies.simulate_policy("stocan", inst, f, y, 1, seed=40)
    assert math.isnan(sim.stderr)
    assert sim.is_single_run


def test_simulation_deterministic_and_paired_states():
    inst, f = generated(130, 3, 2)
    y = greedy_y(inst, f)
    a = policies.simulate_policy("small", inst, f, y, 5000, seed=41)
    b = policies.simulate_policy("small", inst, f, y, 5000, seed=41)
    assert np.array_equal(a.values, b.values)
    # state and coin streams are independent of the policy kind, so the
    # combined policy's small-branch runs replay the small policy exactly
    combined = policies.simulate_policy("stocan", inst, f, y, 5000, seed=41)
    mask = combined.branch_small
    assert np.array_equal(combined.values[mask], a.values[mask])
    small_runs = policies.scalar_runs("small", inst, f, y, 5000, seed=41)
    combined_runs = policies.scalar_runs("stocan", inst, f, y, 5000, seed=41)
    assert [r.selected for r, m in zip(combined_runs, mask) if m] == \
        [r.selected for r, m in zip(small_runs, mask) if m]
    large = policies.simulate_policy("large", inst, f, y, 5000, seed=41)
    assert np.array_equal(combined.values[~mask], large.values[~mask])


def test_symmetric_instance_order_invariant_means():
    # two identical items, symmetric objective: any two fixed orders agree
    inst = make_instance([[0.5, 0.5], [0.5, 0.5]], [[0.2, 0.6], [0.2, 0.6]], 1.0)
    f = modular_objective([1.0, 1.0], 2)
    y = greedy_y(inst, f)
    runs = 100_000
    fwd = policies.simulate_policy("stocan", inst, f, y, runs, order=[0, 1], seed=42)
    rev = policies.simulate_policy("stocan", inst, f, y, runs, order=[1, 0], seed=43)
    pooled = math.sqrt(fwd.stderr**2 + rev.stderr**2)
    assert abs(fwd.mean - rev.mean) <= 4 * pooled


def test_random_order_mode_runs():
    inst, f = generated(131, 3, 2)
    y = greedy_y(inst, f)
    sim = policies.simulate_policy("stocan", inst, f, y, 2000, order="random", seed=44)
    assert sim.budget_violations == 0


def test_hard_feasibility_and_exact_cost_recomputation():
    inst, f = generated(132, 4, 2)
    y = greedy_y(inst, f)
    for kind in policies.KINDS:
        sim = policies.simulate_policy(kind, inst, f, y, 20_000, seed=45)
        assert sim.budget_violations == 0
        assert np.all(plan_spent(kind, inst, f, y, 20_000, seed=45) <= inst.budget)
    records = policies.scalar_runs("stocan", inst, f, y, 200, seed=46)
    for rec in records:
        assert rec.total_cost <= inst.budget
        recomputed = sum(inst.cost[i, s - 1] for i, s in rec.selected)
        assert recomputed == pytest.approx(rec.total_cost, abs=1e-12)


# ---------------------------------------------------------------------------
# exact expectation


def test_exact_policy_value_zero_y():
    inst, f = generated(133, 2, 2, "nested_coverage")
    assert policies.exact_policy_value("stocan", inst, f, np.zeros((2, 2))) == \
        pytest.approx(f.value([0, 0]), abs=1e-15)


def test_exact_policy_value_hand_enumeration():
    # one item, two states (cost B/2 and B), y at the caps: each branch keeps
    # exactly one state and accepts it with probability 1/4
    inst = make_instance([[0.5, 0.5]], [[0.5, 1.0]], 1.0)
    f = modular_objective([1.0], 2)
    y = np.array([[0.5, 0.5]])
    value = policies.exact_policy_value("stocan", inst, f, y)
    assert value == pytest.approx(0.1875, abs=1e-15)
    small = policies.exact_policy_value("small", inst, f, y)
    large = policies.exact_policy_value("large", inst, f, y)
    assert small == pytest.approx(0.125, abs=1e-15)
    assert large == pytest.approx(0.25, abs=1e-15)


def test_exact_policy_degenerate_instance_matches_simulation():
    inst = make_instance([[1.0, 0.0], [0.0, 1.0]], [[0.2, 0.3], [0.4, 0.6]], 1.0)
    f = modular_objective([1.0, 0.5], 2)
    y = np.array([[1.0, 0.0], [0.0, 1.0]]) * inst.prob  # entries in {0, p}
    exact = policies.exact_policy_value("stocan", inst, f, y)
    sim = policies.simulate_policy("stocan", inst, f, y, 100_000, seed=47)
    assert abs(sim.mean - exact) <= 4 * sim.stderr


def test_exact_policy_agrees_with_simulation_random_instances():
    for k in range(6):
        inst, f = generated(1100 + k, 2, 2, ["separable_concave", "nested_coverage",
                                             "concave_over_modular"][k % 3])
        y = greedy_y(inst, f, rounds=80)
        for kind in policies.KINDS:
            exact = policies.exact_policy_value(kind, inst, f, y)
            sim = policies.simulate_policy(kind, inst, f, y, 100_000, seed=48 + k)
            tol = 4 * sim.stderr if sim.stderr > 0 else 1e-12
            assert abs(sim.mean - exact) <= tol, (k, kind)


def test_exact_policy_capacity_guard():
    # 12 items x 3 states: S^I * 2^I is far past the enumeration guard
    probs = np.full((12, 3), 1 / 3)
    costs = np.tile(np.array([[0.1, 0.2, 0.3]]), (12, 1))
    big = make_instance(probs, costs, 1.0)
    fbig = modular_objective([1.0] * 12, 3)
    with pytest.raises(CapacityError):
        policies.exact_policy_value("stocan", big, fbig, np.zeros((12, 3)))


def test_records_jsonl_roundtrip(tmp_path):
    inst, f = generated(135, 2, 2)
    y = greedy_y(inst, f)
    records = policies.scalar_runs("small", inst, f, y, 50, seed=49)
    path = tmp_path / "runs.jsonl"
    assert policies.write_records(path, records) == 50
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 50
    first = json.loads(lines[0])
    assert first["kind"] == "small"
    assert {e["action"] for e in first["events"]} <= {
        policies.DISCARDED, policies.REJECTED, policies.SKIPPED, policies.ACCEPTED
    }


# ---------------------------------------------------------------------------
# one kernel: records, single runs and campaigns agree


@pytest.mark.parametrize("order", ["identity", "random"])
def test_record_depends_only_on_seed_and_run_index(order):
    inst, f = generated(136, 4, 2, "nested_coverage")
    y = greedy_y(inst, f)
    for kind in policies.KINDS:
        short = policies.scalar_runs(kind, inst, f, y, 20, order=order, seed=50)
        long = policies.scalar_runs(kind, inst, f, y, 50, order=order, seed=50)
        assert short == long[:20], kind


def test_run_policy_is_run_zero_of_a_one_run_campaign():
    inst, f = generated(137, 4, 2)
    y = greedy_y(inst, f)
    for kind, order in itertools.product(policies.KINDS, ("identity", "random")):
        for seed in range(20):
            single = policies.run_policy(kind, inst, f, y, model.draw_realization(inst, seed),
                                         order=order, seed=seed)
            record, = policies.scalar_runs(kind, inst, f, y, 1, order=order, seed=seed)
            sim = policies.simulate_policy(kind, inst, f, y, 1, order=order, seed=seed)
            assert single == record, (kind, order, seed)
            spent, = plan_spent(kind, inst, f, y, 1, order, seed)
            assert (single.value, single.total_cost) == (sim.values[0], spent)
            if kind == "stocan":
                assert (single.branch == "small") == sim.branch_small[0]


@pytest.mark.parametrize("family", model.FAMILIES)
def test_records_are_rows_of_the_campaign(family):
    inst, f = generated(138, 5, 2, family)
    y = greedy_y(inst, f)
    for kind in policies.KINDS:
        sim = policies.simulate_policy(kind, inst, f, y, 300, order="random", seed=51)
        records = policies.scalar_runs(kind, inst, f, y, 300, order="random", seed=51)
        for rec in records:
            u = np.zeros(inst.item_count, dtype=np.int64)
            spent = 0.0
            for i, s in rec.selected:
                u[i] = s
                spent += inst.cost[i, s - 1]
            assert rec.value == f.value(u)
            assert rec.total_cost == spent
        assert np.array_equal([r.value for r in records], sim.values)
        assert np.array_equal([r.total_cost for r in records],
                              plan_spent(kind, inst, f, y, 300, "random", 51))


# ---------------------------------------------------------------------------
# one draw plan: chunking and the combined policy as a row selection


@pytest.mark.parametrize("order", ["identity", "random"])
def test_stocan_selection_is_the_branch_kernel_bit_for_bit(order):
    inst, f = generated(139, 5, 2, "nested_coverage")
    y = greedy_y(inst, f)
    probs = policies.acceptance_probabilities(inst, y)
    block = policies._arrivals(next(policies._draw_plan(inst, 3000, order == "random", 52)),
                               policies._normal_order(order, inst.item_count))
    branch = block[2]
    small, large, combined = (policies._kernel(inst, f, probs, block, keep, False)
                              for keep in (True, False, branch))
    chosen = policies._select(branch, small, large)
    for field in ("actions", "spent", "sizes", "values", "counts"):
        a, b = getattr(chosen, field), getattr(combined, field)
        assert a.dtype == b.dtype and a.tobytes() == np.ascontiguousarray(b).tobytes(), field

    # through the public views: stocan beside small and large, and stocan alone
    by_plan = policies.simulate_policies(inst, f, y, 3000,
                                         [(k, False, order) for k in policies.KINDS],
                                         seed=52, records=True)[2]
    alone = policies.simulate_policy("stocan", inst, f, y, 3000, order=order, seed=52)
    for field in ("values", "pair_counts", "branch_small", "largest_selection"):
        assert getattr(by_plan, field).tobytes() == getattr(alone, field).tobytes(), field
    assert by_plan.budget_violations == alone.budget_violations == 0
    assert by_plan.records == policies.scalar_runs("stocan", inst, f, y, 3000, order, seed=52)


def test_nan_spend_counts_as_a_budget_violation():
    sim = policies.PolicySimulation(
        kind="small", runs=2, values=np.zeros(2), pair_counts=np.zeros((1, 2), dtype=np.int64),
        branch_small=None, ignore_budget=True)
    rows = policies._Rows(actions=np.zeros((2, 1), dtype=np.int8), spent=np.array([0.5, math.nan]),
                          sizes=np.zeros(2, dtype=np.int64), values=np.zeros(2),
                          counts=np.zeros((1, 2, 2), dtype=np.int64))
    policies._fold(sim, 0, (None, None, np.array([True, False]), None), rows, budget=1.0)
    assert sim.budget_violations == 1


def test_one_campaign_per_requested_variant_in_request_order(monkeypatch):
    inst, f = generated(140, 3, 2, "nested_coverage")
    y = greedy_y(inst, f)
    variants = [("stocan", False, "identity"), ("small", True, [2, 0, 1]),
                ("stocan", False, (0, 1, 2)), ("large", False, "random"),
                ("stocan", False, "identity")]
    passes = []
    kernel = policies._kernel
    monkeypatch.setattr(policies, "_kernel", lambda *a: passes.append(a) or kernel(*a))
    sims = policies.simulate_policies(inst, f, y, 500, variants, seed=53)
    assert len(passes) == 3  # the three equal stocan variants run once
    assert [(s.kind, s.ignore_budget) for s in sims] == [v[:2] for v in variants]
    assert sims[0] is sims[2] is sims[4]
    monkeypatch.undo()
    for sim, (kind, ignore, order) in zip(sims, variants):
        alone = policies.simulate_policy(kind, inst, f, y, 500, order, 53, ignore_budget=ignore)
        assert sim.values.tobytes() == alone.values.tobytes(), (kind, ignore, order)


@pytest.mark.parametrize("main", ["identity", "random"])
@pytest.mark.parametrize("chunk", [1, 7, 45])
def test_order_variants_equal_lone_campaigns_bit_for_bit(monkeypatch, chunk, main):
    inst, f = generated(141, 3, 2, "nested_coverage")
    y = greedy_y(inst, f)
    runs = 100  # a multiple of neither 7 nor 45
    variants = [("small", False, main), ("large", False, main), ("stocan", False, main),
                ("small", True, main)]
    variants += [("stocan", False, perm) for perm in itertools.permutations(range(3))]
    alone = [policies.simulate_policy(kind, inst, f, y, runs, order, 54, ignore_budget=ignore)
             for kind, ignore, order in variants]
    monkeypatch.setattr(policies, "CHUNK_RUNS", chunk)
    folded = policies.simulate_policies(inst, f, y, runs, variants, seed=54)
    assert len(folded) == len(variants)
    for a, b, variant in zip(folded, alone, variants):
        for field in ("values", "pair_counts", "largest_selection"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), (variant, field)
        assert a.budget_violations == b.budget_violations, variant
        assert (a.branch_small is None) == (b.branch_small is None), variant
        if a.branch_small is not None:
            assert np.array_equal(a.branch_small, b.branch_small), variant


# ---------------------------------------------------------------------------
# the kernel against its oracle


def reference_kernel(inst, objective, probs, block, keep_small, ignore_budget) -> policies._Rows:
    """The policy rule over an ``(n, I)`` order matrix and selection matrix: the kernel's oracle.

    Action codes by nested ``where``, each row's item and state gathered
    by row, run values by ``value_many`` on the selection, sizes and pair
    counts read off it at the end.
    """
    phi, coins, branch_small, orders = block
    orders = np.broadcast_to(np.array(orders), phi.shape)  # a fixed order is a tuple
    n, I = phi.shape
    budget = inst.budget
    cost_of, prob_of = inst.cost.ravel(), probs.ravel()  # by pair index item * S + state - 1
    actions = np.empty((n, I), dtype=np.int8)
    selected = np.zeros((n, I), dtype=np.int64)
    spent = np.zeros(n)
    rows = np.arange(n)
    for t in range(I):
        items = orders[:, t]
        states = phi[rows, items]
        pair = items * inst.state_count + states - 1
        cost = cost_of.take(pair)
        discard = (cost <= budget / 2) != keep_small
        fits = ignore_budget | (spent + cost <= budget)
        accept = ~discard & fits & (coins[:, t] < prob_of.take(pair))
        actions[:, t] = np.where(discard, policies.DISCARD,
                                 np.where(fits, np.where(accept, policies.ACCEPT, policies.REJECT),
                                          policies.SKIP))
        spent += np.where(accept, cost, 0.0)
        selected[rows, items] = np.where(accept, states, 0)
    S1 = inst.state_count + 1
    counts = np.array([np.bincount(col + S1 * branch_small, minlength=2 * S1)
                       for col in selected.T])
    return policies._Rows(actions, spent, np.count_nonzero(selected, axis=1),
                          np.asarray(objective.value_many(selected), dtype=float),
                          counts.reshape(I, 2, S1))


@settings(max_examples=120, deadline=None)
@given(data=st.data(), family=st.sampled_from(model.FAMILIES), items=st.integers(1, 6),
       states=st.integers(1, 3), seed=st.integers(0, 10_000), runs=st.integers(1, 300),
       order=st.sampled_from(["identity", "perm", "random"]),
       keep=st.sampled_from(["small", "large", "coins"]), ignore_budget=st.booleans(),
       with_table=st.booleans(), grid_costs=st.booleans())
def test_kernel_equals_its_oracle_bit_for_bit(data, family, items, states, seed, runs, order, keep,
                                             ignore_budget, with_table, grid_costs):
    payload = harness.generate_instance(items, states, 1.0, family, seed)
    if grid_costs:  # costs on a grid holding 0 and B/2, so ties with the size threshold occur
        for row in payload["items"]:
            row["costs"] = sorted(data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                                                     min_size=states, max_size=states)))
    inst, f = model.instance_from_dict(payload)
    # an LP-feasible y: a random share of each cap, scaled into the budget
    share = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=items * states,
                                        max_size=items * states))).reshape(items, states)
    y = inst.prob * share
    spend = float(np.sum(y * inst.cost))
    if spend > inst.budget:
        y *= inst.budget / spend * (1 - 1e-12)
    probs = policies.acceptance_probabilities(inst, y)
    if order == "perm":
        order = data.draw(st.permutations(range(items)))
    order = policies._normal_order(order, items)
    block = policies._arrivals(next(policies._draw_plan(inst, runs, order == "random", seed)), order)
    keep_small = {"small": True, "large": False, "coins": block[2]}[keep]
    with pytest.MonkeyPatch.context() as mp:
        # without the table, the guard is lowered so that run values come from value_many
        mp.setattr(policies, "ENUM_GUARD", model.ENUM_GUARD if with_table else 0)
        got = policies._kernel(inst, f, probs, block, keep_small, ignore_budget)
    want = reference_kernel(inst, f, probs, block, keep_small, ignore_budget)
    for name in ("actions", "spent", "sizes", "values", "counts"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name

import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stocan import extension, harness, model, optimizer, policies
from stocan.errors import CapacityError, ValidationError

from conftest import generated, make_instance, modular_objective


def greedy_y(inst, f, rounds=150):
    return optimizer.continuous_greedy(inst, f, optimizer.GreedyConfig(rounds=rounds))


def plan_rows(kind, inst, f, y, runs, order="identity", seed=0):
    """The kernel's spend and value per run of the campaign ``simulate_policy`` runs, by block.

    A campaign keeps neither; the kernel gives a run's value when asked
    for action codes, as it does for run records.
    """
    rule = policies._rule(inst, f, policies.acceptance_probabilities(inst, y))
    order = policies.resolve_order(order, inst.item_count)
    spent, values = [], []
    for block in policies._draw_plan(inst, runs, order, seed):
        keep_small = block[2] if kind == "stocan" else kind == "small"
        rows = policies._kernel(rule, block, keep_small, codes=True)
        spent.append(rows.spent)
        values.append(rows.values)
    return np.concatenate(spent), np.concatenate(values)


def statistics(sim):
    """A campaign's mean and stderr as bytes (equal iff bit for bit), and its two integers."""
    return (np.float64(sim.mean).tobytes(), np.float64(sim.stderr).tobytes(),
            sim.budget_violations, sim.largest_large)


def value_statistics(values):
    """The mean and stderr a campaign reports for run ``values``, by ``np.mean`` and ``np.std``."""
    stderr = np.std(values, ddof=1) / math.sqrt(len(values)) if len(values) > 1 else math.nan
    return np.float64(np.mean(values)).tobytes(), np.float64(stderr).tobytes()


# ---------------------------------------------------------------------------
# preconditions and orders


def test_order_resolution():
    assert policies.resolve_order("identity", 3) == (0, 1, 2)
    assert policies.resolve_order([2, 0, 1], 3) == (2, 0, 1)
    assert policies.resolve_order(np.array([2, 0, 1]), 3) == (2, 0, 1)
    assert policies.resolve_order("random", 3) == "random"
    with pytest.raises(ValidationError):
        policies.resolve_order([0, 0, 1], 3)
    with pytest.raises(ValidationError):
        policies.resolve_order("shuffled", 3)
    inst = make_instance([[0.5, 0.5]] * 3, [[0.2, 0.4]] * 3, 1.0)
    with pytest.raises(ValidationError, match="'random'"):  # an exact value needs a fixed order
        policies.exact_policy_value("stocan", inst, modular_objective([1.0] * 3, 2), np.zeros((3, 2)),
                                    order="random")


def test_infeasible_y_raises_validation_error_naming_the_entry():
    inst = make_instance([[0.5, 0.5]], [[0.2, 0.4]], 1.0)
    f = modular_objective([1.0], 2)
    too_big = np.array([[0.9, 0.1]])  # exceeds the p cap, accept prob would pass 1/4
    with pytest.raises(ValidationError, match=r"^y\[0\]\[0\]: "):
        policies.scalar_runs("small", inst, f, too_big, 1, seed=0)
    with pytest.raises(ValidationError, match=r"^y\[0\]\[0\]: "):
        policies.simulate_policy("small", inst, f, too_big, 10, seed=0)


def test_acceptance_probabilities_zero_over_zero():
    inst = make_instance([[1.0, 0.0]], [[0.1, 0.2]], 1.0)
    probs = policies.acceptance_probabilities(inst, np.array([[0.6, 0.0]]))
    assert probs[0, 1] == 0.0
    assert probs[0, 0] == pytest.approx(0.15, abs=1e-15)
    assert np.all(probs <= 0.25 + 1e-9)


def selection_vector(inst, selected) -> np.ndarray:
    """The state vector of a run's accepted pairs; a run selects each item at most once."""
    u = np.zeros(inst.item_count, dtype=np.int64)
    for i, s in selected:
        u[i] = s
    return u


# ---------------------------------------------------------------------------
# run records


def test_zero_y_selects_nothing():
    inst, f = generated(121, 3, 2, "nested_coverage")
    y = np.zeros((3, 2))
    for rec in policies.scalar_runs("small", inst, f, y, 20, seed=1):
        assert rec.selected == ()
        assert rec.value == f.value([0, 0, 0])
        assert rec.total_cost == 0.0
    spent, values = plan_rows("small", inst, f, y, 20, seed=1)
    assert np.all(values == f.value([0, 0, 0]))
    assert not spent.any()  # every cost is positive
    assert policies.simulate_policy("large", inst, f, y, 20, seed=1).largest_large == 0


def test_record_structure_and_determinism():
    inst, f = generated(122, 3, 2)
    y = greedy_y(inst, f)
    a = policies.scalar_runs("stocan", inst, f, y, 40, order=[2, 0, 1], seed=12)
    b = policies.scalar_runs("stocan", inst, f, y, 40, order=[2, 0, 1], seed=12)
    assert a == b
    values = plan_rows("stocan", inst, f, y, 40, order=[2, 0, 1], seed=12)[1]
    branch_small = next(policies._draw_plan(inst, 40, (2, 0, 1), 12))[2]
    for rec, value, small in zip(a, values, branch_small):
        assert rec.order == (2, 0, 1)
        assert [e[0] for e in rec.events] == [2, 0, 1]  # events follow the arrival order
        assert rec.branch == ("small" if small else "large")
        assert rec.total_cost <= inst.budget
        assert rec.value == f.value(selection_vector(inst, rec.selected)) == value
    parsed = json.loads(a[0].to_json())
    assert set(parsed) == {"kind", "branch", "order", "events", "selected", "total_cost", "value"}


def test_small_policy_never_keeps_large_items():
    inst, f = generated(123, 3, 2)
    y = greedy_y(inst, f)
    small = policies.scalar_runs("small", inst, f, y, 200, seed=13)
    large = policies.scalar_runs("large", inst, f, y, 200, seed=13)
    for rec, rec_l in zip(small, large):
        # state draws do not depend on the policy, so both runs see one realization
        assert [e[:2] for e in rec.events] == [e[:2] for e in rec_l.events]
        for i, s in rec.selected:
            assert inst.cost[i, s - 1] <= inst.budget / 2
        for i, s in rec_l.selected:
            assert inst.cost[i, s - 1] > inst.budget / 2
        assert len(rec_l.selected) <= 1
    assert any(rec.selected for rec in large)
    assert policies.simulate_policy("large", inst, f, y, 200, seed=13).largest_large <= 1


def test_large_policy_discards_everything_when_all_small():
    inst = make_instance([[0.5, 0.5], [1.0, 0.0]], [[0.1, 0.2], [0.3, 0.3]], 1.0)
    f = modular_objective([1.0, 1.0], 2)
    y = inst.prob * 0.9
    sim = policies.simulate_policy("large", inst, f, y, 2000, seed=5)
    assert np.all(plan_rows("large", inst, f, y, 2000, seed=5)[1] == f.value([0, 0]))
    assert sim.largest_large == 0


# ---------------------------------------------------------------------------
# acceptance-frequency concentration


def test_small_accept_frequency_quarter():
    inst = make_instance([[1.0]], [[0.5]], 1.0)  # cost = B/2, kept by the small policy
    f = modular_objective([1.0], 1)
    y = np.array([[1.0]])  # equals the cap, so accept prob is exactly 1/4
    assert (f.value([0]), f.value([1])) == (0.0, 1.0)  # so the mean value is the accept frequency
    sim = policies.simulate_policy("small", inst, f, y, 100_000, seed=31)
    assert abs(sim.mean - 0.25) <= 0.006  # runs that selected (0, 1)


def test_large_accept_frequency_quarter():
    inst = make_instance([[1.0]], [[1.0]], 1.0)  # cost = B, kept by the large policy
    f = modular_objective([1.0], 1)
    y = np.array([[1.0]])
    assert (f.value([0]), f.value([1])) == (0.0, 1.0)
    sim = policies.simulate_policy("large", inst, f, y, 100_000, seed=32)
    assert abs(sim.mean - 0.25) <= 0.006


# derandomized: each example makes 4-sigma comparisons, so a fixed sequence of draws
# keeps their small false-alarm rate from making the test flaky
@settings(max_examples=25, deadline=None, derandomize=True)
@given(family=st.sampled_from(model.FAMILIES), items=st.integers(1, 4), states=st.integers(1, 3),
       seed=st.integers(0, 10_000))
def test_unbudgeted_small_device_matches_its_exact_value(family, items, states, seed):
    inst, f = generated(seed, items, states, family)
    y = greedy_y(inst, f, rounds=50)
    value_slack, pair_slack, floor_margin = device_slacks(inst, f, y, 20_000, seed)
    assert floor_margin >= -1e-12  # exact E[device] >= H(y_small)/4
    assert value_slack >= 0 and pair_slack >= 0


def test_unbudgeted_small_inclusion_matches_quarter_scaled_y():
    inst, f = generated(124, 3, 2)
    y = greedy_y(inst, f)
    runs = 100_000
    _, counts = simulate_device(inst, f, y, runs, seed=33)
    for i in range(3):
        for s in (1, 2):
            if inst.cost[i, s - 1] > inst.budget / 2:
                continue
            target = y[i, s - 1] / 4
            stderr = math.sqrt(target * (1 - target) / runs)
            assert abs(counts[i, s] / runs - target) <= 4 * stderr + 1e-12


def test_unbudgeted_value_floors_at_quarter_of_small_H():
    inst, f = generated(125, 3, 2, "concave_over_modular")
    y = greedy_y(inst, f)
    y_small, _ = optimizer.split_solution(y, inst)
    H_small = extension.FactoredExtension(f).H(y_small)
    runs = 100_000
    values, _ = simulate_device(inst, f, y, runs, seed=34)
    stderr = float(np.std(values, ddof=1)) / math.sqrt(runs)
    assert float(np.mean(values)) >= H_small / 4 - 4 * stderr


# ---------------------------------------------------------------------------
# the combined policy


def test_branch_frequency_fair():
    inst, _ = generated(126, 2, 2)
    plan = policies._draw_plan(inst, 100_000, (0, 1), 35)
    freq = float(np.mean(np.concatenate([block[2] for block in plan])))
    assert abs(freq - 0.5) <= 0.0064  # four binomial standard errors


def test_stocan_zero_y_gives_base_value():
    inst, f = generated(127, 2, 2, "nested_coverage")
    y = np.zeros((2, 2))
    assert np.all(plan_rows("stocan", inst, f, y, 500, seed=36)[1] == f.value([0, 0]))


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
    assert harness._policy_block(sim)["single_run"]


def test_simulation_deterministic_and_paired_states():
    inst, f = generated(130, 3, 2)
    y = greedy_y(inst, f)
    a = policies.simulate_policy("small", inst, f, y, 5000, seed=41)
    b = policies.simulate_policy("small", inst, f, y, 5000, seed=41)
    assert statistics(a) == statistics(b)
    # state and coin streams are independent of the policy kind, so the
    # combined policy's small-branch runs replay the small policy exactly
    small, combined, large = (plan_rows(kind, inst, f, y, 5000, seed=41)[1]
                              for kind in ("small", "stocan", "large"))
    mask = next(policies._draw_plan(inst, 5000, (0, 1, 2), 41))[2]  # the campaign's branch coins
    assert np.array_equal(combined[mask], small[mask])
    small_runs = policies.scalar_runs("small", inst, f, y, 5000, seed=41)
    combined_runs = policies.scalar_runs("stocan", inst, f, y, 5000, seed=41)
    assert [r.selected for r, m in zip(combined_runs, mask) if m] == \
        [r.selected for r, m in zip(small_runs, mask) if m]
    assert np.array_equal(combined[~mask], large[~mask])


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
        assert np.all(plan_rows(kind, inst, f, y, 20_000, seed=45)[0] <= inst.budget)
    records = policies.scalar_runs("stocan", inst, f, y, 200, seed=46)
    for rec in records:
        assert rec.total_cost <= inst.budget
        recomputed = sum(inst.cost[i, s - 1] for i, s in rec.selected)
        assert recomputed == pytest.approx(rec.total_cost, abs=1e-12)


# lengths around numpy's pairwise-summation blocks (8 unrolled terms, 128 per leaf), around a
# campaign block, and split twice or more above one at a node whose half is not a multiple of 8;
# if numpy changes how np.mean or np.std reduce, or where it splits a node, this test fails
C = policies.CHUNK_RUNS


@settings(max_examples=150, deadline=None)
@given(length=st.sampled_from([2, 7, 8, 9, 127, 128, 129, C - 1, C, C + 1, 2 * C + 3, 3 * C + 17,
                               65_541]) | st.integers(2, 70_000),
       scale=st.sampled_from([1.0, 1e-3, 1e308, 1.7976931348623157e308, 2.2250738585072014e-308,
                              5e-324]),
       spread=st.sampled_from(["uniform", "exponential", "constant"]),
       head=st.lists(st.floats(allow_nan=False), max_size=9), seed=st.integers(0, 2**32 - 1))
def test_statistics_in_place_keep_the_bits_of_np_mean_and_np_std(length, scale, spread, head, seed):
    rng = np.random.default_rng(seed)
    with np.errstate(all="ignore"):  # sums and squares near 1e308 overflow, on both sides alike
        values = {"uniform": rng.uniform(-1.0, 1.0, length), "constant": np.ones(length),
                  "exponential": rng.exponential(size=length)}[spread] * scale
        if spread == "constant" and head:
            values[:] = head[0]
        else:  # drawn values, infinities included, over the first entries
            values[:len(head)] = head[:length]
        want = np.mean(values), np.std(values, ddof=1)
        got = policies._statistics(lambda a, b: values[a:b].copy(), length)
    assert [np.float64(v).tobytes() for v in got] == [v.tobytes() for v in want]


def traced_peak(fn):
    """``fn()`` and the most memory tracemalloc saw allocated during it, above the level before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        return fn(), tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_campaign_memory_is_two_key_columns_the_coins_and_one_block():
    # per run: two int32 table ranks (small's and large's) and a branch coin, 9 bytes; beside them
    # the value table and a fixed allowance for one block's draws and kernel columns (about 2.4 MB
    # at 12 items). No per-run values, action codes, statistics buffer or deviation vector, and no
    # block that grows with the runs
    inst, f = generated(150, 12, 2)
    y = greedy_y(inst, f, rounds=5)
    allowance, runs = 5 << 19, 200_000
    sims, peak = traced_peak(lambda: policies.simulate_policies(inst, f, y, runs, seed=56))
    table = extension.value_table(f).nbytes  # 3^12 lattice points, built by the campaign
    assert peak <= 9 * runs + table + allowance
    del sims
    # with the table built: twice the runs cost their 9 bytes each, and up to one byte more for
    # where the peak falls
    once, peak = traced_peak(lambda: policies.simulate_policies(inst, f, y, runs, seed=56))
    del once
    _, doubled = traced_peak(lambda: policies.simulate_policies(inst, f, y, 2 * runs, seed=56))
    assert doubled - peak <= 10 * runs


def test_exact_pass_memory_is_the_law_and_arrays_one_axis_shorter():
    # the law and the value table are the pass's two (S+1)^I arrays; beside them the spend, one axis
    # shorter, which holds the staying factor once no later arrival reads it, and a comparison mask
    inst, f = generated(150, 12, 2)
    y = greedy_y(inst, f, rounds=5)
    table = extension.value_table(f).nbytes  # built first, so the peak is the pass's own
    shorter = table // 3  # (S+1)^(I-1) floats
    # the law, the last spend beside the one before it (a third of its size) and the mask, with
    # numpy's iteration buffers
    _, peak = traced_peak(lambda: policies.exact_policy_value("stocan", inst, f, y))
    assert peak <= table + 1.5 * shorter


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
    # 12 items x 3 states: the value table's (S+1)^I = 4^12 lattice points are past its guard
    probs = np.full((12, 3), 1 / 3)
    costs = np.tile(np.array([[0.1, 0.2, 0.3]]), (12, 1))
    big = make_instance(probs, costs, 1.0)
    fbig = modular_objective([1.0] * 12, 3)
    with pytest.raises(CapacityError) as err:
        policies.exact_policy_value("stocan", big, fbig, np.zeros((12, 3)))
    # the message names the guard and no library function
    assert str(err.value) == "(S+1)^I = 16777216 exceeds the enumeration guard 1000000"


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
# one kernel: records and campaigns agree


@pytest.mark.parametrize("order", ["identity", "random"])
def test_record_depends_only_on_seed_and_run_index(order):
    inst, f = generated(136, 4, 2, "nested_coverage")
    y = greedy_y(inst, f)
    for kind in policies.KINDS:
        short = policies.scalar_runs(kind, inst, f, y, 20, order=order, seed=50)
        long = policies.scalar_runs(kind, inst, f, y, 50, order=order, seed=50)
        assert short == long[:20], kind


@pytest.mark.parametrize("family", model.FAMILIES)
def test_records_are_rows_of_the_campaign(family):
    inst, f = generated(138, 5, 2, family)
    y = greedy_y(inst, f)
    for kind in policies.KINDS:
        sim = policies.simulate_policy(kind, inst, f, y, 300, order="random", seed=51)
        records = policies.scalar_runs(kind, inst, f, y, 300, order="random", seed=51)
        for rec in records:
            spent = 0.0
            for i, s in rec.selected:
                spent += inst.cost[i, s - 1]
            assert rec.value == f.value(selection_vector(inst, rec.selected))
            assert rec.total_cost == spent
        # the campaign's statistics are those of its records' values, bit for bit
        assert statistics(sim)[:2] == value_statistics([r.value for r in records]), kind
        assert np.array_equal([r.total_cost for r in records],
                              plan_rows(kind, inst, f, y, 300, "random", 51)[0])


@pytest.mark.parametrize("order", ["identity", "random"])
@pytest.mark.parametrize("case", ["generated", "all-small"])
def test_largest_large_is_the_largest_large_rule_record(monkeypatch, case, order):
    if case == "generated":
        inst, f = generated(139, 5, 2, "nested_coverage")
        y = greedy_y(inst, f)
    else:  # the large rule discards everything, while small runs select several pairs
        inst = make_instance([[0.5, 0.5]] * 3, [[0.1, 0.2]] * 3, 1.0)
        f, y = modular_objective([1.0] * 3, 2), inst.prob * 0.9
    monkeypatch.setattr(policies, "CHUNK_RUNS", 128)  # the field is reduced across blocks
    runs, biggest = 1000, {}
    for kind in policies.KINDS:
        sim = policies.simulate_policy(kind, inst, f, y, runs, order=order, seed=55)
        records = policies.scalar_runs(kind, inst, f, y, runs, order=order, seed=55)
        want = max((len(r.selected) for r in records if "large" in (r.kind, r.branch)), default=0)
        assert sim.largest_large == want, kind
        biggest[kind] = max(len(r.selected) for r in records)
    assert biggest["small"] >= 2  # a reduction over the small-rule runs would differ
    assert biggest["large"] == (1 if case == "generated" else 0)


# ---------------------------------------------------------------------------
# one draw plan: chunking and the combined policy as a row selection


@pytest.mark.parametrize("order", ["identity", "random"])
def test_stocan_selection_is_the_branch_kernel_bit_for_bit(order):
    inst, f = generated(139, 5, 2, "nested_coverage")
    y = greedy_y(inst, f)
    rule = policies._rule(inst, f, policies.acceptance_probabilities(inst, y))
    block = next(policies._draw_plan(inst, 3000, policies.resolve_order(order, inst.item_count), 52))
    branch = block[2]
    small, large, combined = (policies._kernel(rule, block, keep) for keep in (True, False, branch))
    for field in ("spent", "sizes"):  # each run decides as the branch its coin chose
        a = np.where(branch, getattr(small, field), getattr(large, field))
        b = getattr(combined, field)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field
    # a campaign reads its stocan keys off small's and large's by the same coins
    keys = np.where(branch, small.keys, large.keys)
    assert keys.dtype == combined.keys.dtype == np.int32
    assert keys.tobytes() == combined.keys.tobytes()
    # campaign rows carry no action codes and no values; records ask the kernel for them
    for rows in (small, large, combined):
        assert rows.actions is None and rows.values is None

    # through the public views: stocan beside small and large, stocan alone, and its records
    by_plan = policies.simulate_policies(inst, f, y, 3000, order, seed=52)[2]
    alone = policies.simulate_policy("stocan", inst, f, y, 3000, order=order, seed=52)
    assert statistics(by_plan) == statistics(alone)
    # its two integers, read off small's and large's rows, are those of the combined kernel pass
    assert by_plan.budget_violations == np.count_nonzero(~(combined.spent <= inst.budget)) == 0
    assert by_plan.largest_large == combined.sizes.max(initial=0, where=~branch)
    records = policies.scalar_runs("stocan", inst, f, y, 3000, order, seed=52)
    assert statistics(by_plan)[:2] == value_statistics([r.value for r in records])
    assert [r.total_cost for r in records] == combined.spent.tolist()  # 3000 runs: one block
    assert [r.branch == "small" for r in records] == branch.tolist()


def test_nan_spend_counts_as_a_budget_violation(monkeypatch):
    # one run's small row spends NaN and its large row claims two pairs: the NaN is a violation
    # of small's and the two pairs large's largest; each is stocan's iff its coin chose that branch
    inst, f = generated(141, 4, 2, "separable_concave")
    y = greedy_y(inst, f, rounds=20)
    branch = next(policies._draw_plan(inst, 64, "identity", 54))[2]
    before = policies.simulate_policies(inst, f, y, 64, seed=54)[2].largest_large
    kernel = policies._kernel
    for coin_small in (True, False):
        run = int(np.flatnonzero(branch == coin_small)[0])

        def poisoned(rule, block, keep_small, codes=False):
            rows = kernel(rule, block, keep_small, codes)
            if keep_small is True:
                rows.spent[run] = math.nan
            elif keep_small is False:
                rows.sizes[run] = 2
            return rows

        monkeypatch.setattr(policies, "_kernel", poisoned)
        small, large, stocan = policies.simulate_policies(inst, f, y, 64, seed=54)
        assert (small.budget_violations, large.budget_violations) == (1, 0)
        assert stocan.budget_violations == int(coin_small)
        assert (small.largest_large, large.largest_large) == (0, 2)
        assert stocan.largest_large == (before if coin_small else 2)


def test_two_kernel_passes_per_block_one_campaign_per_kind(monkeypatch):
    inst, f = generated(140, 3, 2, "nested_coverage")
    y = greedy_y(inst, f)
    alone = [policies.simulate_policy(kind, inst, f, y, 500, [2, 0, 1], 53)
             for kind in policies.KINDS]
    passes = []
    kernel = policies._kernel

    def counting(rule, block, keep_small, codes=False):
        passes.append((keep_small, codes))
        return kernel(rule, block, keep_small, codes)

    monkeypatch.setattr(policies, "_kernel", counting)
    monkeypatch.setattr(policies, "CHUNK_RUNS", 200)
    sims = policies.simulate_policies(inst, f, y, 500, [2, 0, 1], seed=53)
    # small and large per block, with no action codes; stocan is read off them
    assert passes == [(True, False), (False, False)] * 3
    assert [s.kind for s in sims] == list(policies.KINDS)
    for sim, lone in zip(sims, alone):
        assert statistics(sim) == statistics(lone), sim.kind


@pytest.mark.parametrize("order", ["identity", "random", *itertools.permutations(range(3))],
                         ids=lambda o: o if isinstance(o, str) else "perm" + "".join(map(str, o)))
@pytest.mark.parametrize("chunk", [1, 7, 45])
def test_order_variants_equal_lone_campaigns_bit_for_bit(monkeypatch, chunk, order):
    # the three campaigns at any order are the same at any block size
    inst, f = generated(141, 3, 2, "nested_coverage")
    y = greedy_y(inst, f)
    runs = 100  # a multiple of neither 7 nor 45
    whole = policies.simulate_policies(inst, f, y, runs, order, seed=54)
    monkeypatch.setattr(policies, "CHUNK_RUNS", chunk)
    folded = policies.simulate_policies(inst, f, y, runs, order, seed=54)
    for a, b in zip(folded, whole):
        assert statistics(a) == statistics(b), a.kind


# ---------------------------------------------------------------------------
# the kernel against its oracle


DISCARD, REJECT, SKIP, ACCEPT = np.arange(4, dtype=np.int8)  # action codes: indexes into ACTIONS


def reference_kernel(inst, objective, probs, block, keep_small, ignore_budget):
    """The policy rule over an ``(n, I)`` order matrix and selection matrix: the kernel's oracle.

    Action codes by nested ``where``, each row's item and state gathered
    by row, run values by ``value_many`` on the selection, sizes and keys
    (each selection's rank in the value table) read off it at the end.
    Returns the rows and, beside them, the ``(I, S+1)``
    counts of runs that end with each item in each state (state 0 =
    unselected).
    """
    phi, coins, _, orders = block
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
        actions[:, t] = np.where(discard, DISCARD,
                                 np.where(fits, np.where(accept, ACCEPT, REJECT), SKIP))
        spent += np.where(accept, cost, 0.0)
        selected[rows, items] = np.where(accept, states, 0)
    counts = np.array([np.bincount(col, minlength=inst.state_count + 1) for col in selected.T])
    rank = np.ravel_multi_index(selected.T, (inst.state_count + 1,) * I).astype(np.int32)
    return policies._Rows(actions, spent, np.count_nonzero(selected, axis=1), rank,
                          np.asarray(objective.value_many(selected), dtype=float)), counts


def simulate_device(inst, objective, y, runs, seed) -> tuple[np.ndarray, np.ndarray]:
    """The unbudgeted small policy run by :func:`reference_kernel` over the draw plan of ``seed``.

    Items arrive in identity order. Returns the run values and the ``(I, S+1)``
    counts of runs that end with each item in each state (state 0 = unselected).
    """
    probs = policies.acceptance_probabilities(inst, y)
    order = policies.resolve_order("identity", inst.item_count)
    values, counts = [], 0
    for block in policies._draw_plan(inst, runs, order, seed):
        rows, block_counts = reference_kernel(inst, objective, probs, block, True, True)
        values.append(rows.values)
        counts = counts + block_counts
    return np.concatenate(values), counts


def device_slacks(inst, objective, y, runs, seed) -> tuple[float, float, float]:
    """The unbudgeted small policy, simulated by :func:`reference_kernel`, against its exact value.

    The device runs over the draw plan of ``seed`` in identity order. Returns
    the least slack of the simulated mean against the exact device value
    (``harness._device_value``) at 4 standard errors, the least slack of a
    cheap pair's inclusion frequency against ``y/4`` at 4 binomial standard
    errors (inf without a cheap pair), and the exact value's margin over
    ``H(y_small)/4``. Each tolerance also allows 1e-12 for rounding.
    """
    values, counts = simulate_device(inst, objective, y, runs, seed)
    y_small, _ = optimizer.split_solution(y, inst)
    ext = extension.FactoredExtension(objective)
    exact = harness._device_value(ext, y_small)
    stderr = float(np.std(values, ddof=1)) / math.sqrt(runs)
    value_slack = 4 * stderr + 1e-12 - abs(float(np.mean(values)) - exact)
    target = y / 4
    allowance = 4 * np.sqrt(target * (1 - target) / runs) + 1e-12
    slack = allowance - np.abs(counts[:, 1:] / runs - target)
    pair_slack = float(np.min(slack[inst.cost <= inst.budget / 2], initial=math.inf))
    return value_slack, pair_slack, exact - ext.H(y_small) / 4

@settings(max_examples=120, deadline=None)
@given(data=st.data(), family=st.sampled_from(model.FAMILIES), items=st.integers(1, 6),
       states=st.integers(1, 3), seed=st.integers(0, 10_000), runs=st.integers(1, 300),
       order=st.sampled_from(["identity", "perm", "random"]),
       keep=st.sampled_from(["small", "large", "coins"]), with_table=st.booleans(),
       grid_costs=st.booleans())
def test_kernel_equals_its_oracle_bit_for_bit(data, family, items, states, seed, runs, order, keep,
                                             with_table, grid_costs):
    payload = harness.generate_instance(items, states, family, seed)
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
    order = policies.resolve_order(order, items)
    block = next(policies._draw_plan(inst, runs, order, seed))
    keep_small = {"small": True, "large": False, "coins": block[2]}[keep]
    with pytest.MonkeyPatch.context() as mp:
        # without the table, the guard is lowered so that run values come from value_many
        mp.setattr(policies, "ENUM_GUARD", model.ENUM_GUARD if with_table else 0)
        rule = policies._rule(inst, f, probs)
    want, _ = reference_kernel(inst, f, probs, block, keep_small, False)
    if not with_table:  # past the guard a run's key is its value
        want = dataclasses.replace(want, keys=want.values)
    for codes in (True, False):
        got = policies._kernel(rule, block, keep_small, codes=codes)
        for name in ("actions", "values")[0 if codes else 2:] + ("spent", "sizes", "keys"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name
        assert (got.actions is None) != codes and (got.values is None) != codes

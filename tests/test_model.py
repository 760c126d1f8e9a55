import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stocan import extension, model, optimizer, policies
from stocan.rng import STATES, substream
from stocan.extension import value_table
from stocan.errors import CapacityError, ValidationError

from conftest import TableObjective, generated, make_instance, modular_objective


# ---------------------------------------------------------------------------
# instance validation


def test_valid_instance_roundtrip():
    inst = make_instance([[0.3, 0.7], [0.5, 0.5]], [[0.1, 0.4], [0.2, 0.2]], 1.0)
    assert inst.item_count == 2
    assert inst.state_count == 2
    assert inst.prob.tolist() == [[0.3, 0.7], [0.5, 0.5]]
    assert inst.cost.tolist() == [[0.1, 0.4], [0.2, 0.2]]
    assert inst.budget == 1.0 and isinstance(inst.budget, float)
    assert not inst.prob.flags.writeable and not inst.cost.flags.writeable


def test_row_sum_violation_names_path():
    with pytest.raises(ValidationError) as err:
        make_instance([[0.3, 0.3]], [[0.1, 0.2]], 1.0)
    assert "items[0].probs" in str(err.value)


def test_negative_cost_names_entry():
    with pytest.raises(ValidationError) as err:
        make_instance([[1.0], [1.0]], [[0.5], [-0.1]], 1.0)
    assert "items[1].costs[0]" in str(err.value)


def test_cost_monotonicity_rejected_with_states():
    with pytest.raises(ValidationError) as err:
        make_instance([[0.5, 0.5]], [[0.8, 0.3]], 1.0)
    msg = str(err.value)
    assert "items[0].costs" in msg and "state 2" in msg and "state 1" in msg


def test_nonpositive_budget_rejected():
    with pytest.raises(ValidationError):
        make_instance([[1.0]], [[1.0]], 0.0)


def test_probability_outside_unit_interval():
    with pytest.raises(ValidationError) as err:
        make_instance([[1.5, -0.5]], [[0.1, 0.2]], 1.0)
    assert "probs" in str(err.value)


@pytest.mark.parametrize("probs, costs, budget, path", [
    ([[float("nan"), 1.0]], [[0.1, 0.2]], 1.0, "items[0].probs[0]"),
    ([[0.5, 0.5], [1.0, float("inf")]], [[0.1, 0.2], [0.1, 0.2]], 1.0, "items[1].probs[1]"),
    ([[0.5, 0.5]], [[0.1, float("nan")]], 1.0, "items[0].costs[1]"),
    ([[0.5, 0.5]], [[float("-inf"), 0.2]], 1.0, "items[0].costs[0]"),
    ([[0.5, 0.5]], [[0.1, float("inf")]], 1.0, "items[0].costs[1]"),
    ([[0.5, 0.5]], [[0.1, 0.2]], float("inf"), "instance.budget"),
    ([[0.5, 0.5]], [[0.1, 0.2]], float("nan"), "instance.budget"),
])
def test_nonfinite_instance_numbers_rejected(probs, costs, budget, path):
    with pytest.raises(ValidationError) as err:
        make_instance(probs, costs, budget)
    assert err.value.path == path


@pytest.mark.parametrize("probs, costs, budget, path", [
    ([[0.5, 0.5], [1.0]], [[0.1, 0.2], [0.1]], 1.0, "items[1].probs"),
    ([[0.5, 0.5]], [[0.1, 0.2, 0.3]], 1.0, "items[0]"),
    ([[0.5, "x"]], [[0.1, 0.2]], 1.0, "items[0].probs"),
    ([[0.5, 0.5]], [[0.1, [0.2]]], 1.0, "items[0].costs"),
    (5, [[0.1]], 1.0, "instance"),
    ([0.5, 0.5], [0.1, 0.2], 1.0, "items[0].probs"),
    ([[1.0], [1.0]], [[0.1]], 1.0, "instance"),
    ([], [], 1.0, "instance"),
    ([[1.0]], [[0.1]], "abc", "instance.budget"),
    ([[1.0]], [[0.1]], [1.0], "instance.budget"),
], ids=["ragged", "unequal-lengths", "string-entry", "list-entry", "non-sequence", "flat-rows",
        "row-counts", "no-rows", "string-budget", "list-budget"])
def test_a_directly_built_instance_names_its_bad_entry(probs, costs, budget, path):
    # the rows are checked by Instance itself, as lists or arrays, not only by the loader
    with pytest.raises(ValidationError) as err:
        model.Instance(probs, costs, budget)
    assert err.value.path == path


def test_a_directly_built_instance_takes_its_rows_as_lists_or_tuples():
    inst = model.Instance([[0.25, 0.75], (1.0, 0.0)], [[0.1, 0.4], [0.2, 0.2]], 2)
    assert inst.prob.tolist() == [[0.25, 0.75], [1.0, 0.0]] and inst.prob.dtype == float
    assert inst.cost.tolist() == [[0.1, 0.4], [0.2, 0.2]] and inst.cost.dtype == float
    assert inst.budget == 2.0 and isinstance(inst.budget, float)
    assert not inst.prob.flags.writeable and not inst.cost.flags.writeable


@pytest.mark.parametrize("make, path", [
    (lambda: model.ConcaveCurve("warp"), "objective.g.kind"),
    (lambda: model.ConcaveCurve("cap", cap=-1.0), "objective.g.cap"),
    (lambda: model.ConcaveCurve("power", exponent=1.5), "objective.g.exponent"),
    (lambda: model.ConcaveCurve("sqrt", scale=0.0), "objective.g.scale"),
    (lambda: model.ConcaveCurve.from_dict({"cap": 1.0}), "objective.g"),
], ids=["kind", "cap", "exponent", "scale", "from-dict"])
def test_a_curve_names_its_entry_in_the_objective(make, path):
    with pytest.raises(ValidationError) as err:
        make()
    assert err.value.path == path


@pytest.mark.parametrize("family, params, path", [
    ("separable_concave", {"weights": [math.nan], "g": [0, 1]}, "objective.weights[0]"),
    ("separable_concave", {"weights": [1.0], "g": [0, math.inf]}, "objective.g[1]"),
    ("nested_coverage", {"covers": [[[0]]], "element_weights": [1.0, -math.inf]},
     "objective.element_weights[1]"),
    ("concave_over_modular", {"a": [[0.5, math.nan]], "g": {"kind": "cap", "cap": 1.0}},
     "objective.a[0][1]"),
    ("concave_over_modular", {"a": [[0.5]], "g": {"kind": "cap", "cap": math.nan}}, "objective.g.cap"),
    ("concave_over_modular", {"a": [[0.5]], "g": {"kind": "sqrt", "scale": math.inf}},
     "objective.g.scale"),
    ("concave_over_modular", {"a": [[0.5]], "g": {"kind": "power", "exponent": math.nan}},
     "objective.g.exponent"),
])
def test_nonfinite_objective_parameters_rejected(family, params, path):
    with pytest.raises(ValidationError) as err:
        model.make_objective(family, params)
    assert err.value.path == path


def test_instance_arrays_frozen():
    inst = make_instance([[1.0]], [[1.0]], 1.0)
    with pytest.raises(ValueError):
        inst.prob[0, 0] = 0.5


# ---------------------------------------------------------------------------
# the lifted set function


def test_h_empty_set_is_value_at_zero():
    f = modular_objective([2.0, 3.0], 2)
    assert f.value([0, 0]) == 0.0
    g = model.make_objective("separable_concave", {"weights": [1.0], "g": [0.0, 0.5]})
    assert g.value([0]) == 0.0


def test_h_nested_coverage_matches_set_union():
    covers = [[[0], [0, 1]], [[1, 2], [1, 2]]]
    weights = [0.5, 0.7, 1.1]
    f = model.make_objective(
        "nested_coverage", {"covers": covers, "element_weights": weights}
    )
    # independent computation with plain python sets
    union = set(covers[0][0]) | set(covers[1][0])
    expected = sum(weights[e] for e in union)
    assert f.value([1, 1]) == pytest.approx(expected, abs=1e-12)


def test_h_is_monotone_submodular_set_function():
    """Exhaustive second-difference check of the lifted function on all
    pair subsets, for one instance of each family (I*S <= 12)."""
    cases = [
        model.make_objective("separable_concave",
                             {"weights": [1.0, 0.6, 1.3], "g": [0, 1.0, 1.6]}),
        model.make_objective("nested_coverage", {
            "covers": [[[0], [0, 1]], [[2], [2, 3]], [[1, 4], [1, 4]]],
            "element_weights": [1.0, 0.4, 0.9, 0.3, 0.6],
        }),
        model.make_objective("concave_over_modular", {
            "a": [[0.5, 1.0], [0.3, 0.9], [0.7, 0.8]],
            "g": {"kind": "cap", "cap": 1.8},
        }),
    ]
    for f in cases:
        I, S = f.item_count, f.state_count
        pairs = [(i, s) for i in range(I) for s in range(1, S + 1)]
        E = len(pairs)
        assert E <= 12
        h = np.empty(1 << E)
        for mask in range(1 << E):
            u = np.zeros(I, dtype=np.int64)
            for b in range(E):
                if mask >> b & 1:
                    i, s = pairs[b]
                    u[i] = max(u[i], s)
            h[mask] = f.value(u)
        for mask in range(1 << E):
            for b1 in range(E):
                if mask >> b1 & 1:
                    continue
                with_b1 = mask | 1 << b1
                assert h[with_b1] >= h[mask] - 1e-12  # monotone
                for b2 in range(b1 + 1, E):
                    if mask >> b2 & 1:
                        continue
                    lhs = h[mask | 1 << b2] - h[mask]
                    rhs = h[with_b1 | 1 << b2] - h[with_b1]
                    assert lhs >= rhs - 1e-12  # submodular


# ---------------------------------------------------------------------------
# structure checkers


def test_monotone_checker_accepts_modular():
    f = modular_objective([1.0, 1.0], 2)
    assert model.check_monotone(f).ok


def test_monotone_checker_finds_decreasing_witness():
    f = TableObjective(2, 2, lambda u: -float(u[0]))
    res = model.check_monotone(f)
    assert not res.ok
    u, i = res.witness
    assert i == 0 and u[0] < 2


def test_monotone_checker_nested_coverage_exhaustive():
    inst, f = generated(31, 3, 2, "nested_coverage")
    assert model.check_monotone(f).ok


def test_monotone_capacity_guard_and_sampled_fallback():
    # the checker has no sampled mode, so its capacity message names none
    f = TableObjective(12, 4, lambda u: float(sum(u)))
    with pytest.raises(CapacityError) as err:
        model.check_monotone(f)
    assert "exceeds the enumeration guard" in str(err.value)
    assert "sampled" not in str(err.value)


def test_submodular_checker_accepts_concave_of_coordinates():
    g = [0.0, 1.0, np.sqrt(2), np.sqrt(3)]
    f = model.make_objective("separable_concave", {"weights": [1.0, 1.0], "g": g})
    assert model.check_lattice_submodular(f).ok


def test_submodular_checker_rejects_product_interaction():
    f = TableObjective(2, 2, lambda u: float(u[0] * u[1]))
    res = model.check_lattice_submodular(f)
    assert not res.ok
    u, v, i, s = res.witness
    assert tuple(u) <= tuple(v)


def test_submodular_checker_constant_function():
    f = TableObjective(2, 2, lambda u: 4.2)
    assert model.check_lattice_submodular(f).ok


def test_submodular_sampled_mode():
    f = TableObjective(12, 4, lambda u: float(np.sqrt(sum(u))))
    with pytest.raises(CapacityError) as err:
        model.check_lattice_submodular(f)
    assert "exceeds the enumeration guard" in str(err.value)
    assert "sampled" not in str(err.value)


def test_builtin_families_pass_both_checkers():
    sizes = [(2, 2), (3, 2), (2, 3)]
    for k, family in enumerate(model.FAMILIES):
        for j, (items, states) in enumerate(sizes):
            _, f = generated(100 + 7 * k + j, items, states, family)
            assert model.check_monotone(f).ok, (family, items, states)
            assert model.check_lattice_submodular(f).ok, (family, items, states)


def _join(u, i, s):
    return u[:i] + (max(u[i], s),) + u[i + 1:]


def pairwise_dr_witness(f):
    """The first ``(u, v, i, s)`` with ``u <= v`` violating the join-DR inequality, or None.

    The definition itself, over every comparable pair: the oracle for the
    local (Topkis) exhaustive checker, for tiny domains only.
    """
    I, S = f.item_count, f.state_count
    grid = list(itertools.product(range(S + 1), repeat=I))
    value = {u: f.value(u) for u in grid}
    for u in grid:
        for v in itertools.product(*(range(k, S + 1) for k in u)):
            for i in range(I):
                for s in range(1, S + 1):
                    lhs = value[_join(u, i, s)] - value[u]
                    rhs = value[_join(v, i, s)] - value[v]
                    if lhs < rhs - model.EXACT_TOL:
                        return u, v, i, s
    return None


@st.composite
def tiny_objective(draw):
    """An objective with I, S <= 3: a generated family member, an arbitrary
    integer table, or a capped modular integer table with one entry moved
    by -1, 0 or +1. Integer tables keep every difference exact, so the
    checkers' 1e-12 tolerance never decides a case."""
    items, states = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    kind = draw(st.sampled_from(("family", "table", "capped")))
    if kind == "family":
        family = draw(st.sampled_from(model.FAMILIES))
        return generated(draw(st.integers(0, 2**16)), items, states, family)[1]
    grid = list(itertools.product(range(states + 1), repeat=items))
    if kind == "table":
        entries = draw(st.lists(st.integers(0, 4), min_size=len(grid), max_size=len(grid)))
    else:
        w = draw(st.lists(st.integers(0, 2), min_size=items, max_size=items))
        cap = draw(st.integers(0, 2 * items * states))
        entries = [min(cap, sum(wi * ui for wi, ui in zip(w, u))) for u in grid]
        entries[draw(st.integers(0, len(grid) - 1))] += draw(st.sampled_from((-1, 0, 1)))
    table = {u: float(e) for u, e in zip(grid, entries)}
    return TableObjective(items, states, table.__getitem__)


@settings(max_examples=150, deadline=None)
@given(f=tiny_objective())
def test_checkers_by_theorem_agree_with_pairwise_oracle(f):
    I, S = f.item_count, f.state_count
    res = model.check_lattice_submodular(f)
    assert res.ok == (pairwise_dr_witness(f) is None)
    if not res.ok:
        u, v, i, s = res.witness
        assert all(a <= b for a, b in zip(u, v))
        lhs = f.value(_join(u, i, s)) - f.value(u)
        rhs = f.value(_join(v, i, s)) - f.value(v)
        assert lhs < rhs - model.EXACT_TOL
    grid = list(itertools.product(range(S + 1), repeat=I))
    mono = model.check_monotone(f)
    assert mono.ok == all(f.value(_join(u, i, u[i] + 1)) >= f.value(u) - model.EXACT_TOL
                          for u in grid for i in range(I) if u[i] < S)
    assert mono.ok or not res.ok
    if not mono.ok:
        u, i = mono.witness
        assert f.value(_join(u, i, u[i] + 1)) < f.value(u) - model.EXACT_TOL
    table = value_table(f).reshape((S + 1,) * I)
    assert all(table[u] == f.value(u) for u in grid)


@st.composite
def objective_batch(draw):
    """A generated objective of any family and a batch of state vectors for it."""
    family = draw(st.sampled_from(model.FAMILIES))
    items = draw(st.integers(1, 20))
    states = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**16))
    rows = draw(st.integers(1, 300))
    _, f = generated(seed, items, states, family)
    u = np.random.default_rng(seed).integers(0, states + 1, size=(rows, items))
    lo = draw(st.integers(0, rows - 1))
    hi = draw(st.integers(lo + 1, rows))
    return f, u, lo, hi


@settings(max_examples=60, deadline=None)
@given(case=objective_batch())
def test_value_many_rows_do_not_depend_on_the_batch(case):
    f, u, lo, hi = case
    whole = f.value_many(u)
    assert [float(v) for v in whole] == [f.value(row) for row in u]
    assert np.array_equal(f.value_many(u[lo:hi]), whole[lo:hi])
    assert np.array_equal(f.value_many(np.asfortranarray(u)), whole)


# ---------------------------------------------------------------------------
# objective construction


def test_make_objective_modular():
    f = model.make_objective("separable_concave", {"weights": [1.0, 1.0], "g": [0, 1, 2]})
    assert f.value([2, 1]) == 3.0


def test_nested_coverage_violation_names_state():
    with pytest.raises(ValidationError) as err:
        model.make_objective("nested_coverage", {
            "covers": [[[0, 1], [1]]],  # state 2 loses element 0
            "element_weights": [1.0, 1.0],
        })
    assert "covers[0][1]" in str(err.value)


def test_concave_over_modular_cap_is_lattice_submodular():
    f = model.make_objective("concave_over_modular", {
        "a": [[1.0, 2.0], [1.0, 2.0]],
        "g": {"kind": "cap", "cap": 3.0},
    })
    assert model.check_lattice_submodular(f).ok
    assert model.check_monotone(f).ok


def test_non_concave_table_rejected():
    with pytest.raises(ValidationError) as err:
        model.make_objective("separable_concave", {"weights": [1.0], "g": [0, 1, 3]})
    assert "not concave" in str(err.value)


def test_negative_weight_rejected():
    with pytest.raises(ValidationError) as err:
        model.make_objective("separable_concave", {"weights": [-1.0], "g": [0, 1]})
    assert "weights[0]" in str(err.value)


def test_g_zero_at_origin_required():
    with pytest.raises(ValidationError):
        model.make_objective("separable_concave", {"weights": [1.0], "g": [0.5, 1.0]})


def test_unknown_family_rejected():
    with pytest.raises(ValidationError):
        model.make_objective("mystery", {})


@pytest.mark.parametrize("family", [["x"], {"name": "x"}, None, 3])
def test_non_string_family_is_a_validation_error(family):
    # a family that is not a name must not reach the family table as a key
    with pytest.raises(ValidationError) as err:
        model.make_objective(family, {})
    assert err.value.path == "objective.family"


def test_curve_validation():
    with pytest.raises(ValidationError):
        model.ConcaveCurve("cap", cap=-1.0)
    with pytest.raises(ValidationError):
        model.ConcaveCurve("power", exponent=1.5)
    with pytest.raises(ValidationError):
        model.ConcaveCurve("warp")


# ---------------------------------------------------------------------------
# realizations


def test_degenerate_distribution_draws_surely():
    inst = make_instance([[1.0, 0.0]], [[0.1, 0.2]], 1.0)
    for seed in range(5):
        assert policies.sample_states(inst, substream(seed, STATES), 1)[0, 0] == 1


def test_draw_frequency_concentrates():
    inst = make_instance([[0.5, 0.5]], [[0.1, 0.2]], 1.0)
    draws = policies.sample_states(inst, substream(42, 0), 100_000)
    freq = np.mean(draws[:, 0] == 1)
    assert abs(freq - 0.5) <= 0.01


@pytest.mark.parametrize("seed", [1.5, 1.0, True, "1", -1], ids=repr)
@pytest.mark.parametrize("opens", ["substream", "simulate_policies", "estimate_H", "greedy"])
def test_a_seed_that_is_not_an_integer_is_refused_where_a_stream_opens(opens, seed):
    # each would otherwise run silently at int(seed), or raise a bare ValueError below 0
    inst, f = generated(7, 2, 2)
    y = np.zeros((2, 2))
    calls = {
        "substream": lambda: substream(seed, STATES),
        "simulate_policies": lambda: policies.simulate_policies(inst, f, y, 10, seed=seed),
        "estimate_H": lambda: extension.estimate_H(y, f, 10, seed=seed),
        "greedy": lambda: optimizer.continuous_greedy(  # sampled marginals open a stream
            inst, f, optimizer.GreedyConfig(rounds=1, marginal_mode="sampled", samples=10,
                                            seed=seed)),
    }
    message = "must be nonnegative" if seed == -1 else "expected an integer"
    with pytest.raises(ValidationError, match=f"^seed: {message}"):
        calls[opens]()


def test_draw_same_seed_identical():
    inst = make_instance([[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]], [[0.1, 0.2, 0.3], [0.1, 0.1, 0.1]], 1.0)
    a, b = (policies.sample_states(inst, substream(9, STATES), 5) for _ in range(2))
    assert np.array_equal(a, b)
    assert a.shape == (5, 2) and a.flags.f_contiguous  # the kernel reads it by column


def searchsorted_states(prob, u):
    """The state sampler's oracle: each column of uniforms ``u`` looked up in its item's
    cumulative law by ``searchsorted``, clipped to the last state, 1-based."""
    out = np.empty(u.shape, dtype=np.int64)
    for i, row in enumerate(prob):
        out[:, i] = np.searchsorted(np.cumsum(row), u[:, i], side="right")
    return np.clip(out, 0, prob.shape[1] - 1) + 1


class FixedUniforms:
    """A generator stand-in whose ``random`` returns the given uniforms."""

    def __init__(self, u):
        self.u = u

    def random(self, shape):
        assert shape == self.u.shape
        return self.u.copy()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), items=st.integers(1, 4), states=st.integers(1, 5),
       runs=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_state_draws_equal_their_searchsorted_oracle_bit_for_bit(data, items, states, runs, seed):
    # laws with zero-probability states and tied thresholds, some rows an ulp or two off 1
    weights = st.sampled_from([0.0, 0.0, 0.1, 0.2, 0.25, 1 / 3, 0.5, 0.7, 1.0])
    rows = []
    for _ in range(items):
        row = np.array(data.draw(st.lists(weights, min_size=states, max_size=states)
                                 .filter(lambda w: sum(w) > 0)))
        row /= row.sum()
        k = int(np.flatnonzero(row)[-1])  # nudge a positive entry, so no probability is negative
        for _ in range(data.draw(st.integers(0, 2))):
            row[k] = np.nextafter(row[k], data.draw(st.sampled_from([0.0, 2.0])))
        rows.append(row)
    prob = np.array(rows)
    inst = make_instance(prob, np.full(prob.shape, 0.5), 1.0)
    cum = np.cumsum(prob, axis=1)
    # uniforms anywhere in [0, 1), exactly on a threshold, or one ulp to either side of it
    u = np.empty((runs, items))
    for i in range(items):
        points = [*cum[i], *np.nextafter(cum[i], 0.0), *np.nextafter(cum[i], 2.0), 0.0,
                  np.nextafter(1.0, 0.0)]
        on = st.sampled_from([p for p in points if p < 1.0])
        u[:, i] = data.draw(st.lists(st.one_of(st.floats(0.0, 1.0, exclude_max=True), on),
                                     min_size=runs, max_size=runs))
    for got, want in ((policies.sample_states(inst, FixedUniforms(u), runs),
                       searchsorted_states(prob, u)),
                      (policies.sample_states(inst, np.random.default_rng(seed), runs),
                       searchsorted_states(prob, np.random.default_rng(seed).random((runs, items))))):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.f_contiguous  # the kernel reads it by column
        assert got.tobytes() == np.asfortranarray(want).tobytes()


# ---------------------------------------------------------------------------
# file format


def test_loader_missing_budget_names_key(tmp_path):
    p = tmp_path / "inst.json"
    p.write_text(json.dumps({"items": [{"probs": [1.0], "costs": [0.5]}],
                             "objective": {"family": "separable_concave",
                                           "weights": [1.0], "g": [0, 1]}}))
    with pytest.raises(ValidationError) as err:
        model.load_instance(p)
    assert str(err.value).startswith("budget")


def test_loader_dimension_mismatch(tmp_path):
    p = tmp_path / "inst.json"
    p.write_text(json.dumps({
        "items": [{"probs": [1.0], "costs": [0.5]}],
        "budget": 1.0,
        "objective": {"family": "separable_concave", "weights": [1.0, 1.0], "g": [0, 1]},
    }))
    with pytest.raises(ValidationError) as err:
        model.load_instance(p)
    assert "objective" in str(err.value)


@pytest.mark.parametrize("edit, path", [
    (lambda d: d.update(objective=[1]), "objective"),
    (lambda d: d["objective"].pop("family"), "objective.family"),
    (lambda d: d["objective"].update(family="mystery"), "objective.family"),
    (lambda d: d["objective"].pop("g"), "objective.g"),
    (lambda d: d["items"].append(5), "items[1]"),
    (lambda d: d["items"][0].pop("costs"), "items[0]"),
    (lambda d: d.update(budget=-1.0), "instance.budget"),
    (lambda d: d.update(budget=[1.0]), "budget"),
])
def test_loader_checks_the_file_structure_and_names_the_entry(edit, path):
    payload = {"items": [{"probs": [1.0], "costs": [0.5]}], "budget": 1.0,
               "objective": {"family": "separable_concave", "weights": [1.0], "g": [0, 1]}}
    edit(payload)
    with pytest.raises(ValidationError) as err:
        model.instance_from_dict(payload)
    assert err.value.path == path


def test_digest_is_stable():
    payload = {"items": [{"probs": [1.0], "costs": [0.5]}], "budget": 1.0}
    d1 = model.instance_digest(payload)
    d2 = model.instance_digest(json.loads(json.dumps(payload)))
    assert d1 == d2 and len(d1) == 64

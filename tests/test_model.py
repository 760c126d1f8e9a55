import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stocan import model
from stocan.extension import value_table
from stocan.errors import CapacityError, ValidationError

from conftest import TableObjective, generated, make_instance, modular_objective


# ---------------------------------------------------------------------------
# instance validation


def test_valid_instance_roundtrip():
    inst = make_instance([[0.3, 0.7], [0.5, 0.5]], [[0.1, 0.4], [0.2, 0.2]], 1.0)
    assert inst.item_count == 2
    assert inst.state_count == 2
    d = inst.to_dict()
    assert d["budget"] == 1.0
    assert d["items"][1]["costs"] == [0.2, 0.2]


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
    assert model.h_eval([], f) == 0.0
    g = model.make_objective("separable_concave", {"weights": [1.0], "g": [0.0, 0.5]})
    assert model.h_eval([], g) == 0.0


def test_h_max_reduction_forced():
    # two states of the same item collapse to the higher one
    f = modular_objective([1.0, 1.0], 2)
    assert model.h_eval([(0, 1), (0, 2), (1, 1)], f) == 3.0


def test_h_nested_coverage_matches_set_union():
    covers = [[[0], [0, 1]], [[1, 2], [1, 2]]]
    weights = [0.5, 0.7, 1.1]
    f = model.make_objective(
        "nested_coverage", {"covers": covers, "element_weights": weights}
    )
    # independent computation with plain python sets
    union = set(covers[0][0]) | set(covers[1][0])
    expected = sum(weights[e] for e in union)
    assert model.h_eval([(0, 1), (1, 1)], f) == pytest.approx(expected, abs=1e-12)


def test_h_rejects_out_of_range_pairs():
    f = modular_objective([1.0], 2)
    with pytest.raises(ValidationError):
        model.h_eval([(1, 1)], f)
    with pytest.raises(ValidationError):
        model.h_eval([(0, 3)], f)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(1, 3)), max_size=12))
def test_h_invariant_under_max_reduction(pairs):
    f = model.make_objective(
        "separable_concave", {"weights": [1.0, 0.5, 2.0], "g": [0.0, 1.0, 1.7, 2.1]}
    )
    top = {}
    for i, s in pairs:
        top[i] = max(top.get(i, 0), s)
    reduced = list(top.items())
    assert model.h_eval(pairs, f) == model.h_eval(reduced, f)


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
    f = TableObjective(12, 4, lambda u: float(sum(u)))
    with pytest.raises(CapacityError) as err:
        model.check_monotone(f)
    assert "sampled" in str(err.value)
    assert model.check_monotone(f, mode="sampled", samples=500, seed=3).ok


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
    with pytest.raises(CapacityError):
        model.check_lattice_submodular(f)
    assert model.check_lattice_submodular(f, mode="sampled", samples=400, seed=5).ok


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


def test_objective_serialization_roundtrip():
    for family, seed in [("separable_concave", 1), ("nested_coverage", 2),
                         ("concave_over_modular", 3)]:
        _, f = generated(seed, 2, 2, family)
        f2 = model.objective_from_dict(json.loads(json.dumps(f.to_dict())))
        grid = model.enumerate_state_vectors(2, 2)
        assert np.allclose(f.value_many(grid), f2.value_many(grid), atol=0)


# ---------------------------------------------------------------------------
# realizations


def test_degenerate_distribution_draws_surely():
    inst = make_instance([[1.0, 0.0]], [[0.1, 0.2]], 1.0)
    for seed in range(5):
        assert model.draw_realization(inst, seed)[0] == 1


def test_draw_frequency_concentrates():
    inst = make_instance([[0.5, 0.5]], [[0.1, 0.2]], 1.0)
    draws = model.sample_states(inst, model.substream(42, 0), 100_000)
    freq = np.mean(draws[:, 0] == 1)
    assert abs(freq - 0.5) <= 0.01


def test_draw_same_seed_identical():
    inst = make_instance([[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]], [[0.1, 0.2, 0.3], [0.1, 0.1, 0.1]], 1.0)
    assert np.array_equal(model.draw_realization(inst, 9), model.draw_realization(inst, 9))
    assert model.draw_realization(inst, 9).shape == (2,)


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


def test_save_load_roundtrip(tmp_path):
    inst, f = generated(77, 2, 2, "concave_over_modular")
    p = tmp_path / "inst.json"
    model.save_instance(p, inst, f)
    inst2, f2 = model.load_instance(p)
    assert np.array_equal(inst.prob, inst2.prob)
    assert np.array_equal(inst.cost, inst2.cost)
    grid = model.enumerate_state_vectors(2, 2)
    assert np.allclose(f.value_many(grid), f2.value_many(grid), atol=0)


def test_digest_is_stable():
    payload = {"items": [{"probs": [1.0], "costs": [0.5]}], "budget": 1.0}
    d1 = model.instance_digest(payload)
    d2 = model.instance_digest(json.loads(json.dumps(payload)))
    assert d1 == d2 and len(d1) == 64

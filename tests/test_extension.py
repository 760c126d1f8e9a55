import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stocan import extension, harness, model
from stocan.errors import CapacityError, ValidationError
from stocan.rng import ESTIMATE, OPTIMIZER, substream

from conftest import TableObjective, generated, modular_objective
from enumeration_oracles import exact_H_bruteforce


def random_point(objective, rng):
    return rng.random((objective.item_count, objective.state_count))


def modular_H_closed_form(x, weights):
    """Independent oracle for modular objectives: per item, the law of the
    maximum included state under independent Bernoulli inclusions."""
    I, S = x.shape
    total = 0.0
    for i in range(I):
        e = 0.0
        for s in range(1, S + 1):
            tail = 1.0
            for s2 in range(s + 1, S + 1):
                tail *= 1.0 - x[i, s2 - 1]
            e += s * x[i, s - 1] * tail
        total += weights[i] * e
    return total


# ---------------------------------------------------------------------------
# exact evaluators


def test_bruteforce_zero_matrix_gives_base_value():
    f = modular_objective([1.0, 2.0], 2)
    assert exact_H_bruteforce(np.zeros((2, 2)), f) == 0.0


def test_bruteforce_single_bernoulli():
    f = modular_objective([1.0], 1)
    assert exact_H_bruteforce(np.array([[0.5]]), f) == pytest.approx(0.5, abs=1e-15)


def test_bruteforce_matches_modular_closed_form():
    rng = substream(7, 0)
    f = modular_objective([1.0, 0.7], 2)
    for _ in range(10):
        x = rng.random((2, 2))
        expected = modular_H_closed_form(x, [1.0, 0.7])
        assert exact_H_bruteforce(x, f) == pytest.approx(expected, abs=1e-12)


def test_bruteforce_guard():
    f = modular_objective([1.0] * 11, 2)
    with pytest.raises(CapacityError) as err:
        exact_H_bruteforce(np.zeros((11, 2)), f)
    assert "estimate_H" in str(err.value)


def test_factored_equals_bruteforce_on_random_points():
    rng = substream(11, 0)
    shapes = [(1, 2), (2, 2), (3, 2), (2, 3), (1, 6), (4, 2), (3, 3), (2, 5)]
    for k in range(30):
        items, states = shapes[k % len(shapes)]
        _, f = generated(300 + k, items, states, ["separable_concave", "nested_coverage",
                                                  "concave_over_modular"][k % 3])
        x = rng.random((items, states))
        hb = exact_H_bruteforce(x, f)
        hf = extension.FactoredExtension(f).H(x)
        assert hf == pytest.approx(hb, abs=1e-12)


def test_factored_top_states_forced():
    _, f = generated(55, 3, 2, "nested_coverage")
    x = np.zeros((3, 2))
    x[:, 1] = 1.0
    assert extension.FactoredExtension(f).H(x) == pytest.approx(f.value([2, 2, 2]), abs=1e-12)


def test_factored_single_item_by_hand():
    # subsets: {} 1/4 -> 0, {s1} 1/4 -> 1, {s2},{s1,s2} 1/2 -> 2
    f = modular_objective([1.0], 2)
    x = np.array([[0.5, 0.5]])
    assert extension.FactoredExtension(f).H(x) == pytest.approx(1.25, abs=1e-15)


def test_fractional_input_validated():
    f = modular_objective([1.0], 2)
    with pytest.raises(ValidationError):
        extension.FactoredExtension(f).H(np.array([[0.5, 1.5]]))
    with pytest.raises(ValidationError):
        extension.FactoredExtension(f).H(np.array([[0.5]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_fractional_input_rejected(bad):
    f = modular_objective([1.0], 2)
    ext = extension.FactoredExtension(f)
    x = np.array([[0.5, bad]])
    for evaluate in (ext.H, ext.marginals, lambda x: exact_H_bruteforce(x, f)):
        with pytest.raises(ValidationError, match="finite") as err:
            evaluate(x)
        assert err.value.path == "x"


# ---------------------------------------------------------------------------
# Monte Carlo estimator


def test_estimate_within_four_stderr_of_exact():
    rng = substream(13, 0)
    for k in range(10):
        _, f = generated(400 + k, 2, 2, ["separable_concave", "nested_coverage",
                                         "concave_over_modular"][k % 3])
        x = rng.random((2, 2))
        exact = extension.FactoredExtension(f).H(x)
        est, err = extension.estimate_H(x, f, 20_000, seed=k)
        assert abs(est - exact) <= 4 * err


def test_estimate_deterministic_x_has_zero_stderr():
    f = modular_objective([1.0, 1.0], 2)
    x = np.array([[0.0, 1.0], [1.0, 0.0]])
    est, err = extension.estimate_H(x, f, 500, seed=3)
    assert err == 0.0
    assert est == pytest.approx(f.value([2, 1]), abs=1e-15)


def test_estimate_seed_reproducible():
    _, f = generated(21, 2, 2)
    x = np.full((2, 2), 0.4)
    a = extension.estimate_H(x, f, 5000, seed=9)
    b = extension.estimate_H(x, f, 5000, seed=9)
    assert a == b


@pytest.mark.parametrize("samples", [2.5, 2.0, True, "100", 0])
@pytest.mark.parametrize("estimator", ["estimate_H", "sampled_marginals"])
def test_a_sample_count_that_is_not_a_positive_integer_is_a_validation_error(estimator, samples):
    f = modular_objective([1.0], 1)
    with pytest.raises(ValidationError) as err:
        if estimator == "estimate_H":
            extension.estimate_H(np.array([[0.5]]), f, samples, 0)
        else:
            extension.sampled_marginals(np.array([[0.5]]), f, samples, substream(0, OPTIMIZER))
    assert err.value.path == "samples"


def test_the_sampler_draws_one_block_of_uniforms_across_chunk_boundaries():
    # the draws are the same as one (samples, I, S) block of uniforms, cut into _CHUNK rows
    _, f = generated(22, 3, 2, "nested_coverage")
    x = np.array([[0.2, 0.5], [0.0, 1.0], [0.7, 0.1]])
    samples = 2 * extension._CHUNK + 5
    u = substream(9, ESTIMATE).random((samples, 3, 2)) < x
    states = np.max(np.where(u, np.arange(1, 3), 0), axis=2)
    vals = f.value_many(states)
    assert extension.estimate_H(x, f, samples, 9) == (
        float(np.mean(vals)), float(np.std(vals, ddof=1) / math.sqrt(samples)))
    blocks = [states[k:k + extension._CHUNK] for k in range(0, samples, extension._CHUNK)]
    drawn = list(extension._max_state_draws(x, f, samples, substream(9, ESTIMATE)))
    assert [b.tolist() for b in drawn] == [b.tolist() for b in blocks]


def test_estimate_single_sample_flagged():
    f = modular_objective([1.0], 1)
    est, err = extension.estimate_H(np.array([[0.5]]), f, 1, seed=0)
    assert math.isnan(err)
    assert est in (0.0, 1.0)


# ---------------------------------------------------------------------------
# marginal weights


def test_marginal_zero_when_pair_certain():
    _, f = generated(61, 2, 2, "nested_coverage")
    x = np.array([[1.0, 0.3], [0.2, 0.6]])
    omega = extension.FactoredExtension(f).marginals(x)
    assert abs(omega[0, 0]) <= 1e-12


def test_marginal_at_zero_is_state_value_for_modular():
    f = modular_objective([1.0, 1.0], 3)
    omega = extension.FactoredExtension(f).marginals(np.zeros((2, 3)))
    for i in range(2):
        for s in range(1, 4):
            assert omega[i, s - 1] == pytest.approx(s, abs=1e-12)


def test_marginals_exact_vs_sampled_common_random():
    rng = substream(17, 0)
    for k in range(4):
        _, f = generated(500 + k, 2, 2, ["separable_concave", "concave_over_modular"][k % 2])
        x = rng.random((2, 2)) * 0.8
        exact = extension.FactoredExtension(f).marginals(x)
        est, err = extension.sampled_marginals(x, f, 100_000, substream(k, OPTIMIZER))
        assert np.all(np.abs(est - exact) <= 4 * err + 1e-12)


@st.composite
def small_instance_point(draw):
    """A family, a shape with I*S <= 12, a generator seed and a point x."""
    family = draw(st.sampled_from(harness.FAMILIES))
    items = draw(st.integers(1, 12))
    states = draw(st.integers(1, 12 // items))
    seed = draw(st.integers(0, 2**16))
    entries = draw(st.lists(st.floats(0.0, 1.0), min_size=items * states,
                            max_size=items * states))
    return family, items, states, seed, entries


@settings(max_examples=60, deadline=None)
@given(case=small_instance_point())
# single item, and odd item counts whose halving splits are unequal
@example(case=("nested_coverage", 1, 4, 3, [0.3, 0.0, 1.0, 0.6]))
@example(case=("concave_over_modular", 3, 2, 4, [0.2, 0.9, 0.5, 0.0, 1.0, 0.4]))
@example(case=("separable_concave", 5, 2, 5, [0.1, 0.7, 0.3, 0.3, 0.8, 0.2, 0.0, 0.5, 0.9, 0.6]))
@example(case=("nested_coverage", 7, 1, 6, [0.5, 0.1, 0.9, 0.3, 0.7, 0.2, 0.4]))
@example(case=("concave_over_modular", 11, 1, 7, [0.05 * k for k in range(1, 12)]))
def test_marginals_match_bruteforce_oracle(case):
    family, items, states, seed, entries = case
    _, f = generated(seed, items, states, family)
    x = np.array(entries).reshape(items, states)
    omega = extension.FactoredExtension(f).marginals(x)
    base = exact_H_bruteforce(x, f)
    for i in range(items):
        for s in range(1, states + 1):
            forced = x.copy()
            forced[i, s - 1] = 1.0
            expected = exact_H_bruteforce(forced, f) - base
            assert omega[i, s - 1] == pytest.approx(expected, abs=1e-12)


def _normalized_laws(law_entries, I, S):
    laws = np.array(law_entries).reshape(I, S + 1)
    laws[laws.sum(axis=1) == 0, 0] = 1.0  # an all-zero row becomes a point mass on state 0
    return laws / laws.sum(axis=1, keepdims=True)


@st.composite
def closed_form_case(draw):
    """Parameters of a separable or coverage objective with (S+1)^I <= 1024, a point x and laws.

    Weights may be 0, covers empty or full, and x and the laws may hold 0/1 entries.
    """
    family = draw(st.sampled_from(["separable_concave", "nested_coverage"]))
    items = draw(st.integers(1, 6))
    states = draw(st.integers(1, max(s for s in range(1, 5) if (s + 1) ** items <= 1024)))
    weight = st.one_of(st.just(0.0), st.floats(0.0, 2.0))
    if family == "separable_concave":
        steps = sorted(draw(st.lists(weight, min_size=states, max_size=states)), reverse=True)
        params = {"weights": draw(st.lists(weight, min_size=items, max_size=items)),
                  "g": [0.0, *itertools.accumulate(steps)]}
    else:
        m = draw(st.integers(1, 5))
        # the state from which item i covers element e; states + 1 is never
        enters = draw(st.lists(st.lists(st.integers(1, states + 1), min_size=m, max_size=m),
                               min_size=items, max_size=items))
        params = {"element_weights": draw(st.lists(weight, min_size=m, max_size=m)),
                  "covers": [[[e for e in range(m) if row[e] <= s] for s in range(1, states + 1)]
                             for row in enters]}
    entry = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    x = draw(st.lists(entry, min_size=items * states, max_size=items * states))
    laws = draw(st.lists(entry, min_size=items * (states + 1), max_size=items * (states + 1)))
    return family, params, x, laws


@settings(max_examples=150, deadline=None)
@given(case=closed_form_case())
@example(case=("separable_concave", {"weights": [0.7], "g": [0.0, 1.3]}, [0.4], [0.5, 0.5]))
@example(case=("nested_coverage", {"element_weights": [0.6], "covers": [[[0]]]}, [1.0], [0.0, 1.0]))
@example(case=("separable_concave", {"weights": [0.0, 1.5, 0.0], "g": [0.0, 1.0, 1.5]},
               [0.0, 1.0, 0.3, 1.0, 0.2, 0.0], [1.0, 0.0, 0.0, 0.2, 0.3, 0.5, 0.0, 0.0, 1.0]))
@example(case=("nested_coverage", {"element_weights": [0.0, 0.8, 1.2],
                                   "covers": [[[], []], [[], [0, 1, 2]], [[0, 1, 2], [0, 1, 2]]]},
               [0.5, 1.0, 0.0, 0.7, 1.0, 1.0], [0.2, 0.3, 0.5, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0]))
@example(case=("nested_coverage", {"element_weights": [1.0, 2.0], "covers": [[[]], [[]]]},
               [0.5, 0.5], [0.5, 0.5, 0.0, 1.0]))
def test_closed_forms_match_the_tensor_path(case):
    family, params, entries, law_entries = case
    f = model.make_objective(family, params)
    I, S = f.item_count, f.state_count
    x = np.array(entries).reshape(I, S)
    laws = _normalized_laws(law_entries, I, S)
    # the same f under a family with no closed form takes the tensor path: value_table,
    # _contract_leading and _leave_one_out
    closed = extension.FactoredExtension(f)
    tensor = extension.FactoredExtension(TableObjective(I, S, f.value))
    assert np.allclose(closed.marginals(x), tensor.marginals(x), rtol=0.0, atol=1e-12)
    assert closed.H(x) == pytest.approx(tensor.H(x), abs=1e-12)
    assert closed.expect(laws) == pytest.approx(tensor.expect(laws), abs=1e-12)
    assert getattr(f, "_value_table", None) is None  # the closed forms read no table
    # I * S <= 16, within the subset enumeration's guard
    assert closed.H(x) == pytest.approx(exact_H_bruteforce(x, f), abs=1e-12)


@st.composite
def cap_curve_case(draw):
    """A ``cap``-curve ``concave_over_modular`` objective with (S+1)^I <= 1024, a point x and laws.

    I = 1 and odd I split the items unequally, scale is never 1, the cap lies below every
    positive sum, above the largest, on a sum of an A-part and a B-part, or anywhere, and x and
    the laws may hold 0/1 entries.
    """
    items = draw(st.integers(1, 6))
    states = draw(st.integers(1, max(s for s in range(1, 5) if (s + 1) ** items <= 1024)))
    # no subnormal steps: half the least positive sum must stay positive, a valid cap
    step = st.one_of(st.just(0.0), st.floats(0.0, 2.0, allow_subnormal=False))
    a = [list(itertools.accumulate(draw(st.lists(step, min_size=states, max_size=states))))
         for _ in range(items)]
    m = (items + 1) // 2
    u = draw(st.lists(st.integers(0, states - 1), min_size=items, max_size=items))
    split = sum(a[i][u[i]] for i in range(m)) + sum(a[i][u[i]] for i in range(m, items))
    cap = draw(st.sampled_from([
        min([v for row in a for v in row if v > 0], default=1.0) / 2,
        sum(row[-1] for row in a) + 1.0,
        split if split > 0 else 1.0,
        draw(st.floats(1e-3, 1.5 * sum(row[-1] for row in a) + 1e-3))]))
    scale = draw(st.floats(0.1, 4.0).filter(lambda v: v != 1.0))
    entry = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    x = draw(st.lists(entry, min_size=items * states, max_size=items * states))
    laws = draw(st.lists(entry, min_size=items * (states + 1), max_size=items * (states + 1)))
    return {"a": a, "g": {"kind": "cap", "cap": cap, "scale": scale}}, x, laws


@settings(max_examples=150, deadline=None)
@given(case=cap_curve_case())
# one item; the cap below every positive sum; above the largest
@example(case=({"a": [[0.4, 1.1]], "g": {"kind": "cap", "cap": 0.7, "scale": 2.5}},
               [0.3, 0.6], [0.2, 0.5, 0.3]))
@example(case=({"a": [[0.5], [0.25], [0.75]], "g": {"kind": "cap", "cap": 0.125, "scale": 3.0}},
               [0.5, 1.0, 0.0], [0.5, 0.5, 0.0, 1.0, 1.0, 0.0]))
@example(case=({"a": [[0.5, 1.0], [0.25, 0.5], [0.75, 1.0]],
                "g": {"kind": "cap", "cap": 9.0, "scale": 0.5}},
               [0.5, 1.0, 0.2, 0.0, 1.0, 0.7], [0.2, 0.3, 0.5, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0]))
# the cap equals an A-sum plus a B-sum exactly: 0.5 + 0.25 (A) + 0.75 (B) = 1.5
@example(case=({"a": [[0.5, 1.0], [0.25, 0.5], [0.75, 1.0]],
                "g": {"kind": "cap", "cap": 1.5, "scale": 1.5}},
               [0.5, 0.5, 0.5, 0.5, 0.5, 0.5], [0.3, 0.3, 0.4, 0.1, 0.6, 0.3, 0.5, 0.25, 0.25]))
def test_cap_curve_matches_the_tensor_path(case):
    params, entries, law_entries = case
    f = model.make_objective("concave_over_modular", params)
    I, S = f.item_count, f.state_count
    x = np.array(entries).reshape(I, S)
    laws = _normalized_laws(law_entries, I, S)
    mitm = extension.FactoredExtension(f)
    tensor = extension.FactoredExtension(TableObjective(I, S, f.value))
    q, _ = extension._max_state_laws(x)
    assert np.allclose(mitm._W(q), tensor._W(q), rtol=0.0, atol=1e-12)
    assert np.allclose(mitm.marginals(x), tensor.marginals(x), rtol=0.0, atol=1e-12)
    assert mitm.H(x) == pytest.approx(tensor.H(x), abs=1e-12)
    assert mitm.expect(laws) == pytest.approx(tensor.expect(laws), abs=1e-12)
    assert getattr(f, "_value_table", None) is None  # the meet in the middle reads no table


@pytest.mark.parametrize("a, cap, scale", [
    ([[1e308, 1.5e308], [1.7e308, 1.7e308], [0.5, 1e308]], 2.0, 3.0),  # sums overflow past the cap
    ([[0.5, 1.0], [0.25, 1.5]], 1.5e308, 2.0),  # the values stay below a cap that scale overflows
    ([[1e308], [1e308]], 1e308, 1.0),  # every value near the float range
])
def test_cap_curve_with_huge_numbers_stays_finite_like_the_tensor_path(a, cap, scale):
    f = model.make_objective("concave_over_modular",
                             {"a": a, "g": {"kind": "cap", "cap": cap, "scale": scale}})
    I, S = f.item_count, f.state_count
    x = np.linspace(0.1, 0.9, I * S).reshape(I, S)
    with np.errstate(over="ignore", invalid="ignore"):  # the guarded overflows are expected
        mitm = extension.FactoredExtension(f)
        tensor = extension.FactoredExtension(TableObjective(I, S, f.value))
        got, want = mitm.marginals(x), tensor.marginals(x)
        H = mitm.H(x)
    assert np.all(np.isfinite(got)) and math.isfinite(H)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    assert H == pytest.approx(tensor.H(x), rel=1e-12)


def test_cap_curve_overflowing_value_is_an_input_error_like_the_tensor_path():
    # scale * cap overflows, and the all-S sum passes the cap
    f = model.make_objective("concave_over_modular",
                             {"a": [[1e308], [1e308]], "g": {"kind": "cap", "cap": 1e308, "scale": 2.0}})
    with np.errstate(over="ignore"):
        for objective in (f, TableObjective(2, 1, f.value)):
            with pytest.raises(ValidationError, match="a value overflowed the float range"):
                extension.FactoredExtension(objective)


def test_marginals_nonnegative_for_monotone():
    rng = substream(19, 0)
    _, f = generated(71, 3, 2, "nested_coverage")
    omega = extension.FactoredExtension(f).marginals(rng.random((3, 2)))
    assert np.all(omega >= -1e-12)


# ---------------------------------------------------------------------------
# structural properties of H


@settings(max_examples=40, deadline=None)
@given(
    entries=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    pair=st.tuples(st.integers(0, 1), st.integers(0, 1)),
    lam=st.floats(0.0, 1.0),
)
def test_multilinearity_in_each_coordinate(entries, pair, lam):
    f = model.make_objective("nested_coverage", {
        "covers": [[[0], [0, 1]], [[1, 2], [1, 2]]],
        "element_weights": [1.0, 0.8, 0.5],
    })
    ext = extension.FactoredExtension(f)
    x = np.array(entries).reshape(2, 2)
    x0, x1 = x.copy(), x.copy()
    x0[pair] = 0.0
    x1[pair] = 1.0
    x[pair] = lam
    blend = (1 - lam) * ext.H(x0) + lam * ext.H(x1)
    assert ext.H(x) == pytest.approx(blend, abs=1e-12)


def test_monotone_in_inclusion_probabilities():
    rng = substream(23, 0)
    _, f = generated(81, 2, 3, "separable_concave")
    ext = extension.FactoredExtension(f)
    for _ in range(20):
        x = rng.random((2, 3))
        bump = rng.random((2, 3)) * (1 - x)
        assert ext.H(x) <= ext.H(x + bump) + 1e-12


def test_concave_along_nonnegative_directions():
    rng = substream(29, 0)
    eps = 0.05
    for k in range(20):
        _, f = generated(600 + k, 2, 2, ["separable_concave", "nested_coverage",
                                         "concave_over_modular"][k % 3])
        ext = extension.FactoredExtension(f)
        x = rng.random((2, 2)) * 0.4
        d = rng.random((2, 2))  # x + 2*eps*d stays inside [0, 1]
        second_diff = ext.H(x) - 2 * ext.H(x + eps * d) + ext.H(x + 2 * eps * d)
        assert second_diff <= 1e-9


def test_scaling_lower_bounds():
    rng = substream(31, 0)
    for k in range(15):
        _, f = generated(700 + k, 2, 2, ["separable_concave", "nested_coverage",
                                         "concave_over_modular"][k % 3])
        ext = extension.FactoredExtension(f)
        x = rng.random((2, 2))
        h = ext.H(x)
        assert ext.H(x / 4) >= h / 4 - 1e-12
        assert ext.H(x / 8) >= h / 8 - 1e-12

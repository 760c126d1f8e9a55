import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stocan import extension, harness, model
from stocan.errors import CapacityError, ValidationError
from stocan.rng import OPTIMIZER, substream

from conftest import generated, modular_objective


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
    assert extension.exact_H_bruteforce(np.zeros((2, 2)), f) == 0.0


def test_bruteforce_single_bernoulli():
    f = modular_objective([1.0], 1)
    assert extension.exact_H_bruteforce(np.array([[0.5]]), f) == pytest.approx(0.5, abs=1e-15)


def test_bruteforce_matches_modular_closed_form():
    rng = substream(7, 0)
    f = modular_objective([1.0, 0.7], 2)
    for _ in range(10):
        x = rng.random((2, 2))
        expected = modular_H_closed_form(x, [1.0, 0.7])
        assert extension.exact_H_bruteforce(x, f) == pytest.approx(expected, abs=1e-12)


def test_bruteforce_guard():
    f = modular_objective([1.0] * 11, 2)
    with pytest.raises(CapacityError) as err:
        extension.exact_H_bruteforce(np.zeros((11, 2)), f)
    assert "estimate_H" in str(err.value)


def test_factored_equals_bruteforce_on_random_points():
    rng = substream(11, 0)
    shapes = [(1, 2), (2, 2), (3, 2), (2, 3), (1, 6), (4, 2), (3, 3), (2, 5)]
    for k in range(30):
        items, states = shapes[k % len(shapes)]
        _, f = generated(300 + k, items, states, ["separable_concave", "nested_coverage",
                                                  "concave_over_modular"][k % 3])
        x = rng.random((items, states))
        hb = extension.exact_H_bruteforce(x, f)
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
    for evaluate in (ext.H, ext.marginals, lambda x: extension.exact_H_bruteforce(x, f)):
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
    base = extension.exact_H_bruteforce(x, f)
    for i in range(items):
        for s in range(1, states + 1):
            forced = x.copy()
            forced[i, s - 1] = 1.0
            expected = extension.exact_H_bruteforce(forced, f) - base
            assert omega[i, s - 1] == pytest.approx(expected, abs=1e-12)


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

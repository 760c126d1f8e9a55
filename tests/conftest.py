from importlib import resources

import numpy as np
import pytest

from stocan import harness, model


class TableObjective(model.LatticeObjective):
    """Ad-hoc objective from a plain python function, for checker tests."""

    family = "table"

    def __init__(self, item_count, state_count, fn):
        super().__init__(item_count, state_count)
        self.fn = fn

    def value_many(self, u):
        return np.array([self.fn(tuple(int(v) for v in row)) for row in u], dtype=float)


def reference_suite_paths() -> list:
    """Paths of the bundled tiny reference instances, sorted by name."""
    root = resources.files("stocan").joinpath("data/reference")
    return sorted((p for p in root.iterdir() if p.name.endswith(".json")), key=lambda p: p.name)


def make_instance(probs, costs, budget):
    return model.Instance(np.array(probs, dtype=float), np.array(costs, dtype=float), budget)


def modular_objective(weights, state_count):
    """f(u) = sum w_i * u_i (linear g)."""
    return model.make_objective(
        "separable_concave",
        {"weights": list(weights), "g": list(range(state_count + 1))},
    )


def generated(seed, items, states, family="separable_concave"):
    payload = harness.generate_instance(items, states, family, seed=seed)
    return model.instance_from_dict(payload)


def generated_suite(seeds, sizes, families=harness.FAMILIES):
    """Deterministic batch of generated (instance, objective) pairs."""
    out = []
    for k, seed in enumerate(seeds):
        items, states = sizes[k % len(sizes)]
        out.append(generated(seed, items, states, families[k % len(families)]))
    return out


@pytest.fixture
def single_item_unit():
    """The closed-form instance: one item, one state, p = c = B = 1."""
    inst = make_instance([[1.0]], [[1.0]], 1.0)
    objective = modular_objective([1.0], 1)
    return inst, objective

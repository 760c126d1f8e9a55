"""Seeded instance files for the benchmark workloads.

The benchmark generates its own inputs, so they stay the same across
versions of the program under test: the program only ever sees the
files written here. Every instance is valid by construction (rows of
probabilities sum to one, costs are nondecreasing in the state and
individually affordable, objective tables are concave and
nondecreasing), with budget 1 so realized costs fall on both sides of
B/2.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

ELEMENTS = 6  # universe size of nested_coverage objectives


def rng_for(seed: int, *path: int) -> np.random.Generator:
    """Generator for the benchmark substream ``(seed, *path)``."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, path)]))


def make_instance(rng: np.random.Generator, items: int, states: int, family: str) -> dict:
    """One instance payload in the program's JSON file format."""
    rows = []
    for _ in range(items):
        probs = rng.dirichlet(np.ones(states))
        costs = np.sort(rng.uniform(0.05, 1.0, size=states))
        rows.append({"probs": probs.tolist(), "costs": costs.tolist()})
    if family == "separable_concave":
        increments = np.sort(rng.uniform(0.2, 1.0, size=states))[::-1]
        objective = {"weights": rng.uniform(0.5, 1.5, size=items).tolist(),
                     "g": [0.0, *np.cumsum(increments).tolist()]}
    elif family == "nested_coverage":
        covers = []
        for _ in range(items):
            current = set(rng.choice(ELEMENTS, size=int(rng.integers(1, 3)), replace=False).tolist())
            levels = [sorted(current)]
            for _ in range(states - 1):
                current |= {e for e in range(ELEMENTS) if rng.random() < 0.4}
                levels.append(sorted(current))
            covers.append(levels)
        objective = {"covers": covers,
                     "element_weights": rng.uniform(0.3, 1.0, size=ELEMENTS).tolist()}
    elif family == "concave_over_modular":
        a = np.cumsum(rng.uniform(0.2, 1.0, size=(items, states)), axis=1)
        objective = {"a": a.tolist(),
                     "g": {"kind": "cap", "cap": float(rng.uniform(0.3, 0.8) * a[:, -1].sum()),
                           "scale": 1.0}}
    else:
        raise ValueError(f"unknown family {family!r}")
    return {"items": rows, "budget": 1.0, "objective": {"family": family, **objective}}


def write_instance(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path

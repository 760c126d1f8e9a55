"""Named, reproducible random substreams.

All randomness in the package flows from a single integer master seed.
Independent concerns (H estimates, state draws, accept coins, branch
coins, arrival orders, optimizer sampling, instance generation, sampled
structure checks) read from disjoint substreams so that, e.g., the same state realizations can be replayed
against different policies for paired comparisons.
"""

from __future__ import annotations

import numpy as np

# Stream identifiers. Values are part of the reproducibility contract:
# changing them changes every seeded result.
ESTIMATE = 0
STATES = 1
COINS = 2
BRANCH = 3
ORDERS = 4
OPTIMIZER = 5
GENERATOR = 6
CHECKS = 7


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return a generator for the substream addressed by ``path``.

    The same ``(seed, *path)`` always yields an identical stream, and
    distinct paths yield statistically independent streams, except that
    paths differing only by trailing zeros alias: ``substream(seed, 5, 0)``
    is ``substream(seed, 5)``. No two streams the package reads alias.
    """
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, path)]))

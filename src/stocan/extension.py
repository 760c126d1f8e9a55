"""Expected value of the lifted set function under independent inclusion.

For an ``I x S`` matrix ``x`` of inclusion probabilities, ``H(x)`` is the
expectation of the lifted set function over the random pair set that
contains each ``(i, s)`` independently with probability ``x[i, s-1]``.

Two exact evaluators are provided and cross-validate each other:

* :func:`exact_H_bruteforce` enumerates all ``2^(I*S)`` pair subsets;
* :class:`FactoredExtension` exploits that the value depends only on each
  item's maximum included state, whose law factorizes across items:

      q_i(s) = x_is * prod_{s' > s} (1 - x_is'),   q_i(0) = prod_s (1 - x_is)

  so ``H(x) = sum_u f(u) * prod_i q_i(u_i)`` over ``u in {0..S}^I``. The
  objective is tabulated once as the ``(S+1)^I`` value tensor, and ``H`` is
  that tensor contracted with ``q_0, ..., q_{I-1}``, one item axis at a
  time. Marginal weights need, for every item ``i``, the tensor contracted
  with every law but ``q_i``; one divide-and-conquer pass (variable
  elimination) yields all ``I`` of these leave-one-out vectors.

Every contraction sums ``S+1`` terms in a fixed order with elementwise
numpy operations, never a long dot product, so results do not depend on
how a threaded BLAS would split a sum. The factored form is the production
path; the brute force is its oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityError, ValidationError
from .model import LatticeObjective, enumerate_state_vectors
from .rng import ESTIMATE, substream

BRUTEFORCE_GUARD = 20  # max I*S for subset enumeration
_CHUNK = 1 << 14


def check_fractional(x: np.ndarray, objective: LatticeObjective) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (objective.item_count, objective.state_count):
        raise ValidationError(
            "x", f"expected shape {(objective.item_count, objective.state_count)}, got {x.shape}"
        )
    if not np.all((x >= -1e-12) & (x <= 1 + 1e-12)):  # false for NaN too
        if not np.all(np.isfinite(x)):
            raise ValidationError("x", "entries must be finite")
        raise ValidationError("x", "entries must lie in [0, 1]")
    return np.clip(x, 0.0, 1.0)


def exact_H_bruteforce(x: np.ndarray, objective: LatticeObjective) -> float:
    """Exact H by enumerating every subset of item-state pairs."""
    x = check_fractional(x, objective)
    I, S = x.shape
    E = I * S
    if E > BRUTEFORCE_GUARD:
        raise CapacityError(
            f"I*S = {E} exceeds the 2^{BRUTEFORCE_GUARD} subset guard; "
            "use FactoredExtension or estimate_H"
        )
    flat = x.reshape(-1)
    total = 0.0
    n = 1 << E
    bit_cols = np.arange(E)
    state_vals = np.arange(1, S + 1)
    for start in range(0, n, _CHUNK):
        masks = np.arange(start, min(start + _CHUNK, n), dtype=np.int64)
        bits = (masks[:, None] >> bit_cols) & 1  # (chunk, E)
        probs = np.prod(np.where(bits == 1, flat, 1.0 - flat), axis=1)
        incl = bits.reshape(-1, I, S).astype(bool)
        u = np.max(np.where(incl, state_vals[None, None, :], 0), axis=2)
        total += float(np.dot(objective.value_many(u), probs))
    return total


def _max_state_laws(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-item laws of the maximum included state, and their suffix products.

    Both have shape ``(I, S+1)``. ``q[i, s]`` is the probability that the
    highest included state of item ``i`` equals ``s`` (0 meaning none is
    included); ``suffix[i, s] = prod_{s' > s} (1 - x_is')`` is the
    probability that it is at most ``s``.
    """
    suffix = np.ones((x.shape[0], x.shape[1] + 1))
    suffix[:, -2::-1] = np.cumprod(1.0 - x[:, ::-1], axis=1)
    q = np.empty_like(suffix)
    q[:, 0] = suffix[:, 0]
    q[:, 1:] = x * suffix[:, 1:]
    return q, suffix


def _weighted_sum(slices: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``sum_k q[k] * slices[k]``, added in the order of ``k``."""
    t = slices[0] * q[0]
    for k in range(1, q.size):
        t += slices[k] * q[k]
    return t


def _contract_leading(t: np.ndarray, laws: np.ndarray) -> np.ndarray:
    """Contract the leading item axes of ``t``, one per row of ``laws``, in order.

    ``t`` is a flat tensor in mixed-radix order (first item slowest). Each
    step weighs the ``S+1`` slices of one item axis by that item's law, so
    every sum has ``S+1`` terms in a fixed order.
    """
    for q in laws:
        t = _weighted_sum(t.reshape(q.size, -1), q)
    return t


def _contract_trailing(t: np.ndarray, laws: np.ndarray) -> np.ndarray:
    """Contract the trailing item axes of ``t``, last row of ``laws`` first."""
    for q in laws[::-1]:
        t = _weighted_sum(t.reshape(-1, q.size).T, q)
    return t


def _leave_one_out(t: np.ndarray, laws: np.ndarray, out: np.ndarray, first: int) -> None:
    """Write ``t`` contracted with every law but item ``first + j``'s into ``out[first + j]``.

    Divide and conquer: contract the right half away to recurse on the
    left half and vice versa, so the whole pass costs a few sweeps of
    ``t`` instead of one per item.
    """
    n = len(laws)
    if n == 1:
        out[first] = t
        return
    mid = n // 2
    _leave_one_out(_contract_trailing(t, laws[mid:]), laws[:mid], out, first)
    _leave_one_out(_contract_leading(t, laws[:mid]), laws[mid:], out, first + mid)


def value_table(objective: LatticeObjective) -> np.ndarray:
    """``f`` at every vector of ``{0..S}^I``, flat in mixed-radix rank order.

    Built on first use and kept on the objective, read-only, so the exact
    evaluator, the oracles and the policy kernel share one table per
    objective. Filled in chunks of rows, with no stored ``(N, I)`` grid;
    the first chunk raises CapacityError beyond ``ENUM_GUARD``.
    ``value_many`` rounds every row the same way in any batch, so
    ``value_table(f).reshape((S+1,) * I)[u] == f.value(u)`` bit for bit.
    """
    table = getattr(objective, "_value_table", None)
    if table is None:
        I, S = objective.item_count, objective.state_count
        chunks = [objective.value_many(enumerate_state_vectors(I, S, start, start + _CHUNK))
                  for start in range(0, (S + 1) ** I, _CHUNK)]
        table = np.concatenate(chunks).astype(float, copy=False)
        table.flags.writeable = False
        objective._value_table = table
    return table


class FactoredExtension:
    """Cached exact evaluator for one objective.

    Tabulates the objective once as the ``(S+1)^I`` value tensor
    (:func:`value_table`). ``H`` contracts it with the per-item laws
    ``q_i`` one item at a time. ``marginals`` gets every item's
    leave-one-out vector ``W_i`` (the tensor contracted with all laws but
    ``q_i``) from one divide-and-conquer pass. Forcing pair ``(i, s)`` in
    moves the item's maximum state to ``s`` exactly when it was below
    ``s`` (probability ``suffix_i(s-1)``) and changes nothing otherwise, so

        omega[i, s-1] = W_i[s] * suffix_i(s-1) - sum_{u < s} W_i[u] * q_i(u),

    which equals ``H(x with x_is = 1) - H(x)`` without computing ``H``.
    """

    def __init__(self, objective: LatticeObjective):
        self.objective = objective
        self.values = value_table(objective)
        # finite parameters whose sums overflow; min and max need no table-sized temporary
        if not (np.isfinite(self.values.min()) and np.isfinite(self.values.max())):
            raise ValidationError("objective", "a value overflowed the float range; "
                                               "rescale the instance's numbers")

    def H(self, x: np.ndarray) -> float:
        q, _ = _max_state_laws(check_fractional(x, self.objective))
        return float(_contract_leading(self.values, q)[0])

    def marginals(self, x: np.ndarray) -> np.ndarray:
        """omega[i, s-1] = H(x with pair (i,s) forced in) - H(x)."""
        return self._marginals(check_fractional(x, self.objective))

    def _marginals(self, x: np.ndarray) -> np.ndarray:
        """:meth:`marginals` of a float ``x`` known to have the objective's shape and lie in [0, 1]."""
        q, suffix = _max_state_laws(x)
        W = np.empty_like(q)
        _leave_one_out(self.values, q, W, 0)
        below = np.cumsum(W * q, axis=1)  # below[:, u] = sum_{u' <= u} W_i[u'] * q_i(u')
        return W[:, 1:] * suffix[:, :-1] - below[:, :-1]


def _draw_max_states(x: np.ndarray, rng: np.random.Generator, n: int) -> np.ndarray:
    """Sample per-item maximum included states for n independent pair sets."""
    I, S = x.shape
    incl = rng.random((n, I, S)) < x[None, :, :]
    return np.max(np.where(incl, np.arange(1, S + 1)[None, None, :], 0), axis=2)


def estimate_H(x: np.ndarray, objective: LatticeObjective, samples: int,
               seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of H with its standard error.

    Deterministic in ``seed``. With a 0/1 matrix the draw is constant,
    so the standard error is exactly zero.
    """
    if samples < 1:
        raise ValidationError("samples", "must be at least 1")
    x = check_fractional(x, objective)
    rng = substream(seed, ESTIMATE)
    vals = np.empty(samples)
    done = 0
    while done < samples:
        n = min(_CHUNK, samples - done)
        u = _draw_max_states(x, rng, n)
        vals[done:done + n] = objective.value_many(u)
        done += n
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(samples)) if samples > 1 else math.nan
    return mean, stderr


def sampled_marginals(x: np.ndarray, objective: LatticeObjective, samples: int,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo marginal weights using common random pair sets drawn from ``rng``.

    The with-pair and without-pair expectations share every draw (the
    pair is simply toggled in), so the difference estimator avoids the
    variance of two independent estimates. Returns (omega, stderr),
    both ``I x S``; the exact weights are ``FactoredExtension.marginals``.
    """
    if samples < 1:
        raise ValidationError("samples", "must be at least 1")
    x = check_fractional(x, objective)
    I, S = x.shape
    sums = np.zeros((I, S))
    sqsums = np.zeros((I, S))
    done = 0
    while done < samples:
        n = min(_CHUNK, samples - done)
        base = _draw_max_states(x, rng, n)
        base_vals = objective.value_many(base)
        for i in range(I):
            saved = base[:, i].copy()
            for s in range(1, S + 1):
                base[:, i] = np.maximum(saved, s)
                diff = objective.value_many(base) - base_vals
                sums[i, s - 1] += diff.sum()
                sqsums[i, s - 1] += np.dot(diff, diff)
            base[:, i] = saved
        done += n
    omega = sums / samples
    if samples > 1:
        var = np.maximum(sqsums - samples * omega**2, 0.0) / (samples - 1)
        stderr = np.sqrt(var / samples)
    else:
        stderr = np.full((I, S), math.nan)
    return omega, stderr


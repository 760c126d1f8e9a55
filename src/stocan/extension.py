"""Expected value of the lifted set function under independent inclusion.

For an ``I x S`` matrix ``x`` of inclusion probabilities, ``H(x)`` is the
expectation of the lifted set function over the random pair set that
contains each ``(i, s)`` independently with probability ``x[i, s-1]``.

:class:`FactoredExtension` is the exact evaluator. It exploits that the
value depends only on each item's maximum included state, whose law
factorizes across items:

    q_i(s) = x_is * prod_{s' > s} (1 - x_is'),   q_i(0) = prod_s (1 - x_is)

so ``H(x) = sum_u f(u) * prod_i q_i(u_i)`` over ``u in {0..S}^I``. For
``separable_concave`` and ``nested_coverage`` that sum has a closed form
in the family's parameters, at any size and with no table. For
``concave_over_modular`` with the ``cap`` curve it is a meet in the
middle over the sums of two halves of the items (Horowitz and Sahni,
1974), at ``O(I (S+1)^(I/2))`` work and with no table. Any other objective is
tabulated once as the ``(S+1)^I`` value tensor, and ``H`` is that
tensor contracted with ``q_0, ..., q_{I-1}``, one item axis at a time.
Marginal weights need, for every item ``i``, the expectation with every
law but ``q_i``: closed forms again, or one divide-and-conquer pass
(variable elimination) over the value tensor, or over each half's
tensor of expectations in the meet in the middle, that yields all ``I``
of these leave-one-out vectors.

Every contraction is elementwise numpy, ``np.sum``/``cumsum``/``cumprod``
or ``einsum`` over a few short axes, never a BLAS call, so results do not
depend on how a threaded BLAS would split a sum. In the tests, a
subset enumeration over all ``2^(I*S)`` pair sets is the factored form's
oracle, and the tensor path is the closed forms' and the meet in the
middle's.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityError, ValidationError
from .model import (ENUM_GUARD, PROB_TOL, ConcaveOverModular, LatticeObjective, NestedCoverage,
                    SeparableConcave, _int, enumerate_state_vectors)
from .rng import ESTIMATE, substream

_CHUNK = 1 << 14


def check_fractional(x: np.ndarray, objective: LatticeObjective) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (objective.item_count, objective.state_count):
        raise ValidationError(
            "x", f"expected shape {(objective.item_count, objective.state_count)}, got {x.shape}"
        )
    if not np.all((x >= -PROB_TOL) & (x <= 1 + PROB_TOL)):  # the LP's tolerance; false for NaN
        if not np.all(np.isfinite(x)):
            raise ValidationError("x", "entries must be finite")
        raise ValidationError("x", "entries must lie in [0, 1]")
    return np.clip(x, 0.0, 1.0)


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


def _law_product(laws: np.ndarray) -> np.ndarray:
    """The joint law of one or more items' states, flat in mixed-radix order (first item slowest)."""
    p = laws[0]
    for q in laws[1:]:
        p = np.multiply.outer(p, q).ravel()
    return p


def _capped_sums(a: np.ndarray, cap: float) -> np.ndarray:
    """``min(sum_i a[i, u_i], cap)`` over ``u in {0..S}^n``, flat in mixed-radix order.

    Added one item at a time in item order, and clipped after each:
    ``min(min(t, cap) + b, cap) == min(t + b, cap)`` for ``b >= 0``, also in
    floating point, and no sum overflows. With no items the one sum is 0.
    """
    t = np.zeros(1)
    for row in a:
        t = np.minimum(np.add.outer(t, row).ravel(), cap)
    return t


def value_table(objective: LatticeObjective) -> np.ndarray:
    """``f`` at every vector of ``{0..S}^I``, flat in mixed-radix rank order.

    Built on first use and kept on the objective, read-only, so the exact
    evaluator, the oracles and the policy kernel share one table per
    objective. Filled in place, one chunk of rows at a time, with no stored
    ``(N, I)`` grid and no second copy; the first chunk raises
    CapacityError beyond ``ENUM_GUARD``, before the table is allocated.
    ``value_many`` rounds every row the same way in any batch, so
    ``value_table(f).reshape((S+1,) * I)[u] == f.value(u)`` bit for bit.
    """
    table = getattr(objective, "_value_table", None)
    if table is None:
        I, S = objective.item_count, objective.state_count
        first = objective.value_many(enumerate_state_vectors(I, S, 0, _CHUNK))
        table = np.empty((S + 1) ** I)
        table[:_CHUNK] = first
        for start in range(_CHUNK, table.size, _CHUNK):
            table[start:start + _CHUNK] = objective.value_many(
                enumerate_state_vectors(I, S, start, start + _CHUNK))
        table.flags.writeable = False
        objective._value_table = table
    return table


class FactoredExtension:
    """Cached exact evaluator for one objective.

    :meth:`expect` is ``f``'s expectation when each item's state is drawn
    independently from its own law, and ``H`` is that expectation under
    the max-state laws ``q_i``. ``marginals`` needs each item's
    leave-one-out vector ``W_i[s]``, the expectation with item ``i`` fixed
    at state ``s``. Forcing pair ``(i, s)`` in moves the item's maximum
    state to ``s`` exactly when it was below ``s`` (probability
    ``suffix_i(s-1) = sum_{u < s} q_i(u)``) and changes nothing otherwise, so

        omega[i, s-1] = W_i[s] * suffix_i(s-1) - sum_{u < s} W_i[u] * q_i(u),

    which equals ``H(x with x_is = 1) - H(x)`` without computing ``H``. A
    constant added to ``W_i`` cancels here, so the closed forms drop it.
    By family:

    * ``separable_concave``, ``f(u) = sum_i t_i(u_i)`` with ``t_i = w_i g``:
      the expectation is ``sum_i sum_s law_i(s) t_i(s)``, and
      ``W_i = t_i``, without the constant ``sum_{j != i} E[t_j]``.
    * ``nested_coverage``: item ``i`` misses element ``e`` with probability
      ``miss_i(e) = sum_s law_i(s) [e not in C_i(s)]``, the expectation is
      ``sum_e w_e (1 - prod_i miss_i(e))``, and ``W_i[s] = -sum_e w_e
      [e not in C_i(s)] prod_{j != i} miss_j(e)``, without the constant
      ``sum_e w_e``. The products over ``j != i`` are prefix times suffix
      products.
    * ``concave_over_modular`` with the ``cap`` curve, ``f(u) = scale *
      min(sum_i a_i(u_i), cap)``: a meet in the middle. Split the items
      into halves A = ``[:m]`` and B = ``[m:]``, ``m = ceil(I/2)``. Each
      half's ``(S+1)^m`` or fewer sums are fixed, clipped at ``cap`` and
      sorted once. For an A-sum ``a`` the B-sums ``b <= cap - a`` are a
      prefix of B's sorted sums, of fixed length ``k(a)``. With the prefix
      sums ``P`` of B's probabilities and ``V`` of its probability-weighted
      sums in that order, and the suffix sums ``Q`` of its probabilities,

          h(a) = E[f | A's sum is a] = scale * (a P[k] + V[k] + cap Q[k]),

      a sum of nonnegative terms, with no cancellation. The expectation is
      ``h`` contracted with A's laws, ``W_i`` for A's items is the
      leave-one-out pass over the tensor ``h``, and B's items take the
      same steps with the halves swapped. The work per call is
      ``O(I (S+1)^(I/2))``; past ``ENUM_GUARD`` atoms in a half it raises
      CapacityError.
    * every other objective, among them the ``sqrt``, ``power`` and
      ``log1p`` curves: the ``(S+1)^I`` value tensor (:func:`value_table`)
      contracted with the laws one item axis at a time, and the exact
      ``W_i`` from one divide-and-conquer pass over it. Only this path
      builds a table, and it raises CapacityError beyond ``ENUM_GUARD``.
    """

    def __init__(self, objective: LatticeObjective):
        self.objective = objective
        # finite parameters whose sums overflow; monotone by validation, so f(0) = 0 is the least
        # value and the all-S vector's the largest, checked before any table is built
        if not math.isfinite(objective.value(np.full(objective.item_count, objective.state_count))):
            raise ValidationError("objective", "a value overflowed the float range; "
                                               "rescale the instance's numbers")
        if isinstance(objective, SeparableConcave):
            self._terms = objective._terms  # (I, S+1): _terms[i, s] = w_i * g(s)
            self._expect, self._W = self._separable_expect, self._separable_W
        elif isinstance(objective, NestedCoverage):
            covers = np.array(objective.cover_masks)  # covers[i, s, e] = [e in C_i(s)]
            keep = covers[:, -1].any(axis=0)  # an element no item covers adds 0 to every value
            self._misses = (~covers[:, :, keep]).astype(float)
            self._weights = objective.element_weights[keep]
            self._lost = -self._misses * self._weights  # weight that (i, s) leaves uncovered, negated
            self._expect, self._W = self._coverage_expect, self._coverage_W
        elif isinstance(objective, ConcaveOverModular) and objective.curve.kind == "cap":
            self._half = m = (objective.item_count + 1) // 2
            if (objective.state_count + 1) ** m > ENUM_GUARD:
                raise CapacityError(f"(S+1)^ceil(I/2) = {(objective.state_count + 1) ** m} "
                                    f"exceeds the enumeration guard {ENUM_GUARD}")
            self._meet_in_the_middle(objective.a_tables, objective.curve.scale,
                                     objective.curve.cap)
            self._expect, self._W = self._cap_expect, self._cap_W
        else:
            self.values = value_table(objective)
            self._expect, self._W = self._table_expect, self._table_W

    def H(self, x: np.ndarray) -> float:
        q, _ = _max_state_laws(check_fractional(x, self.objective))
        return self._expect(q)

    def expect(self, laws: np.ndarray) -> float:
        """``sum_u f(u) prod_i laws[i, u_i]``: ``f`` under independent per-item state laws.

        ``laws`` has shape ``(I, S+1)``, one probability law over the
        states ``0..S`` per row; the closed forms take each row's sum to be 1.
        """
        return self._expect(np.asarray(laws, dtype=float))

    def marginals(self, x: np.ndarray) -> np.ndarray:
        """omega[i, s-1] = H(x with pair (i,s) forced in) - H(x)."""
        return self._marginals(check_fractional(x, self.objective))

    def _marginals(self, x: np.ndarray) -> np.ndarray:
        """:meth:`marginals` of a float ``x`` known to have the objective's shape and lie in [0, 1]."""
        q, suffix = _max_state_laws(x)
        W = self._W(q)
        below = np.cumsum(W * q, axis=1)  # below[:, u] = sum_{u' <= u} W_i[u'] * q_i(u')
        return W[:, 1:] * suffix[:, :-1] - below[:, :-1]

    # per family: _expect(laws) as expect, and _W(laws), the (I, S+1) leave-one-out vectors
    # up to a constant per item

    def _separable_expect(self, laws: np.ndarray) -> float:
        return float(np.einsum("is,is->", laws, self._terms))

    def _separable_W(self, laws: np.ndarray) -> np.ndarray:
        return self._terms

    def _coverage_expect(self, laws: np.ndarray) -> float:
        miss = np.einsum("is,ise->ie", laws, self._misses)
        return float(np.einsum("e,e->", self._weights, 1.0 - np.prod(miss, axis=0)))

    def _coverage_W(self, laws: np.ndarray) -> np.ndarray:
        miss = np.einsum("is,ise->ie", laws, self._misses)
        others = np.ones_like(miss)  # others[i] = prod_{j != i} miss[j]
        np.cumprod(miss[:-1], axis=0, out=others[1:])
        others[:-1] *= np.cumprod(miss[:0:-1], axis=0)[::-1]
        return np.einsum("ise,ie->is", self._lost, others)

    def _meet_in_the_middle(self, a: np.ndarray, scale: float, cap: float) -> None:
        """Fix what :meth:`_cap_h` reads: each half's sort order and ``k``, and its buffers.

        For half ``h``, ``_sorted[h]`` orders the other half's atoms by sum and
        ``_fit[h]`` is ``k`` of each of ``h``'s atoms. The three rows of
        ``_runs``, shared by the halves and one longer than the larger half,
        take the running sums over the other half's sorted atoms: ``P`` and
        ``scale * V`` after a leading 0, and ``scale * cap * Q``, summed from
        the last atom back, before a trailing 0, so that an atom reads all
        three at its ``k``. ``h`` is written to ``_h``, each read to ``_read``.
        """
        m = self._half
        sums = (_capped_sums(a[:m], cap), _capped_sums(a[m:], cap))
        self._split = sums[0].size  # h lists A's atoms, then B's
        self._sorted, self._fit = [], []
        for half, other in ((0, 1), (1, 0)):
            order = np.argsort(sums[other], kind="stable")
            self._sorted.append(order)
            self._fit.append(np.searchsorted(sums[other][order], cap - sums[half], "right"))
        self._capped = scale * cap
        self._scaled = scale * np.concatenate(sums)
        self._h = np.empty_like(self._scaled)
        width = max(sums[0].size, sums[1].size) + 1
        self._runs = np.zeros((3, width))
        self._read = np.empty(width)

    def _cap_h(self, laws: np.ndarray, half: int) -> np.ndarray:
        """``h`` over half ``half``'s atoms, with the other half drawn from ``laws``.

        A view of the buffer ``_h``, which the next call for the same half overwrites.
        """
        m, n_a = self._half, self._split
        if m == len(laws):  # I = 1: B is empty, and h is f on A's atoms
            return self._scaled[:n_a]
        halves = (slice(0, n_a), slice(n_a, None))
        atoms, others = halves[half], halves[1 - half]
        h, scaled, fit = self._h[atoms], self._scaled[atoms], self._fit[half]
        order = self._sorted[half]
        n = order.size
        P, V, Q = self._runs[:, :n + 1]
        # gathered into sorted order: the other half's law once, and its scaled sums; mode
        # "clip" writes to the rows directly (every index is in range), "raise" would buffer
        np.take(_law_product(laws[m:] if half == 0 else laws[:m]), order, out=P[1:], mode="clip")
        np.take(self._scaled[others], order, out=V[1:], mode="clip")
        V[1:] *= P[1:]
        np.multiply(P[1:], self._capped, out=Q[:n])
        Q[n] = 0.0  # the larger half may have written there
        for run in (P[1:], V[1:], Q[n - 1::-1]):  # Q from the last atom back
            np.add.accumulate(run, out=run)
        read = self._read[:h.size]
        np.take(P, fit, out=h, mode="clip")
        h *= scaled
        for run in (V, Q):
            np.take(run, fit, out=read, mode="clip")
            h += read
        return h

    def _cap_expect(self, laws: np.ndarray) -> float:
        return float(_contract_leading(self._cap_h(laws, 0), laws[:self._half])[0])

    def _cap_W(self, laws: np.ndarray) -> np.ndarray:
        m = self._half
        W = np.empty_like(laws)
        _leave_one_out(self._cap_h(laws, 0), laws[:m], W, 0)
        if m < len(laws):  # B is empty when I = 1
            _leave_one_out(self._cap_h(laws, 1), laws[m:], W, m)
        return W

    def _table_expect(self, laws: np.ndarray) -> float:
        return float(_contract_leading(self.values, laws)[0])

    def _table_W(self, laws: np.ndarray) -> np.ndarray:
        W = np.empty_like(laws)
        _leave_one_out(self.values, laws, W, 0)
        return W


def _max_state_draws(x: np.ndarray, objective: LatticeObjective, samples: int,
                     rng: np.random.Generator):
    """Per-item maximum included states of ``samples`` pair sets drawn from ``rng``, in
    ``(n, I)`` blocks of at most ``_CHUNK`` rows; ``samples`` and ``x`` are checked at once."""
    if _int(samples, "samples") < 1:
        raise ValidationError("samples", "must be at least 1")
    x = check_fractional(x, objective)
    I, S = x.shape
    states = np.arange(1, S + 1)
    return (np.max(np.where(rng.random((min(_CHUNK, samples - done), I, S)) < x, states, 0), axis=2)
            for done in range(0, samples, _CHUNK))


def estimate_H(x: np.ndarray, objective: LatticeObjective, samples: int,
               seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of H with its standard error.

    Deterministic in ``seed``, and drawn by :func:`sampled_marginals`'s
    sampler; ``samples`` is an integer of at least 1. With a 0/1 matrix
    the draw is constant, so the standard error is exactly zero.
    """
    draws = _max_state_draws(x, objective, samples, substream(seed, ESTIMATE))
    vals = np.concatenate([objective.value_many(u) for u in draws])
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(samples)) if samples > 1 else math.nan
    return mean, stderr


def sampled_marginals(x: np.ndarray, objective: LatticeObjective, samples: int,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo marginal weights using common random pair sets drawn from ``rng``.

    Drawn by :func:`estimate_H`'s sampler; ``samples`` is an integer of at
    least 1. The with-pair and without-pair expectations share every draw
    (the pair is simply toggled in), so the difference estimator avoids the
    variance of two independent estimates. Returns (omega, stderr), both
    ``I x S``; the exact weights are ``FactoredExtension.marginals``.
    """
    draws = _max_state_draws(x, objective, samples, rng)
    I, S = objective.item_count, objective.state_count
    sums = np.zeros((I, S))
    sqsums = np.zeros((I, S))
    for base in draws:
        base_vals = objective.value_many(base)
        for i in range(I):
            saved = base[:, i].copy()
            for s in range(1, S + 1):
                base[:, i] = np.maximum(saved, s)
                diff = objective.value_many(base) - base_vals
                sums[i, s - 1] += diff.sum()
                sqsums[i, s - 1] += np.dot(diff, diff)
            base[:, i] = saved
    omega = sums / samples
    if samples > 1:
        var = np.maximum(sqsums - samples * omega**2, 0.0) / (samples - 1)
        stderr = np.sqrt(var / samples)
    else:
        stderr = np.full((I, S), math.nan)
    return omega, stderr

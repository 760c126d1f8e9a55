"""Problem instances, lattice objectives, and the lifted set function.

Conventions used throughout the package:

* items are indexed ``0 .. I-1``;
* states are indexed ``1 .. S``, with ``0`` meaning "item absent".
  Probability and cost matrices have shape ``(I, S)`` where column
  ``s - 1`` holds the entry for state ``s``;
* a *state vector* ``u`` is an integer vector of length ``I`` with
  entries in ``0 .. S``;
* an *item-state pair* is a tuple ``(i, s)`` with ``s >= 1``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CapacityError, ValidationError
from .rng import CHECKS, STATES, substream

PROB_TOL = 1e-9  # validation tolerance for probabilities, costs, feasibility
EXACT_TOL = 1e-12  # tolerance for exact-arithmetic comparisons

ENUM_GUARD = 1_000_000  # max lattice points for exhaustive checks


def _floats(value, path: str, ndim: int) -> np.ndarray:
    """``value`` as a finite float array with ``ndim`` axes, else a ValidationError at ``path``."""
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.ndim != ndim:
        shape = ("a number", "a list of numbers", "a matrix of numbers")[ndim]
        raise ValidationError(path, f"expected {shape} (got {value!r:.60})")
    bad = ~np.isfinite(arr)
    if np.any(bad):
        k = tuple(int(j) for j in np.argwhere(bad)[0])
        raise ValidationError(path + "".join(f"[{j}]" for j in k), f"{arr[k]} is not a finite number")
    return arr


# ---------------------------------------------------------------------------
# instances


@dataclass(frozen=True)
class Instance:
    """A probing instance: state distributions, state costs, and a budget.

    ``prob[i, s-1]`` is the probability that item ``i`` realizes state
    ``s``; rows sum to one. ``cost[i, s-1]`` is the cost charged when
    picking item ``i`` in state ``s``; costs are nondecreasing in the
    state ("better" states cost more). Arrays are frozen after
    construction, so instances can be shared across threads freely.
    """

    prob: np.ndarray
    cost: np.ndarray
    budget: float

    def __post_init__(self):
        prob = np.array(self.prob, dtype=float)
        cost = np.array(self.cost, dtype=float)
        if prob.ndim != 2 or prob.shape != cost.shape or prob.shape[0] < 1 or prob.shape[1] < 1:
            raise ValidationError("instance", "prob and cost must be equal-shape I x S matrices")
        _validate_rows(prob, cost)
        if not (math.isfinite(self.budget) and self.budget > 0):
            raise ValidationError("instance.budget",
                                  f"budget must be positive and finite (got {self.budget})")
        prob.flags.writeable = False
        cost.flags.writeable = False
        object.__setattr__(self, "prob", prob)
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "budget", float(self.budget))

    @property
    def item_count(self) -> int:
        return self.prob.shape[0]

    @property
    def state_count(self) -> int:
        return self.prob.shape[1]

    def to_dict(self) -> dict:
        return {
            "items": [
                {"probs": [float(v) for v in self.prob[i]], "costs": [float(v) for v in self.cost[i]]}
                for i in range(self.item_count)
            ],
            "budget": float(self.budget),
        }


def _validate_rows(prob: np.ndarray, cost: np.ndarray) -> None:
    for i in range(prob.shape[0]):
        row = _floats(prob[i], f"items[{i}].probs", 1)
        crow = _floats(cost[i], f"items[{i}].costs", 1)
        if np.any(row < -PROB_TOL) or np.any(row > 1 + PROB_TOL):
            s = int(np.argmax((row < -PROB_TOL) | (row > 1 + PROB_TOL)))
            raise ValidationError(f"items[{i}].probs[{s}]", f"probability {row[s]} outside [0, 1]")
        total = float(row.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError(f"items[{i}].probs", f"entries must sum to 1 (got {total})")
        if np.any(crow < -0.0):
            s = int(np.argmax(crow < 0))
            raise ValidationError(f"items[{i}].costs[{s}]", f"cost {crow[s]} is negative")
        for s in range(1, cost.shape[1]):
            if crow[s] < crow[s - 1] - PROB_TOL:
                raise ValidationError(
                    f"items[{i}].costs",
                    f"cost must be nondecreasing in state: state {s + 1} costs {crow[s]} "
                    f"< state {s} cost {crow[s - 1]}",
                )


def draw_realization(inst: Instance, seed: int) -> np.ndarray:
    """Draw one state per item from the product distribution.

    Returns an integer vector of length ``I`` with entries in ``1 .. S``:
    run 0's realization in every policy campaign with this ``seed``.
    """
    return sample_states(inst, substream(seed, STATES), 1)[0]


def sample_states(inst: Instance, rng: np.random.Generator, n: int, *,
                  layout: str = "C") -> np.ndarray:
    """Draw ``n`` independent state realizations, shape ``(n, I)``.

    ``layout`` is the memory order of the result (numpy's ``order``); it
    does not change the draws.
    """
    u = rng.random((n, inst.item_count))
    out = np.empty((n, inst.item_count), dtype=np.int64, order=layout)
    for i in range(inst.item_count):
        cum = np.cumsum(inst.prob[i])
        out[:, i] = np.searchsorted(cum, u[:, i], side="right")
    np.clip(out, 0, inst.state_count - 1, out=out)
    return out + 1


# ---------------------------------------------------------------------------
# lattice objectives


class LatticeObjective:
    """A nonnegative objective on state vectors ``{0..S}^I``.

    Subclasses must be monotone and lattice submodular on their domain;
    :func:`check_monotone` and :func:`check_lattice_submodular` verify
    this rather than assuming it. ``value_many`` evaluates a whole
    ``(n, I)`` batch of vectors at once and is the hot path everywhere.
    """

    family = "abstract"

    def __init__(self, item_count: int, state_count: int):
        self.item_count = int(item_count)
        self.state_count = int(state_count)

    def value(self, u: Sequence[int]) -> float:
        arr = np.asarray(u, dtype=np.int64).reshape(1, -1)
        return float(self.value_many(arr)[0])

    def value_many(self, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def params_dict(self) -> dict:
        raise NotImplementedError

    def to_dict(self) -> dict:
        return {"family": self.family, **self.params_dict()}


class ConcaveCurve:
    """A concave nondecreasing scalar map with g(0) = 0, in declarative form."""

    KINDS = ("cap", "sqrt", "power", "log1p")

    def __init__(self, kind: str, *, cap: float | None = None, scale: float = 1.0,
                 exponent: float | None = None, path: str = "g"):
        if kind not in self.KINDS:
            raise ValidationError(f"{path}.kind", f"unknown curve kind {kind!r}")
        scale = float(_floats(scale, f"{path}.scale", 0))
        if cap is not None:
            cap = float(_floats(cap, f"{path}.cap", 0))
        if exponent is not None:
            exponent = float(_floats(exponent, f"{path}.exponent", 0))
        if scale <= 0:
            raise ValidationError(f"{path}.scale", f"scale must be positive (got {scale})")
        if kind == "cap":
            if cap is None or cap <= 0:
                raise ValidationError(f"{path}.cap", f"cap must be positive (got {cap})")
        if kind == "power":
            if exponent is None or not 0 < exponent <= 1:
                raise ValidationError(f"{path}.exponent", f"exponent must lie in (0, 1] (got {exponent})")
        self.kind = kind
        self.cap = cap
        self.scale = scale
        self.exponent = exponent

    def apply(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.kind == "cap":
            return self.scale * np.minimum(t, self.cap)
        if self.kind == "sqrt":
            return self.scale * np.sqrt(t)
        if self.kind == "power":
            return self.scale * np.power(t, self.exponent)
        return self.scale * np.log1p(t)

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "scale": self.scale}
        if self.cap is not None:
            out["cap"] = self.cap
        if self.exponent is not None:
            out["exponent"] = self.exponent
        return out

    @classmethod
    def from_dict(cls, d: dict, path: str = "g") -> "ConcaveCurve":
        if not isinstance(d, dict) or "kind" not in d:
            raise ValidationError(path, "expected an object with a 'kind' key")
        return cls(d["kind"], cap=d.get("cap"), scale=d.get("scale", 1.0),
                   exponent=d.get("exponent"), path=path)


def _sum_item_terms(tables: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``sum_i tables[i, u[:, i]]``, added one item at a time from item 0.

    Every row takes the same additions in the same order whatever the
    batch's size or memory layout, so ``value_many`` agrees bit for bit
    with ``value`` on every row. Columns of a Fortran-ordered batch are
    contiguous, which makes it the fast layout here.
    """
    total = tables[0][u[:, 0]]
    for i in range(1, tables.shape[0]):
        total += tables[i][u[:, i]]
    return total


class SeparableConcave(LatticeObjective):
    """f(u) = sum_i w_i * g(u_i) with tabulated concave nondecreasing g."""

    family = "separable_concave"

    def __init__(self, weights, g_table, *, path: str = "objective"):
        weights = _floats(weights, f"{path}.weights", 1)
        g = _floats(g_table, f"{path}.g", 1)
        if weights.size < 1:
            raise ValidationError(f"{path}.weights", "expected a nonempty list of weights")
        if np.any(weights < 0):
            i = int(np.argmax(weights < 0))
            raise ValidationError(f"{path}.weights[{i}]", f"weight {weights[i]} is negative")
        if g.size < 2:
            raise ValidationError(f"{path}.g", "expected g tabulated on states 0..S (length S+1)")
        _validate_concave_table(g, f"{path}.g")
        super().__init__(weights.size, g.size - 1)
        weights.flags.writeable = False
        g.flags.writeable = False
        self.weights = weights
        self.g_table = g
        self._terms = weights[:, None] * g  # _terms[i, s] = w_i * g(s)

    def value_many(self, u: np.ndarray) -> np.ndarray:
        return _sum_item_terms(self._terms, u)

    def params_dict(self) -> dict:
        return {"weights": self.weights.tolist(), "g": self.g_table.tolist()}


def _validate_concave_table(g: np.ndarray, path: str) -> None:
    if abs(g[0]) > EXACT_TOL:
        raise ValidationError(f"{path}[0]", f"g(0) must be 0 (got {g[0]})")
    for k in range(1, g.size):
        if g[k] < g[k - 1] - EXACT_TOL:
            raise ValidationError(f"{path}[{k}]", f"g must be nondecreasing ({g[k]} < {g[k-1]})")
    # concavity via second differences
    for k in range(2, g.size):
        if (g[k] - g[k - 1]) > (g[k - 1] - g[k - 2]) + EXACT_TOL:
            raise ValidationError(
                f"{path}[{k}]", "second difference is positive (table is not concave)"
            )


class NestedCoverage(LatticeObjective):
    """Weighted coverage with per-item covers nested along states.

    Pair ``(i, s)`` covers the element set ``C_i(s)``, with
    ``C_i(1) <= C_i(2) <= ... <= C_i(S)`` and ``C_i(0)`` empty;
    ``f(u)`` is the total weight of the union of the covered sets.
    """

    family = "nested_coverage"

    def __init__(self, covers, element_weights, *, path: str = "objective"):
        weights = _floats(element_weights, f"{path}.element_weights", 1)
        if weights.size < 1:
            raise ValidationError(f"{path}.element_weights", "expected a nonempty list of weights")
        if np.any(weights < 0):
            e = int(np.argmax(weights < 0))
            raise ValidationError(f"{path}.element_weights[{e}]", f"weight {weights[e]} is negative")
        m = weights.size
        lists = (list, tuple)
        if not isinstance(covers, lists) or not covers:
            raise ValidationError(f"{path}.covers", "expected one list of cover sets per item")
        state_count = len(covers[0]) if isinstance(covers[0], lists) else 0
        masks = []
        for i, item_covers in enumerate(covers):
            if not isinstance(item_covers, lists) or not all(isinstance(c, lists) for c in item_covers):
                raise ValidationError(f"{path}.covers[{i}]", "expected a list of element lists, one per state")
            if not item_covers or len(item_covers) != state_count:
                raise ValidationError(f"{path}.covers[{i}]", "all items must list one cover set per state")
            mask = np.zeros((state_count + 1, m), dtype=bool)
            prev: set = set()
            for s, elems in enumerate(item_covers, start=1):
                for e in elems:  # before set(), which fails on an unhashable entry
                    if not isinstance(e, int) or not 0 <= e < m:
                        raise ValidationError(
                            f"{path}.covers[{i}][{s - 1}]", f"element {e!r} outside 0..{m - 1}"
                        )
                cur = set(elems)
                if not prev <= cur:
                    missing = sorted(prev - cur)
                    raise ValidationError(
                        f"{path}.covers[{i}][{s - 1}]",
                        f"cover of state {s} must contain cover of state {s - 1} "
                        f"(missing elements {missing})",
                    )
                mask[s, list(cur)] = True
                prev = cur
            masks.append(mask)
        super().__init__(len(covers), state_count)
        weights.flags.writeable = False
        for mask in masks:
            mask.flags.writeable = False
        self.element_weights = weights
        self.cover_masks = masks
        self._covers = [[sorted(set(c)) for c in item] for item in covers]

    def value_many(self, u: np.ndarray) -> np.ndarray:
        covered = np.zeros((u.shape[0], self.element_weights.size), dtype=bool)
        for i in range(self.item_count):
            covered |= self.cover_masks[i][u[:, i]]
        # covered is C-ordered whatever u's layout, so each row sums the same way
        return (covered * self.element_weights).sum(axis=1)

    def params_dict(self) -> dict:
        return {"covers": self._covers, "element_weights": self.element_weights.tolist()}


class ConcaveOverModular(LatticeObjective):
    """f(u) = g(sum_i a_i(u_i)) with nondecreasing a_i and concave g."""

    family = "concave_over_modular"

    def __init__(self, a_tables, curve: ConcaveCurve, *, path: str = "objective"):
        a = _floats(a_tables, f"{path}.a", 2)
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ValidationError(f"{path}.a", "expected an I x S matrix of values a_i(1..S)")
        if np.any(a[:, 0] < -EXACT_TOL):
            i = int(np.argmax(a[:, 0] < -EXACT_TOL))
            raise ValidationError(f"{path}.a[{i}][0]", f"a must be nonnegative (got {a[i, 0]})")
        for i in range(a.shape[0]):
            for s in range(1, a.shape[1]):
                if a[i, s] < a[i, s - 1] - EXACT_TOL:
                    raise ValidationError(
                        f"{path}.a[{i}][{s}]", f"a must be nondecreasing ({a[i, s]} < {a[i, s - 1]})"
                    )
        super().__init__(a.shape[0], a.shape[1])
        # prepend a_i(0) = 0 so tables index directly by state
        tables = np.concatenate([np.zeros((a.shape[0], 1)), a], axis=1)
        tables.flags.writeable = False
        self.a_tables = tables
        self.curve = curve

    def value_many(self, u: np.ndarray) -> np.ndarray:
        return self.curve.apply(_sum_item_terms(self.a_tables, u))

    def params_dict(self) -> dict:
        return {"a": self.a_tables[:, 1:].tolist(), "g": self.curve.to_dict()}


# family name -> (required parameter keys, constructor from the parameters and a path)
_FAMILY_TABLE = {
    "separable_concave": (
        ("weights", "g"),
        lambda p, path: SeparableConcave(p["weights"], p["g"], path=path)),
    "nested_coverage": (
        ("covers", "element_weights"),
        lambda p, path: NestedCoverage(p["covers"], p["element_weights"], path=path)),
    "concave_over_modular": (
        ("a", "g"),
        lambda p, path: ConcaveOverModular(
            p["a"], ConcaveCurve.from_dict(p["g"], path=f"{path}.g"), path=path)),
}
FAMILIES = tuple(_FAMILY_TABLE)


def make_objective(family: str, params: dict, *, path: str = "objective") -> LatticeObjective:
    """Build a declared objective, validating every family parameter."""
    if not isinstance(family, str) or family not in _FAMILY_TABLE:
        raise ValidationError(f"{path}.family", f"unknown objective family {family!r}")
    keys, build = _FAMILY_TABLE[family]
    for k in keys:
        if k not in params:
            raise ValidationError(f"{path}.{k}", "missing required key")
    return build(params, path)


def objective_from_dict(d: dict, *, path: str = "objective") -> LatticeObjective:
    if not isinstance(d, dict):
        raise ValidationError(path, "expected an object")
    if "family" not in d:
        raise ValidationError(f"{path}.family", "missing required key")
    params = {k: v for k, v in d.items() if k != "family"}
    return make_objective(d["family"], params, path=path)


# ---------------------------------------------------------------------------
# the lifted set function h


def pairs_to_vector(pairs: Iterable[tuple[int, int]], item_count: int, state_count: int) -> np.ndarray:
    u = np.zeros(item_count, dtype=np.int64)
    for i, s in pairs:
        if not (0 <= i < item_count) or not (1 <= s <= state_count):
            raise ValidationError("pairs", f"pair ({i}, {s}) outside [0,{item_count}) x [1,{state_count}]")
        if s > u[i]:
            u[i] = s
    return u


def h_eval(pairs: Iterable[tuple[int, int]], objective: LatticeObjective) -> float:
    """Evaluate the lifted set function: each item at its max paired state."""
    return objective.value(pairs_to_vector(pairs, objective.item_count, objective.state_count))


# ---------------------------------------------------------------------------
# structure checkers


@dataclass
class CheckResult:
    ok: bool
    witness: tuple | None = None
    checked: int = 0

    def __bool__(self) -> bool:
        return self.ok


def enumerate_state_vectors(item_count: int, state_count: int, start: int = 0,
                            stop: int | None = None) -> np.ndarray:
    """The vectors in ``{0..S}^I`` of mixed-radix ranks ``start..stop-1``, one per row.

    Row order is lexicographic with the last coordinate fastest, so with
    the default range (all ``(S+1)^I`` vectors) the row index is the
    mixed-radix rank of the vector.
    """
    n = (state_count + 1) ** item_count
    if n > ENUM_GUARD:
        raise CapacityError(
            f"(S+1)^I = {n} exceeds the enumeration guard {ENUM_GUARD}; use sampled mode"
        )
    ranks = np.arange(start, n if stop is None else min(stop, n), dtype=np.int64)
    digits = np.empty((item_count, ranks.size), dtype=np.int64)
    for i in range(item_count - 1, -1, -1):
        ranks, digits[i] = np.divmod(ranks, state_count + 1)
    return digits.T


def check_monotone(objective: LatticeObjective, *, mode: str = "exhaustive",
                   samples: int = 2000, seed: int = 0) -> CheckResult:
    """Check f(u) <= f(u + 1_i) for every vector and coordinate.

    Single-coordinate increments generate the componentwise order, so
    this is equivalent to monotonicity over all comparable pairs. The
    exhaustive mode takes the differences of the value table along each
    axis and is bounded by ``ENUM_GUARD`` alone; beyond it, ``sampled``
    mode screens random increments instead. A failing check returns the
    witness ``(u, i)``.
    """
    I, S = objective.item_count, objective.state_count
    if mode == "sampled":
        return _check_monotone_sampled(objective, I, S, samples, seed)
    failure, checked = _local_failure(objective, squares=False)
    return CheckResult(failure is None, None if failure is None else failure[:2], checked)


def _local_failure(objective: LatticeObjective, squares: bool) -> tuple[tuple | None, int]:
    """The first local inequality the value table breaks, as ``((u, i, j), checked)``.

    ``j == i``: f(u+1_i) < f(u) - 1e-12. ``j != i`` (only with ``squares``):
    the square ``u, u+1_i, u+1_j, u+1_i+1_j`` has mixed difference above
    1e-12. The failure is None when every inequality holds.
    """
    from .extension import value_table  # extension builds on this module

    values = value_table(objective).reshape((objective.state_count + 1,) * objective.item_count)
    steps = [np.diff(values, axis=i) for i in range(values.ndim)]  # steps[i][u] = f(u+1_i) - f(u)
    checks = [(i, i, step < -EXACT_TOL) for i, step in enumerate(steps)]
    if squares:  # lazily, so the scan stops at the first failing pair of axes
        checks = itertools.chain(checks, ((i, j, np.diff(step, axis=j) > EXACT_TOL)
                                          for i, step in enumerate(steps)
                                          for j in range(values.ndim) if j != i))
    checked = 0
    for i, j, bad in checks:
        checked += bad.size
        if np.any(bad):
            return (tuple(int(k) for k in np.argwhere(bad)[0]), i, j), checked
    return None, checked


def _check_monotone_sampled(objective, I, S, samples, seed) -> CheckResult:
    rng = substream(seed, CHECKS)
    u = rng.integers(0, S + 1, size=(samples, I))
    coords = rng.integers(0, I, size=samples)
    v = u.copy()
    rows = np.arange(samples)
    v[rows, coords] = np.minimum(v[rows, coords] + 1, S)
    fu = objective.value_many(u)
    fv = objective.value_many(v)
    bad = fv < fu - EXACT_TOL
    if np.any(bad):
        k = int(np.argmax(bad))
        return CheckResult(False, (tuple(u[k]), int(coords[k])), samples)
    return CheckResult(True, None, samples)


def check_lattice_submodular(objective: LatticeObjective, *, mode: str = "exhaustive",
                             samples: int = 2000, seed: int = 0) -> CheckResult:
    """Check the diminishing-returns inequality over all comparable pairs.

    For every u <= v, state s and item i the inequality is

        f(u v s*1_i) - f(u) >= f(v v s*1_i) - f(v) - 1e-12.

    The exhaustive mode checks its local characterization (Topkis 1978):
    f is monotone, and every square ``u, u+1_i, u+1_j, u+1_i+1_j`` with
    ``i != j`` has mixed difference at most 1e-12. Both come from
    differences of the value table, so the check is bounded by
    ``ENUM_GUARD`` alone; beyond it, ``sampled`` mode screens random
    comparable pairs instead. A failing check returns a witness
    ``(u, v, i, s)`` of the inequality: ``(u, u+1_i, i, u_i+1)`` where f
    decreases along axis i, ``(u, u+1_j, i, u_i+1)`` for a square.
    """
    I, S = objective.item_count, objective.state_count
    if mode == "sampled":
        return _check_submodular_sampled(objective, I, S, samples, seed)
    failure, checked = _local_failure(objective, squares=True)
    if failure is None:
        return CheckResult(True, None, checked)
    u, i, j = failure
    return CheckResult(False, (u, u[:j] + (u[j] + 1,) + u[j + 1:], i, u[i] + 1), checked)


def _check_submodular_sampled(objective, I, S, samples, seed) -> CheckResult:
    rng = substream(seed, CHECKS)
    lo = rng.integers(0, S + 1, size=(samples, I))
    hi = np.minimum(lo + rng.integers(0, S + 1, size=(samples, I)), S)
    coords = rng.integers(0, I, size=samples)
    states = rng.integers(1, S + 1, size=samples)
    rows = np.arange(samples)
    lo_up = lo.copy()
    lo_up[rows, coords] = np.maximum(lo[rows, coords], states)
    hi_up = hi.copy()
    hi_up[rows, coords] = np.maximum(hi[rows, coords], states)
    lhs = objective.value_many(lo_up) - objective.value_many(lo)
    rhs = objective.value_many(hi_up) - objective.value_many(hi)
    bad = lhs < rhs - EXACT_TOL
    if np.any(bad):
        k = int(np.argmax(bad))
        return CheckResult(False, (tuple(lo[k]), tuple(hi[k]), int(coords[k]), int(states[k])), samples)
    return CheckResult(True, None, samples)


# ---------------------------------------------------------------------------
# file format


def instance_from_dict(d: dict) -> tuple[Instance, LatticeObjective]:
    if not isinstance(d, dict):
        raise ValidationError("instance", "expected a JSON object")
    if "items" not in d:
        raise ValidationError("items", "missing required key")
    if "budget" not in d:
        raise ValidationError("budget", "missing required key")
    if "objective" not in d:
        raise ValidationError("objective", "missing required key")
    items = d["items"]
    if not isinstance(items, list) or not items:
        raise ValidationError("items", "expected a nonempty list")
    probs, costs = [], []
    width = None
    for i, item in enumerate(items):
        if not isinstance(item, dict) or "probs" not in item or "costs" not in item:
            raise ValidationError(f"items[{i}]", "expected an object with 'probs' and 'costs'")
        p = _floats(item["probs"], f"items[{i}].probs", 1)
        c = _floats(item["costs"], f"items[{i}].costs", 1)
        if p.size != c.size or not p.size:
            raise ValidationError(f"items[{i}]", "probs and costs must be nonempty, equal-length lists")
        if width is None:
            width = p.size
        elif p.size != width:
            raise ValidationError(f"items[{i}].probs", f"expected {width} states, got {p.size}")
        probs.append(p)
        costs.append(c)
    inst = Instance(np.array(probs), np.array(costs), float(_floats(d["budget"], "budget", 0)))
    objective = objective_from_dict(d["objective"])
    if objective.item_count != inst.item_count:
        raise ValidationError(
            "objective", f"objective covers {objective.item_count} items, instance has {inst.item_count}"
        )
    if objective.state_count != inst.state_count:
        raise ValidationError(
            "objective", f"objective covers {objective.state_count} states, instance has {inst.state_count}"
        )
    return inst, objective


def read_json(path):
    """The parsed JSON document at ``path``; undecodable text is a ValidationError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise ValidationError(str(path), f"not valid JSON: {exc}") from exc


def load_instance(path) -> tuple[Instance, LatticeObjective]:
    return instance_from_dict(read_json(path))


def instance_payload(inst: Instance, objective: LatticeObjective) -> dict:
    payload = inst.to_dict()
    payload["objective"] = objective.to_dict()
    return payload


def write_json(path, payload: dict) -> None:
    """Write an instance file: sorted keys, two-space indent, trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_instance(path, inst: Instance, objective: LatticeObjective) -> None:
    write_json(path, instance_payload(inst, objective))


def instance_digest(payload: dict) -> str:
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()

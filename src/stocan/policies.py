"""Randomized probing policies executed over drawn state realizations.

All three production policies visit items in an arbitrary arrival order,
probe each item (free of charge), observe its realized state ``s`` and
then decide immediately and irrevocably:

* the **small** policy discards any item whose realized cost exceeds
  half the budget, and otherwise accepts with probability
  ``y_is / (4 p_i(s))`` provided the remaining budget covers the cost;
* the **large** policy is its mirror image, keeping only realized costs
  strictly above half the budget (it can never afford two such items,
  so it selects at most one);
* **stocan** flips a fair coin and runs one of the two.

Cost is charged on acceptance only; rejected or skipped items are gone
for good. ``ignore_budget`` drops the remaining-budget check; it exists
purely as an analysis device for tests (the unbudgeted variant can
overspend) and must never be used in production runs.

One vectorized kernel executes this rule for every run of a campaign at
once and records an int8 action code per run and arrival position.
Campaign statistics (:func:`simulate_policy`), run records
(:func:`scalar_runs`) and single runs on a given realization
(:func:`run_policy`) all come from it: a :class:`RunRecord` is a row view
of a campaign, so records and statistics are computed from the same draws.
:func:`exact_policy_value` is the independent oracle and shares no code
with the kernel.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import BudgetViolationError, CapacityError, PreconditionError, ValidationError
from .extension import value_table
from .model import Instance, LatticeObjective, PROB_TOL, sample_states
from .optimizer import check_lp_feasible
from .rng import BRANCH, COINS, ORDERS, STATES, substream

KINDS = ("small", "large", "stocan")

DISCARDED = "discarded-by-size"
REJECTED = "rejected-by-coin"
SKIPPED = "skipped-no-budget"
ACCEPTED = "accepted"
ACTIONS = (DISCARDED, REJECTED, SKIPPED, ACCEPTED)  # indexed by the int8 action code
DISCARD, REJECT, SKIP, ACCEPT = range(len(ACTIONS))

EXACT_POLICY_GUARD = 1_000_000  # max S^I * 2^I for exact expectations


def resolve_order(order, item_count: int) -> np.ndarray:
    """Normalize an arrival-order spec to a permutation of 0..I-1."""
    if isinstance(order, str):
        if order == "identity":
            return np.arange(item_count)
        raise ValidationError("order", f"unknown order spec {order!r}")
    arr = np.asarray(order, dtype=np.int64)
    if sorted(arr.tolist()) != list(range(item_count)):
        raise ValidationError("order", f"{arr.tolist()} is not a permutation of 0..{item_count - 1}")
    return arr


def acceptance_probabilities(inst: Instance, y: np.ndarray) -> np.ndarray:
    """Per-pair accept probability y/(4p), zero where p = 0.

    Requires y to be LP-feasible, which bounds every entry by 1/4.
    """
    try:
        check_lp_feasible(y, inst)
    except ValidationError as exc:
        raise PreconditionError(f"y is not LP-feasible: {exc}") from exc
    y = np.asarray(y, dtype=float)
    probs = np.zeros_like(y)
    np.divide(y, 4.0 * inst.prob, out=probs, where=inst.prob > 0)
    if np.any(probs > 0.25 + PROB_TOL):
        raise PreconditionError("acceptance probability above 1/4; y is not below its caps")
    return np.clip(probs, 0.0, 0.25 + PROB_TOL)


@dataclass(frozen=True)
class RunRecord:
    """Full trace of one policy execution: row ``r`` of a campaign."""

    kind: str
    order: tuple
    events: tuple  # (item, observed state, action) per visited item
    selected: tuple  # accepted (item, state) pairs in acceptance order
    total_cost: float
    value: float
    branch: str | None = None
    ignore_budget: bool = False

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "branch": self.branch,
            "order": list(self.order),
            "events": [{"item": i, "state": s, "action": a} for i, s, a in self.events],
            "selected": [list(p) for p in self.selected],
            "total_cost": self.total_cost,
            "value": self.value,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass(frozen=True)
class _Campaign:
    """Everything the kernel decided, one row per run."""

    kind: str
    ignore_budget: bool
    phi: np.ndarray  # (runs, I) realized states
    orders: np.ndarray  # (runs, I) arrival orders
    actions: np.ndarray  # (runs, I) action code per arrival position
    branch_small: np.ndarray | None  # (runs,) coin outcome of the combined policy
    spent: np.ndarray  # (runs,) accumulated cost
    selected: np.ndarray  # (runs, I) accepted state per item, 0 when none
    values: np.ndarray  # (runs,) objective value of ``selected``

    def record(self, r: int) -> RunRecord:
        order = self.orders[r].tolist()
        events = tuple(zip(order, self.phi[r, order].tolist(),
                           [ACTIONS[a] for a in self.actions[r].tolist()]))
        branch = None
        if self.branch_small is not None:
            branch = "small" if self.branch_small[r] else "large"
        return RunRecord(
            kind=self.kind,
            order=tuple(order),
            events=events,
            selected=tuple((i, s) for i, s, a in events if a == ACCEPTED),
            total_cost=float(self.spent[r]),
            value=float(self.values[r]),
            branch=branch,
            ignore_budget=self.ignore_budget,
        )


def _campaign(kind, inst, objective, y, phi, order, seed, ignore_budget=False) -> _Campaign:
    """Execute the policy rule on every row of ``phi``, one realization per run.

    Run ``r`` reads row ``r`` of each block draw: its accept coins (one
    per arrival position), its branch coin, and for ``order="random"``
    its arrival order. Every decision of every run is made here.
    """
    if kind not in KINDS:
        raise ValidationError("kind", f"unknown policy kind {kind!r}")
    probs = acceptance_probabilities(inst, y)
    runs, I = phi.shape
    budget = inst.budget
    coins = substream(seed, COINS).random((runs, I))
    branch_small = substream(seed, BRANCH).random(runs) < 0.5 if kind == "stocan" else None
    if isinstance(order, str) and order == "random":
        orders = np.argsort(substream(seed, ORDERS).random((runs, I)), axis=1)
    else:
        orders = np.broadcast_to(resolve_order(order, I), (runs, I))
    keep_small = branch_small if kind == "stocan" else (kind == "small")

    actions = np.empty((runs, I), dtype=np.int8)
    selected = np.zeros((runs, I), dtype=np.int64, order="F")  # value_many reads columns
    spent = np.zeros(runs)
    rows = np.arange(runs)
    for t in range(I):
        items = orders[:, t]
        states = phi[rows, items]
        cost = inst.cost[items, states - 1]
        discard = (cost <= budget / 2) != keep_small
        fits = ignore_budget | (spent + cost <= budget)
        accept = ~discard & fits & (coins[:, t] < probs[items, states - 1])
        actions[:, t] = np.select([discard, ~fits, accept], [DISCARD, SKIP, ACCEPT], REJECT)
        spent[accept] += cost[accept]
        selected[rows[accept], items[accept]] = states[accept]

    if not ignore_budget and np.any(spent > budget):
        bad = int(np.argmax(spent > budget))  # pragma: no cover
        raise BudgetViolationError(  # pragma: no cover - structurally unreachable
            {"run": bad, "total_cost": float(spent[bad])}
        )
    values = np.asarray(objective.value_many(selected), dtype=float)
    return _Campaign(kind, ignore_budget, phi, orders, actions, branch_small, spent,
                     selected, values)


def _drawn_campaign(kind, inst, objective, y, runs, order, seed, ignore_budget=False):
    if runs < 1:
        raise ValidationError("runs", "must be at least 1")
    phi = sample_states(inst, substream(seed, STATES), runs)
    return _campaign(kind, inst, objective, y, phi, order, seed, ignore_budget)


def run_policy(kind: str, inst: Instance, objective: LatticeObjective, y: np.ndarray, phi,
               order="identity", seed: int = 0, *, ignore_budget: bool = False) -> RunRecord:
    """Execute one policy on the realization ``phi``: run 0 of a campaign with ``seed``.

    With ``phi = draw_realization(inst, seed)`` the record equals
    ``scalar_runs(kind, inst, objective, y, 1, order, seed)[0]``.
    """
    phi = np.asarray(phi, dtype=np.int64)
    if phi.shape != (inst.item_count,) or np.any(phi < 1) or np.any(phi > inst.state_count):
        raise ValidationError("phi", "expected one realized state in 1..S per item")
    return _campaign(kind, inst, objective, y, phi[None, :], order, seed, ignore_budget).record(0)


@dataclass
class PolicySimulation:
    """Aggregate of a seeded simulation campaign.

    Holds one entry per run (value, spend, selection size and, for the
    combined policy, the coin outcome ``branch_small``) and per-pair
    inclusion counts: ``pair_counts[i, s]`` runs selected item ``i`` at
    state ``s``. Per-run states and actions are not kept; run records
    come from :func:`scalar_runs`.
    """

    kind: str
    runs: int
    values: np.ndarray
    total_costs: np.ndarray
    selection_sizes: np.ndarray
    pair_counts: np.ndarray
    branch_small: np.ndarray | None
    ignore_budget: bool
    budget: float

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def stderr(self) -> float:
        if self.runs < 2:
            return math.nan
        return float(np.std(self.values, ddof=1) / math.sqrt(self.runs))

    @property
    def is_single_run(self) -> bool:
        return self.runs == 1

    @property
    def budget_violations(self) -> int:
        # exact comparison on the accumulated spend; no tolerance
        return int(np.count_nonzero(self.total_costs > self.budget))

    def pair_inclusion_frequency(self, item: int, state: int) -> float:
        return float(self.pair_counts[item, state] / self.runs)


def simulate_policy(kind: str, inst: Instance, objective: LatticeObjective, y: np.ndarray,
                    runs: int, order="identity", seed: int = 0, *,
                    ignore_budget: bool = False) -> PolicySimulation:
    """Run a vectorized simulation campaign, deterministic in ``seed``.

    Randomness is consumed from named substreams, with run ``r`` owning
    row ``r`` of each stream's block draw: state draws, accept coins,
    branch coins and (for ``order="random"``) fresh per-run arrival
    orders. State draws do not depend on ``kind``, so campaigns with the
    same seed are paired across policies.
    """
    c = _drawn_campaign(kind, inst, objective, y, runs, order, seed, ignore_budget)
    counts = [np.bincount(c.selected[:, i], minlength=inst.state_count + 1)
              for i in range(inst.item_count)]
    return PolicySimulation(
        kind=kind,
        runs=runs,
        values=c.values,
        total_costs=c.spent,
        selection_sizes=np.count_nonzero(c.selected, axis=1),
        pair_counts=np.array(counts),
        branch_small=c.branch_small,
        ignore_budget=ignore_budget,
        budget=inst.budget,
    )


def exact_policy_value(kind: str, inst: Instance, objective: LatticeObjective,
                       y: np.ndarray, order="identity") -> float:
    """Exact expected policy value over states and accept coins.

    Enumerates every state realization and, per realization, the full
    tree of accept-coin outcomes along the arrival order (the combined
    policy averages its two branches). Guarded by S^I * 2^I <= 1e6.
    """
    if kind not in KINDS:
        raise ValidationError("kind", f"unknown policy kind {kind!r}")
    probs = acceptance_probabilities(inst, y)
    I, S = inst.item_count, inst.state_count
    work = (S ** I) * (2 ** I)
    if work > EXACT_POLICY_GUARD:
        raise CapacityError(
            f"S^I * 2^I = {work} exceeds guard {EXACT_POLICY_GUARD}; use simulate_policy"
        )
    order_arr = resolve_order(order, I)
    budget = inst.budget
    half = budget / 2
    values = value_table(objective).reshape((S + 1,) * I)

    def walk(pos: int, spent: float, sel: list, phi, keep_small: bool) -> float:
        if pos == I:
            return values[tuple(sel)]
        i = int(order_arr[pos])
        s = phi[i]
        cost = float(inst.cost[i, s - 1])
        if (cost <= half) != keep_small or spent + cost > budget:
            return walk(pos + 1, spent, sel, phi, keep_small)
        q = float(probs[i, s - 1])
        skip = walk(pos + 1, spent, sel, phi, keep_small)
        if q == 0.0:
            return skip
        sel[i] = s
        take = walk(pos + 1, spent + cost, sel, phi, keep_small)
        sel[i] = 0
        return q * take + (1.0 - q) * skip

    total = 0.0
    for phi in itertools.product(range(1, S + 1), repeat=I):
        p_phi = 1.0
        for i in range(I):
            p_phi *= inst.prob[i, phi[i] - 1]
        if p_phi == 0.0:
            continue
        sel = [0] * I
        if kind == "small":
            v = walk(0, 0.0, sel, phi, True)
        elif kind == "large":
            v = walk(0, 0.0, sel, phi, False)
        else:
            v = 0.5 * walk(0, 0.0, sel, phi, True) + 0.5 * walk(0, 0.0, sel, phi, False)
        total += p_phi * v
    return float(total)


def write_records(path, records: Iterable[RunRecord]) -> int:
    """Serialize one JSON record per line; returns the record count."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(rec.to_json())
            fh.write("\n")
            n += 1
    return n


def scalar_runs(kind: str, inst: Instance, objective: LatticeObjective, y: np.ndarray,
                runs: int, order="identity", seed: int = 0) -> list[RunRecord]:
    """One record per run of the campaign :func:`simulate_policy` runs.

    Record ``r`` is a row view of the same draws, so its value is run
    ``r``'s value in the campaign statistics, and it depends only on
    ``(seed, r, order, kind)``: the same for every ``runs > r``.
    """
    c = _drawn_campaign(kind, inst, objective, y, runs, order, seed)
    return [c.record(r) for r in range(runs)]

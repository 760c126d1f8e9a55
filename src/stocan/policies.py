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

A draw plan yields a campaign's realized states, accept coins, branch
coins and arrival orders in blocks of at most ``CHUNK_RUNS`` runs, and
one vectorized kernel executes this rule for every run of a block at
once, recording an int8 action code per run and arrival position. A
command feeds all its campaigns from one plan
(:func:`simulate_policies`); since the combined policy's run is the run
of the branch its coin chose, it is read off the small and large rows
when those are run too. Campaign statistics (:func:`simulate_policy`),
run records (:func:`scalar_runs`) and single runs on a given
realization (:func:`run_policy`) are views of it: a :class:`RunRecord`
is a row of a campaign, so records and statistics come from the same
draws.
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
DISCARD, REJECT, SKIP, ACCEPT = np.arange(len(ACTIONS), dtype=np.int8)

EXACT_POLICY_GUARD = 1_000_000  # max S^I * 2^I for exact expectations
CHUNK_RUNS = 65_536  # rows per block of a draw plan


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
class _Rows:
    """What the kernel decided for one block of runs."""

    actions: np.ndarray  # (n, I) action code per arrival position
    spent: np.ndarray  # (n,) accumulated cost
    sizes: np.ndarray  # (n,) accepted pairs per run
    values: np.ndarray  # (n,) objective value of the run's selection
    counts: np.ndarray  # (I, 2, S + 1) runs selecting item i at state s, by branch coin large/small


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValidationError("kind", f"unknown policy kind {kind!r}")


def _draw_plan(inst: Instance, runs: int, order, seed: int):
    """Yield the ``(phi, coins, branch_small, orders)`` blocks of runs ``0..runs-1``.

    A block holds at most ``CHUNK_RUNS`` rows. Each named substream is
    opened once and read block after block, so a block's row ``r`` is row
    ``start + r`` of one ``(runs, I)`` draw and no result depends on
    ``CHUNK_RUNS``. Run ``r`` owns its realized states, its accept coins
    (one per arrival position), its branch coin and, for
    ``order="random"``, its arrival order.
    """
    I = inst.item_count
    random_order = isinstance(order, str) and order == "random"
    fixed = None if random_order else resolve_order(order, I)
    states, coins, branch = (substream(seed, s) for s in (STATES, COINS, BRANCH))
    orders = substream(seed, ORDERS) if random_order else None
    for start in range(0, runs, CHUNK_RUNS):
        n = min(CHUNK_RUNS, runs - start)
        yield (sample_states(inst, states, n), coins.random((n, I)), branch.random(n) < 0.5,
               np.argsort(orders.random((n, I)), axis=1) if random_order
               else np.broadcast_to(fixed, (n, I)))


def _kernel(inst, objective, probs, block, keep_small, ignore_budget) -> _Rows:
    """Execute the policy rule on every row of one plan block.

    ``keep_small`` is True for the small policy, False for the large one,
    and the block's per-run branch coins for the combined policy. Every
    decision of every run is made here.
    """
    phi, coins, branch_small, orders = block
    n, I = phi.shape
    budget = inst.budget
    cost_of, prob_of = inst.cost.ravel(), probs.ravel()  # by pair index item * S + state - 1
    actions = np.empty((n, I), dtype=np.int8)
    selected = np.zeros((n, I), dtype=np.int64, order="F")  # value_many reads columns
    spent = np.zeros(n)
    rows = np.arange(n)
    for t in range(I):
        items = orders[:, t]
        states = phi[rows, items]
        pair = items * inst.state_count + states - 1
        cost = cost_of.take(pair)
        discard = (cost <= budget / 2) != keep_small
        fits = ignore_budget | (spent + cost <= budget)
        accept = ~discard & fits & (coins[:, t] < prob_of.take(pair))
        actions[:, t] = np.where(discard, DISCARD,
                                 np.where(fits, np.where(accept, ACCEPT, REJECT), SKIP))
        spent += np.where(accept, cost, 0.0)  # adding +0.0 leaves a spend's bits as they are
        selected[rows, items] = np.where(accept, states, 0)  # a run visits each item once

    over = ~(spent <= budget)  # a NaN spend is over budget too
    if not ignore_budget and np.any(over):
        bad = int(np.argmax(over))  # pragma: no cover
        raise BudgetViolationError(  # pragma: no cover - structurally unreachable
            {"run": bad, "total_cost": float(spent[bad])}
        )
    # pair counts split by the branch coin, so the combined policy's can be taken half by half
    S1 = inst.state_count + 1
    counts = np.array([np.bincount(col + S1 * branch_small, minlength=2 * S1)
                       for col in selected.T])
    return _Rows(actions, spent, np.count_nonzero(selected, axis=1),
                 np.asarray(objective.value_many(selected), dtype=float), counts.reshape(I, 2, S1))


def _select(branch_small, small: _Rows, large: _Rows) -> _Rows:
    """The combined policy's rows: small's where its coin chose small, large's elsewhere.

    Bit for bit the kernel's rows with ``keep_small=branch_small``: each
    run makes the same decisions as the branch its coin chose.
    """
    return _Rows(np.where(branch_small[:, None], small.actions, large.actions),
                 np.where(branch_small, small.spent, large.spent),
                 np.where(branch_small, small.sizes, large.sizes),
                 np.where(branch_small, small.values, large.values),
                 np.stack((large.counts[:, 0], small.counts[:, 1]), axis=1))


def _records(kind, ignore_budget, block, rows: _Rows) -> list:
    """A :class:`RunRecord` per row of one block."""
    phi, _, branch_small, orders = block
    seen = np.take_along_axis(phi, orders, axis=1)  # states in arrival order
    out = []
    for order, states, codes, spent, value, small in zip(
            orders.tolist(), seen.tolist(), rows.actions.tolist(), rows.spent.tolist(),
            rows.values.tolist(), branch_small.tolist()):
        events = tuple(zip(order, states, [ACTIONS[a] for a in codes]))
        out.append(RunRecord(
            kind=kind,
            order=tuple(order),
            events=events,
            selected=tuple((i, s) for i, s, a in events if a == ACCEPTED),
            total_cost=spent,
            value=value,
            branch=("small" if small else "large") if kind == "stocan" else None,
            ignore_budget=ignore_budget,
        ))
    return out


def run_policy(kind: str, inst: Instance, objective: LatticeObjective, y: np.ndarray, phi,
               order="identity", seed: int = 0, *, ignore_budget: bool = False) -> RunRecord:
    """Execute one policy on the realization ``phi``: run 0 of a campaign with ``seed``.

    With ``phi = draw_realization(inst, seed)`` the record equals
    ``scalar_runs(kind, inst, objective, y, 1, order, seed)[0]``.
    """
    _check_kind(kind)
    phi = np.asarray(phi, dtype=np.int64)
    if phi.shape != (inst.item_count,) or np.any(phi < 1) or np.any(phi > inst.state_count):
        raise ValidationError("phi", "expected one realized state in 1..S per item")
    probs = acceptance_probabilities(inst, y)
    _, coins, branch_small, orders = next(_draw_plan(inst, 1, order, seed))
    block = (phi[None, :], coins, branch_small, orders)
    keep_small = branch_small if kind == "stocan" else kind == "small"
    return _records(kind, ignore_budget, block,
                    _kernel(inst, objective, probs, block, keep_small, ignore_budget))[0]


@dataclass
class PolicySimulation:
    """Aggregate of a seeded simulation campaign.

    Holds one entry per run (value, spend, selection size and, for the
    combined policy, the coin outcome ``branch_small``) and per-pair
    inclusion counts: ``pair_counts[i, s]`` runs selected item ``i`` at
    state ``s``. Per-run states and actions are kept only as
    ``records``, and only when the campaign was asked for them.
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
    records: list | None = None

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
        # exact comparison on the accumulated spend; no tolerance, and NaN counts
        return int(np.count_nonzero(~(self.total_costs <= self.budget)))

    def pair_inclusion_frequency(self, item: int, state: int) -> float:
        return float(self.pair_counts[item, state] / self.runs)


def simulate_policies(inst: Instance, objective: LatticeObjective, y: np.ndarray, runs: int,
                      variants, order="identity", seed: int = 0, *,
                      records: bool = False) -> list[PolicySimulation]:
    """Run ``(kind, ignore_budget)`` variants on one draw plan; one campaign each.

    Every variant sees the same runs: the same realized states, accept
    coins, branch coins and arrival orders, drawn once in blocks of at
    most ``CHUNK_RUNS`` rows. When the small and the large policy of the
    same budget mode are both asked for, the combined policy takes each
    run from the branch its coin chose instead of a kernel pass of its
    own. Per-run vectors are kept whole, so ``mean`` and ``stderr`` sum
    the same vector in the same order at any chunk size; pair counts
    are summed per block as integers. Memory is one block's arrays plus
    24 bytes per run per variant.
    """
    if runs < 1:
        raise ValidationError("runs", "must be at least 1")
    variants = list(dict.fromkeys((kind, bool(ignore)) for kind, ignore in variants))
    if not variants:
        raise ValidationError("variants", "expected at least one (kind, ignore_budget) pair")
    for kind, _ in variants:
        _check_kind(kind)
    probs = acceptance_probabilities(inst, y)
    I, S = inst.item_count, inst.state_count
    branch_small = np.empty(runs, dtype=bool)
    sims = [PolicySimulation(kind, runs, np.empty(runs), np.empty(runs),
                             np.empty(runs, dtype=np.int64), np.zeros((I, S + 1), dtype=np.int64),
                             branch_small if kind == "stocan" else None, ignore, inst.budget,
                             [] if records else None)
            for kind, ignore in variants]
    start = 0
    for block in _draw_plan(inst, runs, order, seed):
        stop = start + len(block[2])
        branch_small[start:stop] = block[2]
        done = {}  # stocan goes last, so it can be read off small and large
        for kind, ignore in sorted(variants, key=lambda v: v[0] == "stocan"):
            if kind == "stocan" and ("small", ignore) in done and ("large", ignore) in done:
                rows = _select(block[2], done["small", ignore], done["large", ignore])
            else:
                keep_small = block[2] if kind == "stocan" else kind == "small"
                rows = _kernel(inst, objective, probs, block, keep_small, ignore)
            done[kind, ignore] = rows
        for sim in sims:
            rows = done[sim.kind, sim.ignore_budget]
            sim.values[start:stop] = rows.values
            sim.total_costs[start:stop] = rows.spent
            sim.selection_sizes[start:stop] = rows.sizes
            sim.pair_counts += rows.counts.sum(axis=1)
            if records:
                sim.records += _records(sim.kind, sim.ignore_budget, block, rows)
        start = stop
        del block, done, rows  # free this block's arrays before the plan draws the next
    return sims


def simulate_policy(kind: str, inst: Instance, objective: LatticeObjective, y: np.ndarray,
                    runs: int, order="identity", seed: int = 0, *,
                    ignore_budget: bool = False) -> PolicySimulation:
    """Run a vectorized simulation campaign, deterministic in ``seed``.

    One variant of :func:`simulate_policies`. State draws do not depend
    on ``kind``, so campaigns with the same seed are paired across
    policies.
    """
    sim, = simulate_policies(inst, objective, y, runs, [(kind, ignore_budget)], order, seed)
    return sim


def exact_policy_value(kind: str, inst: Instance, objective: LatticeObjective,
                       y: np.ndarray, order="identity") -> float:
    """Exact expected policy value over states and accept coins.

    Enumerates every state realization and, per realization, the full
    tree of accept-coin outcomes along the arrival order (the combined
    policy averages its two branches). Guarded by S^I * 2^I <= 1e6.
    """
    _check_kind(kind)
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
    sim, = simulate_policies(inst, objective, y, runs, [(kind, False)], order, seed, records=True)
    return sim.records

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
once, one arrival position (one column of states and coins) at a time,
recording an int8 action code per run and position. Within
``ENUM_GUARD`` a run's value is read from the objective's value table
(:func:`~stocan.extension.value_table`, built once per objective), else
from ``value_many`` on the selection matrix. A
command feeds all its campaigns from one plan
(:func:`simulate_policies`); since the combined policy's run is the run
of the branch its coin chose, it is read off the small and large rows
when those are run too. Campaign statistics (:func:`simulate_policy`),
run records (:func:`scalar_runs`) and single runs on a given
realization (:func:`run_policy`) are views of it: a :class:`RunRecord`
is a row of a campaign, so records and statistics come from the same
draws.
:func:`exact_policy_value` is the independent oracle and shares no code
with the kernel but the value table.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import BudgetViolationError, CapacityError, PreconditionError, ValidationError
from .extension import value_table
from .model import ENUM_GUARD, Instance, LatticeObjective, PROB_TOL, sample_states
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


def _normal_order(order, item_count: int):
    """An arrival-order spec as ``"random"`` or the tuple of its permutation."""
    if isinstance(order, str) and order == "random":
        return order
    return tuple(resolve_order(order, item_count).tolist())


def _draw_plan(inst: Instance, runs: int, random_order: bool, seed: int):
    """Yield the ``(phi, coins, branch_small, orders)`` blocks of runs ``0..runs-1``.

    A block holds at most ``CHUNK_RUNS`` rows. Each named substream is
    opened once and read block after block, so a block's row ``r`` is row
    ``start + r`` of one ``(runs, I)`` draw and no result depends on
    ``CHUNK_RUNS``. Run ``r`` owns its realized states, its accept coins
    (one per arrival position), its branch coin and, with
    ``random_order``, its arrival order; without it ``orders`` is None and
    the ``ORDERS`` stream is not read.
    """
    I = inst.item_count
    states, coins, branch = (substream(seed, s) for s in (STATES, COINS, BRANCH))
    orders = substream(seed, ORDERS) if random_order else None
    for start in range(0, runs, CHUNK_RUNS):
        n = min(CHUNK_RUNS, runs - start)
        # the kernel reads states and coins one arrival position (column) at a time
        yield (sample_states(inst, states, n, layout="F"), np.asfortranarray(coins.random((n, I))),
               branch.random(n) < 0.5,
               np.argsort(orders.random((n, I)), axis=1) if random_order else None)


def _arrivals(block, order):
    """``block`` as a variant of normalized ``order`` sees it: a fixed order stays its
    permutation tuple, ``"random"`` takes the block's ``(n, I)`` arrival orders."""
    phi, coins, branch_small, random_orders = block
    return phi, coins, branch_small, random_orders if order == "random" else order


def _kernel(inst, objective, probs, block, keep_small, ignore_budget) -> _Rows:
    """Execute the policy rule on every row of one plan block.

    ``keep_small`` is True for the small policy, False for the large one,
    and the block's per-run branch coins for the combined policy. Every
    decision of every run is made here. The item at arrival position
    ``t`` is a Python int under a fixed order and an ``(n,)`` array under
    random orders; every formula below takes either. Within
    ``ENUM_GUARD`` a run's value is read from the objective's value table
    at the mixed-radix rank of its selection, and no selection matrix is
    built; either way the value has the bits ``value_many`` gives.
    """
    phi, coins, branch_small, order = block
    n, I = phi.shape
    S1 = inst.state_count + 1
    table = value_table(objective) if S1 ** I <= ENUM_GUARD else None
    budget, half = inst.budget, inst.budget / 2
    # by padded pair index item * (S+1) + state, so a realized state indexes its item's row
    cost_of = np.pad(inst.cost, ((0, 0), (1, 0))).ravel()
    prob_of = np.pad(probs, ((0, 0), (1, 0))).ravel()
    radix = S1 ** np.arange(I - 1, -1, -1)  # an item's weight in the rank of a selection
    fixed = isinstance(order, tuple)
    rows = slice(None) if fixed else np.arange(n)  # phi[rows, items]: a column, or a gather
    actions = np.empty((n, I), dtype=np.int8, order="F")
    spent = np.zeros(n)
    sizes = np.zeros(n, dtype=np.int64)
    # flat (I, 2, S+1) pair counts split by the branch coin, so the combined
    # policy's can be taken half by half
    counts = np.zeros(I * 2 * S1, dtype=np.int64)
    branch_key = branch_small * S1
    if table is None:
        selected = np.zeros((n, I), dtype=np.int64, order="F")  # value_many reads columns
    else:
        rank = np.zeros(n, dtype=np.int64)
    for t in range(I):
        items = order[t] if fixed else order[:, t]
        states = phi[rows, items]
        pair = items * S1 + states
        cost = cost_of.take(pair)
        keep = (cost <= half) == keep_small
        accept = keep & (coins[:, t] < prob_of.take(pair))
        # action codes DISCARD..ACCEPT are 0..3: kept pairs reject (1), skip (2) or accept (3)
        if ignore_budget:
            code = 1 + 2 * accept.view(np.int8)
        else:
            fits = spent + cost <= budget
            accept &= fits
            code = 2 - fits.view(np.int8) + 2 * accept.view(np.int8)
        np.multiply(keep.view(np.int8), code, out=actions[:, t])
        np.add(spent, cost, out=spent, where=accept)
        sizes += accept
        chosen = states * accept
        counts += np.bincount(items * (2 * S1) + branch_key + chosen, minlength=counts.size)
        if table is None:
            selected[rows, items] = chosen  # a run visits each item once
        else:
            rank += chosen * radix[items]

    over = ~(spent <= budget)  # a NaN spend is over budget too
    if not ignore_budget and np.any(over):
        bad = int(np.argmax(over))  # pragma: no cover
        raise BudgetViolationError(  # pragma: no cover - structurally unreachable
            {"run": bad, "total_cost": float(spent[bad])}
        )
    values = (np.asarray(objective.value_many(selected), dtype=float) if table is None
              else table.take(rank))
    return _Rows(actions, spent, sizes, values, counts.reshape(I, 2, S1))


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
    orders = np.broadcast_to(np.array(orders), phi.shape)  # a fixed order is a tuple
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
    order = _normal_order(order, inst.item_count)
    _, coins, branch_small, random_orders = next(_draw_plan(inst, 1, order == "random", seed))
    block = _arrivals((phi[None, :], coins, branch_small, random_orders), order)
    keep_small = branch_small if kind == "stocan" else kind == "small"
    return _records(kind, ignore_budget, block,
                    _kernel(inst, objective, probs, block, keep_small, ignore_budget))[0]


@dataclass
class PolicySimulation:
    """Aggregate of a seeded simulation campaign.

    Holds one value per run and, for the combined policy, the coin
    outcome ``branch_small`` of every run. The rest is reduced per block
    to exact integers: per-pair inclusion counts (``pair_counts[i, s]``
    runs selected item ``i`` at state ``s``), the runs whose spend is not
    within the budget, and the most pairs one run selected, by branch
    coin (``largest_selection[0]`` over the runs whose coin chose large,
    ``[1]`` over those whose coin chose small). Per-run states and
    actions are kept only as ``records``, and only when the campaign was
    asked for them. ``mean`` and ``stderr`` are set once the last block
    is folded in (NaN until then; ``stderr`` stays NaN for a single run).
    """

    kind: str
    runs: int
    values: np.ndarray
    pair_counts: np.ndarray
    branch_small: np.ndarray | None
    ignore_budget: bool
    budget_violations: int = 0
    largest_selection: np.ndarray = field(default_factory=lambda: np.zeros(2, dtype=np.int64))
    records: list | None = None
    mean: float = math.nan
    stderr: float = math.nan

    @property
    def is_single_run(self) -> bool:
        return self.runs == 1

    def pair_inclusion_frequency(self, item: int, state: int) -> float:
        return float(self.pair_counts[item, state] / self.runs)


def _fold(sim: PolicySimulation, start: int, block, rows: _Rows, budget: float) -> None:
    """Write one block's rows into the campaign ``sim``."""
    branch_small = block[2]
    sim.values[start:start + len(rows.values)] = rows.values
    sim.pair_counts += rows.counts.sum(axis=1)
    # exact comparison on the accumulated spend; no tolerance, and NaN counts
    sim.budget_violations += int(np.count_nonzero(~(rows.spent <= budget)))
    # runs by (selection size 0..I, branch coin), then the largest size each coin saw
    top = rows.actions.shape[1] + 1
    by_size = np.bincount(rows.sizes * 2 + branch_small, minlength=2 * top).reshape(top, 2)
    sim.largest_selection = np.maximum(sim.largest_selection,
                                       [np.flatnonzero(col).max(initial=0) for col in by_size.T])
    if sim.records is not None:
        sim.records += _records(sim.kind, sim.ignore_budget, block, rows)


def simulate_policies(inst: Instance, objective: LatticeObjective, y: np.ndarray, runs: int,
                      variants, seed: int = 0, *,
                      records: bool = False) -> list[PolicySimulation]:
    """Run ``(kind, ignore_budget, order)`` variants on one draw plan; one campaign each.

    Every variant sees the same runs: the same realized states, accept
    coins and branch coins, drawn once in blocks of at most
    ``CHUNK_RUNS`` rows, and every ``"random"`` variant the same per-run
    arrival orders. A fixed order is normalized to the tuple of its
    permutation (``"identity"`` is ``(0, ..., I-1)``), and variants equal
    after that run once: the result holds one campaign per requested
    variant, in request order, and equal variants share theirs. When the
    small and the large policy of the same budget mode and order are
    both asked for, the combined policy takes each run from the branch
    its coin chose instead of a kernel pass of its own. Values are kept
    whole, so ``mean`` and ``stderr`` sum the same vector in the same
    order at any chunk size; pair counts, budget violations and largest
    selections are reduced per block as integers. Memory is one block's
    arrays plus 8 bytes per run per campaign, and, within ``ENUM_GUARD``,
    the objective's value table (8 bytes per lattice point).
    """
    if runs < 1:
        raise ValidationError("runs", "must be at least 1")
    variants = list(variants)
    if not variants:
        raise ValidationError("variants", "expected at least one (kind, ignore_budget, order)")
    for kind, _, _ in variants:
        _check_kind(kind)
    probs = acceptance_probabilities(inst, y)
    I, S = inst.item_count, inst.state_count
    requested = [(kind, bool(ignore), _normal_order(order, I)) for kind, ignore, order in variants]
    branch_small = np.empty(runs, dtype=bool)
    sims = {v: PolicySimulation(v[0], runs, np.empty(runs), np.zeros((I, S + 1), dtype=np.int64),
                                branch_small if v[0] == "stocan" else None, v[1],
                                records=[] if records else None)
            for v in requested}
    # stocan goes last, so it can be read off small and large of its budget mode and order
    passes = sorted(sims, key=lambda v: v[0] == "stocan")
    read_off = {(ignore, order) for kind, ignore, order in passes if kind == "stocan"
                and ("small", ignore, order) in sims and ("large", ignore, order) in sims}
    start = 0
    for block in _draw_plan(inst, runs, any(v[2] == "random" for v in passes), seed):
        branch_small[start:start + len(block[2])] = block[2]
        done = {}  # this block's small and large rows, until stocan is read off them
        for kind, ignore, order in passes:
            view = _arrivals(block, order)
            if kind == "stocan" and (ignore, order) in read_off:
                rows = _select(block[2], done.pop(("small", ignore, order)),
                               done.pop(("large", ignore, order)))
            else:
                keep_small = block[2] if kind == "stocan" else kind == "small"
                rows = _kernel(inst, objective, probs, view, keep_small, ignore)
                if (ignore, order) in read_off:
                    done[kind, ignore, order] = rows
            _fold(sims[kind, ignore, order], start, view, rows, inst.budget)
        start += len(block[2])
        del block, view, rows  # free this block's arrays before the plan draws the next
    for sim in sims.values():
        sim.mean = float(np.mean(sim.values))
        if runs > 1:
            sim.stderr = float(np.std(sim.values, ddof=1) / math.sqrt(runs))
    return [sims[v] for v in requested]


def simulate_policy(kind: str, inst: Instance, objective: LatticeObjective, y: np.ndarray,
                    runs: int, order="identity", seed: int = 0, *,
                    ignore_budget: bool = False) -> PolicySimulation:
    """Run a vectorized simulation campaign, deterministic in ``seed``.

    One variant of :func:`simulate_policies`. State draws do not depend
    on ``kind``, so campaigns with the same seed are paired across
    policies.
    """
    sim, = simulate_policies(inst, objective, y, runs, [(kind, ignore_budget, order)], seed)
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
    sim, = simulate_policies(inst, objective, y, runs, [(kind, False, order)], seed, records=True)
    return sim.records

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
for good. The unbudgeted small policy of the paper's analysis is never
run: ``verify`` checks its floor with its exact expected value, and the
combined policy's floor at each checked arrival order with
:func:`exact_policy_value`.

A draw plan yields a campaign's realized states, accept coins, branch
coins and arrival orders in blocks of at most ``CHUNK_RUNS`` runs, and
one vectorized kernel executes this rule for every run of a block at
once, one arrival position (one column of states and coins) at a time.
Only run records read the int8 action code of each run and position, so
only their pass builds it. The kernel gives each run a *key*: within
``ENUM_GUARD`` the int32 rank of its selection in the objective's value
table (:func:`~stocan.extension.value_table`, built once per objective),
else its value, from ``value_many`` on the selection matrix. A
command runs its three campaigns, at one arrival order, on one plan
(:func:`simulate_policies`), two kernel passes a block: the combined
policy's run is the run of the branch its coin chose, so its key, spend
and selection size are read off the small and large rows by its branch
coin. A campaign keeps only what a command reads; run records
(:func:`iter_records`) come from a pass of their own over the same
seeded plan, one block at a time, so a :class:`RunRecord` is a row of
the campaign of its seed, and a single run is row 0.
:func:`exact_policy_value` is the independent oracle: it carries the
law of the selection forward over the arrival positions instead of
drawing runs, and shares no code with the kernel but the value table.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ValidationError
from .extension import value_table
from .model import ENUM_GUARD, Instance, LatticeObjective, _int
from .optimizer import check_lp_feasible
from .rng import BRANCH, COINS, ORDERS, STATES, substream

KINDS = ("small", "large", "stocan")

DISCARDED = "discarded-by-size"
REJECTED = "rejected-by-coin"
SKIPPED = "skipped-no-budget"
ACCEPTED = "accepted"
ACTIONS = (DISCARDED, REJECTED, SKIPPED, ACCEPTED)  # indexed by the int8 action code

CHUNK_RUNS = 8_192  # rows per block of a draw plan


def order_indices(order) -> tuple:
    """A non-string order as the tuple of its item indices, else a ValidationError at ``order``."""
    try:
        return tuple(_int(v, "order") for v in order)
    except TypeError:  # not iterable
        raise ValidationError("order", f"expected a spec or a list of item indices "
                                       f"(got {order!r})") from None


def resolve_order(order, item_count: int):
    """An arrival-order spec as ``"random"`` or the tuple of its permutation of 0..I-1."""
    if isinstance(order, str):
        if order == "random":
            return order
        if order == "identity":
            return tuple(range(item_count))
        raise ValidationError("order", f"unknown order spec {order!r}")
    arr = list(order_indices(order))
    if sorted(arr) != list(range(item_count)):
        raise ValidationError("order", f"{arr} is not a permutation of 0..{item_count - 1}")
    return tuple(arr)


def acceptance_probabilities(inst: Instance, y: np.ndarray) -> np.ndarray:
    """Per-pair accept probability y/(4p), zero where p = 0.

    A y outside the LP polytope raises :func:`check_lp_feasible`'s
    ``ValidationError``, which names the entry. The LP admits y up to
    ``PROB_TOL`` outside ``[0, p]``, so y is clipped into ``[0, p]`` first,
    and every probability is at most 1/4 exactly.
    """
    check_lp_feasible(y, inst)
    probs = np.zeros_like(inst.prob)
    np.divide(np.clip(y, 0.0, inst.prob), 4.0 * inst.prob, out=probs, where=inst.prob > 0)
    return probs


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

    def to_json(self) -> str:
        return json.dumps({
            "kind": self.kind,
            "branch": self.branch,
            "order": list(self.order),
            "events": [{"item": i, "state": s, "action": a} for i, s, a in self.events],
            "selected": [list(p) for p in self.selected],
            "total_cost": self.total_cost,
            "value": self.value,
        }, sort_keys=True)


@dataclass(frozen=True)
class _Rows:
    """What the kernel decided for one block of runs."""

    actions: np.ndarray | None  # (n, I) action code per arrival position, if asked for
    spent: np.ndarray  # (n,) accumulated cost
    sizes: np.ndarray  # (n,) accepted pairs per run
    keys: np.ndarray | None  # (n,) table rank (int32) within ENUM_GUARD, else the run's value
    values: np.ndarray | None = None  # (n,) the runs' objective values, if codes were asked for


@dataclass(frozen=True)
class _Rule:
    """The policy rule's constants for one campaign: built once, read by every block."""

    budget: float
    half: float
    S1: int  # S + 1: an item's states, 0 (unselected) included
    cost_of: np.ndarray  # by padded pair index item * (S+1) + state, so a state indexes its row
    prob_of: np.ndarray  # accept probability, by the same index
    radix: np.ndarray  # an item's weight in the rank of a selection
    table: np.ndarray | None  # the objective's value table, within ENUM_GUARD
    objective: LatticeObjective


def _rule(inst: Instance, objective: LatticeObjective, probs: np.ndarray) -> _Rule:
    """The :class:`_Rule` of campaigns on ``inst`` at accept probabilities ``probs``."""
    S1, I = inst.state_count + 1, inst.item_count
    return _Rule(budget=inst.budget, half=inst.budget / 2, S1=S1,
                 cost_of=np.pad(inst.cost, ((0, 0), (1, 0))).ravel(),
                 prob_of=np.pad(probs, ((0, 0), (1, 0))).ravel(),
                 radix=S1 ** np.arange(I - 1, -1, -1),
                 table=value_table(objective) if S1 ** I <= ENUM_GUARD else None,
                 objective=objective)


def _campaign(inst: Instance, objective: LatticeObjective, y: np.ndarray, runs: int, order):
    """The resolved order and the :class:`_Rule` of a campaign of ``runs`` runs."""
    if _int(runs, "runs") < 1:
        raise ValidationError("runs", "must be at least 1")
    order = resolve_order(order, inst.item_count)
    # built before the campaign arrays, so that the value table's temporaries add nothing to their peak
    return order, _rule(inst, objective, acceptance_probabilities(inst, y))


def _values(table: np.ndarray | None, keys: np.ndarray) -> np.ndarray:
    """The run values of ``keys``: value-table entries within ``ENUM_GUARD``, else the keys."""
    return keys if table is None else table.take(keys)


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValidationError("kind", f"unknown policy kind {kind!r}")


def sample_states(inst: Instance, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` independent state realizations, shape ``(n, I)``.

    Item ``i`` takes state ``1 + #{k < S-1 : u >= cum_i[k]}`` for a uniform
    ``u``, where ``cum_i`` is the cumulative sum of its state law: since
    ``cum_i`` is nondecreasing, that is ``searchsorted(cum_i, u, "right")``
    clipped to ``S-1``, plus one, and a rounded last sum below 1 cannot
    yield state ``S+1``. The array is column-major, because the kernel
    reads it one arrival position (one column) at a time; the layout does
    not change the draws.
    """
    u = rng.random((n, inst.item_count)).T  # u[i] is item i's column of the (n, I) draw
    out = np.ones((inst.item_count, n), dtype=np.int64)  # out.T is column-major
    cum = np.cumsum(inst.prob, axis=1)
    for k in range(inst.state_count - 1):
        out += u >= cum[:, k, None]
    return out.T


def _draw_plan(inst: Instance, runs: int, order, seed: int):
    """Yield the ``(phi, coins, branch_small, order)`` blocks of runs ``0..runs-1``.

    ``order`` is resolved (:func:`resolve_order`). A block holds at most
    ``CHUNK_RUNS`` rows. Each named substream is opened once and read
    block after block, so a block's row ``r`` is row ``start + r`` of one
    ``(runs, I)`` draw and no result depends on ``CHUNK_RUNS``. Run ``r``
    owns its realized states, its accept coins (one per arrival
    position), its branch coin and, under ``"random"``, its arrival order:
    the block's ``order`` is then the ``(n, I)`` array of them, and
    otherwise the fixed order's tuple, with the ``ORDERS`` stream unread.
    """
    I = inst.item_count
    states, coins, branch = (substream(seed, s) for s in (STATES, COINS, BRANCH))
    orders = substream(seed, ORDERS) if order == "random" else None
    for start in range(0, runs, CHUNK_RUNS):
        n = min(CHUNK_RUNS, runs - start)
        # the kernel reads states and coins one arrival position (column) at a time
        yield (sample_states(inst, states, n), np.asfortranarray(coins.random((n, I))),
               branch.random(n) < 0.5,
               order if orders is None else np.argsort(orders.random((n, I)), axis=1))


def _kernel(rule: _Rule, block, keep_small, codes: bool = False) -> _Rows:
    """Execute the policy rule on every row of one plan block.

    ``keep_small`` is True for the small policy, False for the large one,
    and the block's per-run branch coins for the combined policy. Every
    decision of every run is made here; with ``codes`` each is also kept
    as an action code, and each run's value is gathered, which only run
    records read. The item at arrival position ``t`` is a Python int
    under a fixed order and an ``(n,)`` array under random orders; every
    formula below takes either. Within ``ENUM_GUARD`` a run's key is the
    mixed-radix rank of its selection in the objective's value table, and
    no selection matrix is built; either way the value the key names has
    the bits ``value_many`` gives.
    """
    phi, coins, _, order = block
    n, I = phi.shape
    fixed = isinstance(order, tuple)
    rows = slice(None) if fixed else np.arange(n)  # phi[rows, items]: a column, or a gather
    actions = np.empty((n, I), dtype=np.int8, order="F") if codes else None
    spent = np.zeros(n)
    sizes = np.zeros(n, dtype=np.int64)
    if rule.table is None:
        selected = np.zeros((n, I), dtype=np.int64, order="F")  # value_many reads columns
    else:
        rank = np.zeros(n, dtype=np.int32)  # (S+1)^I <= ENUM_GUARD ranks fit int32
    for t in range(I):
        items = order[t] if fixed else order[:, t]
        states = phi[rows, items]
        pair = items * rule.S1 + states
        cost = rule.cost_of.take(pair)
        keep = (cost <= rule.half) == keep_small
        fits = spent + cost <= rule.budget
        accept = keep & fits & (coins[:, t] < rule.prob_of.take(pair))
        if codes:
            # an action code indexes ACTIONS: 0 discards; kept pairs reject (1), skip (2) or accept (3)
            code = 2 - fits.view(np.int8) + 2 * accept.view(np.int8)
            np.multiply(keep.view(np.int8), code, out=actions[:, t])
        np.add(spent, cost, out=spent, where=accept)
        sizes += accept
        chosen = states * accept
        if rule.table is None:
            selected[rows, items] = chosen  # a run visits each item once
        else:
            rank += chosen * rule.radix[items]

    keys = (np.asarray(rule.objective.value_many(selected), dtype=float) if rule.table is None
            else rank)
    return _Rows(actions, spent, sizes, keys, _values(rule.table, keys) if codes else None)


def _records(kind, block, rows: _Rows):
    """Yield a :class:`RunRecord` per row of one block, from rows the kernel ran with ``codes``."""
    phi, _, branch_small, orders = block
    orders = np.broadcast_to(np.array(orders), phi.shape)  # a fixed order is a tuple
    seen = np.take_along_axis(phi, orders, axis=1)  # states in arrival order
    for order, states, codes, spent, value, small in zip(
            orders.tolist(), seen.tolist(), rows.actions.tolist(), rows.spent.tolist(),
            rows.values.tolist(), branch_small.tolist()):
        events = tuple(zip(order, states, [ACTIONS[a] for a in codes]))
        yield RunRecord(
            kind=kind,
            order=tuple(order),
            events=events,
            selected=tuple((i, s) for i, s, a in events if a == ACCEPTED),
            total_cost=spent,
            value=value,
            branch=("small" if small else "large") if kind == "stocan" else None,
        )


@dataclass(frozen=True)
class PolicySimulation:
    """Aggregate of a seeded simulation campaign: its statistics and two exact integers.

    The integers are reduced per block from the small and large kernel
    rows and the branch coins: the runs whose spend is not within the
    budget, and ``largest_large``, the most pairs selected by one run that
    followed the large rule (every run of a large campaign, the runs of a
    combined campaign whose coin chose large, none of a small campaign's).
    No per-run values, states, coins or actions are kept;
    :func:`iter_records` draws them again from the same seed. Built once,
    after the statistics are taken; ``stderr`` is NaN for a single run.
    """

    kind: str
    runs: int
    budget_violations: int
    largest_large: int
    mean: float
    stderr: float


def simulate_policies(inst: Instance, objective: LatticeObjective, y: np.ndarray, runs: int,
                      order="identity", seed: int = 0) -> list[PolicySimulation]:
    """Run the small, large and combined policies on one draw plan: ``[small, large, stocan]``.

    The three campaigns see the same runs: the same realized states,
    accept coins and, under ``"random"``, per-run arrival orders, drawn
    once in blocks of at most ``CHUNK_RUNS`` rows. Each block takes two
    kernel passes, small and large; the combined policy takes each run
    from the branch its coin chose. The campaigns keep the small and large
    key of every run and its branch coin: 9 bytes per run within
    ``ENUM_GUARD`` (two int32 table ranks and a bool), 17 past it (two
    values). Each block's budget violations and largest large-rule
    selection are reduced as integers, for all three campaigns, from the
    small and large rows' spends and sizes and the block's branch coins.
    The statistics are then taken one campaign at a time, from run values
    gathered off the keys a node of numpy's pairwise sum at a time
    (:func:`_statistics`): the bits of ``np.mean`` and ``np.std(ddof=1)``
    at any chunk size, with no per-run buffer. Memory is the keys and
    coins, one block's draws and kernel columns (no action codes: about
    2.4 MB at 12 items), and, within ``ENUM_GUARD``, the objective's value
    table (8 bytes per lattice point). No run record is built;
    :func:`iter_records` gives a campaign's records.
    """
    order, rule = _campaign(inst, objective, y, runs, order)
    keys = np.empty((2, runs), dtype=float if rule.table is None else np.int32)  # small's, large's
    branch = np.empty(runs, dtype=bool)
    violations, largest = [0] * 3, [0] * 3  # by KINDS
    start = 0
    for block in _draw_plan(inst, runs, order, seed):
        branch_small = block[2]
        stop = start + len(branch_small)
        branch[start:stop] = branch_small
        small, large = (_kernel(rule, block, keep) for keep in (True, False))
        keys[0, start:stop], keys[1, start:stop] = small.keys, large.keys
        # exact comparison on the accumulated spend; no tolerance, and NaN counts
        over = [~(rows.spent <= rule.budget) for rows in (small, large)]
        for k, mask in enumerate((*over, np.where(branch_small, *over))):
            violations[k] += int(np.count_nonzero(mask))
        # the large rule's runs: all of large's, and stocan's where the coin chose large
        for k, where in ((1, True), (2, ~branch_small)):
            largest[k] = max(largest[k], int(large.sizes.max(initial=0, where=where)))
        start = stop
        del block, small, large, over  # free this block before the plan draws the next
    sims = []
    for k, kind in enumerate(KINDS):
        def values(a: int, b: int) -> np.ndarray:  # runs a..b-1, in a new array
            out = _values(rule.table, keys[1 if kind == "stocan" else k, a:b]).astype(float)
            if kind == "stocan":  # large's run, or small's where the coin chose small
                np.copyto(out, _values(rule.table, keys[0, a:b]), where=branch[a:b])
            return out
        mean, std = _statistics(values, runs)
        sims.append(PolicySimulation(kind, runs, violations[k], largest[k], mean,
                                     float(std / math.sqrt(runs))))  # NaN for a single run
    return sims


def _pairwise(leaf, start: int, n: int):
    """``np.add.reduce`` of ``n`` entries from ``start``, where ``leaf(a, b)`` sums entries ``a..b-1``.

    numpy splits a node of ``n > 128`` entries at ``n//2 - n//2 % 8``; a
    node of at most ``CHUNK_RUNS`` (or 128) entries goes to ``leaf`` whole.
    """
    if n <= max(CHUNK_RUNS, 128):
        return leaf(start, start + n)
    half = n // 2 - n // 2 % 8
    return _pairwise(leaf, start, half) + _pairwise(leaf, start + half, n - half)


def _statistics(values, n: int) -> tuple[float, float]:
    """``np.mean`` and ``np.std(ddof=1)``, bit for bit, of ``n`` entries; ``values(a, b)`` copies ``a..b-1``.

    The reductions of ``np.mean`` and ``np.var``: the pairwise sum, the
    deviations from that mean squared, and their pairwise sum over
    ``n - 1``, each taken a node of :func:`_pairwise` at a time, so no
    ``n``-long vector is built. The std is NaN for a single entry.
    """
    def squares(a: int, b: int):
        dev = values(a, b) - mean
        return np.add.reduce(np.multiply(dev, dev, out=dev))

    mean = _pairwise(lambda a, b: np.add.reduce(values(a, b)), 0, n) / n
    with np.errstate(invalid="ignore", divide="ignore"):
        return float(mean), float(np.sqrt(_pairwise(squares, 0, n) / (n - 1)))


def simulate_policy(kind: str, inst: Instance, objective: LatticeObjective, y: np.ndarray,
                    runs: int, order="identity", seed: int = 0) -> PolicySimulation:
    """Run a vectorized simulation campaign, deterministic in ``seed``.

    The ``kind`` campaign of :func:`simulate_policies`. State draws do
    not depend on ``kind``, so campaigns with the same seed are paired
    across policies.
    """
    _check_kind(kind)
    return simulate_policies(inst, objective, y, runs, order, seed)[KINDS.index(kind)]


def combined_value(small: float, large: float) -> float:
    """The combined policy's expected value from its branches': a fair coin between them."""
    return 0.5 * small + 0.5 * large


def exact_policy_value(kind: str, inst: Instance, objective: LatticeObjective,
                       y: np.ndarray, order="identity") -> float:
    """Exact expected policy value over states and accept coins.

    A forward pass over the arrival positions carries the probability of
    every selection, as an ``(S+1)^I`` tensor. When item ``i`` arrives,
    each selection without it passes mass ``p_is * y_is / (4 p_is)`` to
    the same selection with ``i`` at ``s``, wherever the branch keeps
    ``s`` and the new spend is within the budget. The spend of every
    selection of the items that have arrived is a broadcast sum of their
    cost rows (0 at state 0), added in arrival order: the kernel's own
    additions, since adding 0.0 is exact. Each passed pair's accept factor
    goes into its own slot of the law and is multiplied there by the mass
    without ``i``; the factor that mass keeps is built in the old spend,
    which no later arrival reads. The pass so holds the law, the table, a
    spend one axis shorter and one mask. The value is that law against the
    value table; the combined policy's is the fair coin between its
    branches' (:func:`combined_value`). Bounded, like the table, by ``ENUM_GUARD``.
    """
    _check_kind(kind)
    probs = acceptance_probabilities(inst, y)
    I, S = inst.item_count, inst.state_count
    order = resolve_order(order, I)
    if order == "random":
        raise ValidationError("order", "an exact expectation needs a fixed order, not 'random'")
    table = value_table(objective)
    accept = inst.prob * probs  # item i arrives at s and its coin accepts it
    cost_rows = np.pad(inst.cost, ((0, 0), (1, 0)))  # by state, 0 (unselected) included

    def branch(keep_small: bool) -> float:
        mass = np.zeros((S + 1,) * I)
        mass.flat[0] = 1.0
        # where mass can be: items yet to arrive at 0, kept as length-1 axes so the spend broadcasts
        at = [slice(0, 1)] * I
        spent = np.zeros((1,) * I)  # the spend of each selection of the arrived items
        for t, i in enumerate(order):
            without = mass[tuple(at)]
            fits, slots = np.empty(spent.shape, dtype=bool), []
            for s in range(1, S + 1):
                cost = inst.cost[i, s - 1]
                if (cost <= inst.budget / 2) != keep_small:
                    continue
                at[i] = slice(s, s + 1)
                slot = mass[tuple(at)]  # item i at s: empty until now
                # the new spend, then the accept factor where it is within the budget, 0.0 elsewhere
                np.add(spent, cost, out=slot)
                np.less_equal(slot, inst.budget, out=fits)
                np.multiply(fits, accept[i, s - 1], out=slot)
                slots.append(slot)
            del fits
            at[i] = slice(None)
            stay = spent  # no later arrival reads this spend: the staying factor is built in it
            if t + 1 < I:  # the next arrival reads the spend with item i's cost row added
                spent = spent + cost_rows[i].reshape([S + 1 if j == i else 1 for j in range(I)])
            stay.fill(1.0)
            for slot in slots:
                stay -= slot
                slot *= without
            without *= stay
            del stay  # freed before the next arrival takes its mask
        # an elementwise sum, not a BLAS dot, so the value does not depend on thread count;
        # the product is taken in place, with no table-sized temporary
        flat = mass.reshape(-1)
        np.multiply(flat, table, out=flat)
        return float(np.sum(flat))

    if kind == "stocan":
        return combined_value(branch(True), branch(False))
    return branch(kind == "small")


def write_records(path, records: Iterable[RunRecord]) -> int:
    """Serialize one JSON record per line; returns the record count."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(rec.to_json())
            fh.write("\n")
            n += 1
    return n


def iter_records(kind: str, inst: Instance, objective: LatticeObjective, y: np.ndarray,
                 runs: int, order="identity", seed: int = 0):
    """Yield one record per run of the campaign :func:`simulate_policy` runs.

    A pass of its own over the same draw plan, one block at a time: record
    ``r`` is row ``r`` of the campaign, and depends only on
    ``(seed, r, order, kind)``. ``stocan`` runs the kernel with the per-run
    branch coins, which gives bit for bit the rows a campaign reads off the
    small and large rows.
    """
    _check_kind(kind)
    order, rule = _campaign(inst, objective, y, runs, order)
    for block in _draw_plan(inst, runs, order, seed):
        keep_small = block[2] if kind == "stocan" else kind == "small"
        yield from _records(kind, block, _kernel(rule, block, keep_small, codes=True))
        del block  # free this block's arrays before the plan draws the next


def scalar_runs(kind: str, inst: Instance, objective: LatticeObjective, y: np.ndarray,
                runs: int, order="identity", seed: int = 0) -> list[RunRecord]:
    """The records :func:`iter_records` yields, as a list."""
    return list(iter_records(kind, inst, objective, y, runs, order, seed))

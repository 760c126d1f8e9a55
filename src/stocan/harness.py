"""Experiment harness: instance generation, campaigns, and verification.

Every command consumes an explicit master seed (wall-clock seeding is
not available anywhere) and emits a JSON report with stable key order,
so identical configurations produce byte-identical report files. Each
pass/fail verdict records both sides of its inequality, the tolerance,
and the sources of the compared quantities, making every verdict
recomputable from the report alone.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from . import extension, model, oracle, policies
from .errors import CapacityError, ValidationError
from .model import FAMILIES
from .optimizer import GreedyConfig, check_lp_feasible, continuous_greedy, split_solution
from .rng import GENERATOR, ORDERS, substream

GUARANTEE_RATIO = (1.0 - 1.0 / math.e) / 16.0  # combined-policy floor vs the oracle
FRACTIONAL_RATIO = 1.0 - 1.0 / math.e  # continuous-greedy floor vs the oracle
SPLIT_TOL = 1e-12
FRACTIONAL_TOL = 0.02
SIGMA = 4.0  # all stochastic bounds allow four standard errors, plus SPLIT_TOL for rounding
EXACT_SKIP = "exact extension beyond enumeration guard"


@dataclass
class ExperimentConfig:
    """Settings shared by the optimize / simulate / verify commands.

    These are the only defaults: the CLI flags read theirs from here. A
    non-string ``order`` is held as a tuple of item indices.
    """

    instance: str
    seed: int
    rounds: int = GreedyConfig.rounds
    marginals: str = GreedyConfig.marginal_mode
    samples: int = GreedyConfig.samples
    runs: int = 100_000
    order: object = "identity"
    order_checks: int = 10
    out: str | None = None
    records: str | None = None
    solution: str | None = None

    def __post_init__(self):
        if self.seed is None or model._int(self.seed, "seed") < 0:
            raise ValidationError("seed", "a nonnegative master seed is required")
        for name in ("rounds", "samples", "runs", "order_checks"):
            if model._int(getattr(self, name), name) < 1:
                raise ValidationError(name, "must be a positive integer")
        if not isinstance(self.order, str):
            self.order = policies.order_indices(self.order)
        for path in (self.out, self.records):
            if path:
                _check_writable(path)
        # a report never replaces the instance it reads (it may replace the solution), and
        # a records file is never a valid instance, solution or report
        for written, read in (("out", "instance"), ("records", "out"), ("records", "instance"),
                              ("records", "solution")):
            path, other = getattr(self, written), getattr(self, read)
            if path and other and os.path.realpath(path) == os.path.realpath(other):
                raise ValidationError(str(path), f"names the same file as {read}")


def _check_writable(path) -> None:
    """Reject an output path that cannot be written, before any work and without opening it.

    The file is not created or truncated here: an output may also be an
    input, as with ``--out`` equal to ``--solution``.
    """
    if os.path.isdir(path):
        raise ValidationError(str(path), "is a directory, not a file")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise ValidationError(str(path), f"directory {parent} does not exist")
    if not os.access(parent, os.W_OK):
        raise ValidationError(str(path), f"directory {parent} is not writable")


# ---------------------------------------------------------------------------
# instance generation

def generate_instance(items: int, states: int, family: str = "separable_concave",
                      seed: int = 0, elements: int = 6) -> dict:
    """Build a random valid instance payload, deterministic in ``seed``.

    Probability rows are Dirichlet draws; costs are sorted uniforms in
    [0.05, 1], so they are nondecreasing in the state by construction;
    the budget is 1, placing realized costs on both sides of B/2 while
    keeping every state individually affordable (a state costing more
    than B, which the loader admits, can never be accepted, and the
    greedy gives it no mass). Every object's keys are in sorted
    order, the order in which ``gen`` writes them.
    """
    if model._int(items, "items") < 1 or model._int(states, "states") < 1:
        raise ValidationError("items/states", "must be positive")
    if model._int(elements, "elements") < 2:
        raise ValidationError("elements", f"must be at least 2 (got {elements})")
    if family not in FAMILIES:
        raise ValidationError("family", f"unknown family {family!r} (choose from {FAMILIES})")
    if model._int(seed, "seed") < 0:
        raise ValidationError("seed", "a nonnegative master seed is required")
    rng = substream(seed, GENERATOR)
    item_rows = []
    for _ in range(items):
        probs = rng.dirichlet(np.ones(states))
        costs = np.sort(rng.uniform(0.05, 1.0, size=states))
        item_rows.append({"costs": [float(v) for v in costs],
                          "probs": [float(v) for v in probs]})

    if family == "separable_concave":
        weights = rng.uniform(0.5, 1.5, size=items)
        increments = np.sort(rng.uniform(0.2, 1.0, size=states))[::-1]
        g = np.concatenate([[0.0], np.cumsum(increments)])
        objective = {"family": family, "g": [float(v) for v in g],
                     "weights": [float(w) for w in weights]}
    elif family == "nested_coverage":
        weights = rng.uniform(0.3, 1.0, size=elements)
        covers = []
        for _ in range(items):
            first = rng.choice(elements, size=int(rng.integers(1, 3)), replace=False)
            current = set(int(e) for e in first)
            levels = [sorted(current)]
            for _ in range(states - 1):
                for e in range(elements):
                    if e not in current and rng.random() < 0.4:
                        current.add(e)
                levels.append(sorted(current))
            covers.append(levels)
        objective = {"covers": covers, "element_weights": [float(w) for w in weights],
                     "family": family}
    else:
        a = np.cumsum(rng.uniform(0.2, 1.0, size=(items, states)), axis=1)
        cap = float(rng.uniform(0.3, 0.8) * a[:, -1].sum())
        objective = {"a": [[float(v) for v in row] for row in a], "family": family,
                     "g": {"cap": cap, "kind": "cap", "scale": 1.0}}

    payload = {"budget": 1.0, "items": item_rows, "objective": objective}
    model.instance_from_dict(payload)  # generated instances must always validate
    return payload


# ---------------------------------------------------------------------------
# report plumbing


def _check(name, comparison, lhs, lhs_source, rhs, rhs_source, tolerance, detail=None):
    if comparison == "ge":
        margin = (lhs - rhs) + tolerance
    elif comparison == "le":
        margin = (rhs - lhs) + tolerance
    else:  # "abs": |lhs - rhs| <= tolerance
        margin = tolerance - abs(lhs - rhs)
    row = {
        "name": name,
        "status": "pass" if margin >= 0 else "fail",
        "comparison": comparison,
        "lhs": float(lhs),
        "lhs_source": lhs_source,
        "rhs": float(rhs),
        "rhs_source": rhs_source,
        "tolerance": float(tolerance),
        "margin": float(margin),
    }
    if detail is not None:
        row["detail"] = detail
    return row


def _skip(name, reason):
    return {"name": name, "status": "skipped", "skip_reason": reason}


def write_report(report: dict, out: str | None) -> str:
    try:
        body = json.dumps(report, indent=2, allow_nan=False)
    except ValueError:  # finite inputs whose statistics overflow to inf
        raise ValidationError("report", "a value overflowed the float range; "
                                        "rescale the instance's numbers") from None
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(body)
            fh.write("\n")
    return body


def _load(cfg: ExperimentConfig):
    payload = model.read_json(cfg.instance)
    inst, objective = model.instance_from_dict(payload)
    return payload, inst, objective


def _instance_header(cfg, payload, inst, objective) -> dict:
    return {
        "path": str(cfg.instance),
        "digest": model.instance_digest(payload),
        "items": inst.item_count,
        "states": inst.state_count,
        "budget": inst.budget,
        "objective_family": objective.family,
    }


def _config_header(cfg: ExperimentConfig, **extra) -> dict:
    head = {
        "seed": int(cfg.seed),
        "rounds": int(cfg.rounds),
        "marginals": cfg.marginals,
        "samples": int(cfg.samples),
    }
    head.update(extra)
    return head


def _solve(cfg, inst, objective, y=None):
    """y (by continuous greedy unless given), its solution block and the exact evaluator.

    The block holds y, its split, and H values: exact for
    ``separable_concave`` and ``nested_coverage`` at any size, whose
    evaluator builds no value table, and for ``concave_over_modular``
    when its value tensor fits the enumeration guard; else estimated, and
    the evaluator is None. One exact evaluator serves the greedy and the
    H values. A value table it reads stays on the objective, and the
    campaigns that follow read run values from it by rank.
    """
    try:
        ext = extension.FactoredExtension(objective)
    except CapacityError as exc:
        if y is None and cfg.marginals == "exact":  # the greedy needs exact marginals
            raise CapacityError(f"{exc}; use --marginals sampled") from exc
        ext = None
    if y is None:
        greedy = GreedyConfig(cfg.rounds, cfg.marginals, cfg.samples, cfg.seed)
        y = continuous_greedy(inst, objective, greedy, evaluator=ext)
    parts = dict(zip(("y", "y_small", "y_large"), (y, *split_solution(y, inst))))
    block = {key: part.tolist() for key, part in parts.items()}
    if ext is not None:
        block["H"] = {"method": "exact", **{key: ext.H(part) for key, part in parts.items()}}
    else:
        H = block["H"] = {"method": "estimate", "samples": int(cfg.samples)}
        for key, part in parts.items():
            H[key], H[f"{key}_stderr"] = extension.estimate_H(part, objective, cfg.samples, cfg.seed)
    return y, block, ext


# ---------------------------------------------------------------------------
# commands


def run_optimize(cfg: ExperimentConfig) -> dict:
    payload, inst, objective = _load(cfg)
    _, block, _ = _solve(cfg, inst, objective)
    return {
        "command": "optimize",
        "instance": _instance_header(cfg, payload, inst, objective),
        "config": _config_header(cfg),
        "solution": block,
    }


def _given_solution(cfg, payload, inst) -> np.ndarray | None:
    """y from the ``--solution`` report of the same instance, or None without one."""
    if not cfg.solution:
        return None
    prior = model.read_json(cfg.solution)
    try:
        y, digest = prior["solution"]["y"], prior["instance"]["digest"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(str(cfg.solution),
                              "no solution.y matrix and instance.digest in report") from exc
    if digest != model.instance_digest(payload):
        raise ValidationError(str(cfg.solution), "instance.digest differs from the --instance file's")
    y = model._floats(y, f"{cfg.solution}: solution.y", 2)
    try:  # checked before any work, and named by its file and entry
        check_lp_feasible(y, inst)
    except ValidationError as exc:
        raise ValidationError(str(cfg.solution), f"solution.{exc}") from exc
    return y


def run_simulate(cfg: ExperimentConfig) -> dict:
    payload, inst, objective = _load(cfg)
    order = policies.resolve_order(cfg.order, inst.item_count)  # a bad order exits before any work
    y, block, _ = _solve(cfg, inst, objective, _given_solution(cfg, payload, inst))

    sims = policies.simulate_policies(inst, objective, y, cfg.runs, order, seed=cfg.seed)
    report = {
        "command": "simulate",
        "instance": _instance_header(cfg, payload, inst, objective),
        "config": _config_header(cfg, runs=int(cfg.runs), order=cfg.order,
                                 records=bool(cfg.records)),
        "solution": block,
        "policies": {s.kind: _policy_block(s) for s in sims},
        "budget_violations": sum(s.budget_violations for s in sims),
    }
    # exact expectations need a fixed order; "random" falls back to identity
    exact_order = "identity" if cfg.order == "random" else cfg.order
    try:
        report["exact"] = {"stocan": policies.exact_policy_value("stocan", inst, objective, y,
                                                                 order=exact_order),
                           "order": exact_order}
    except CapacityError:
        pass
    if cfg.records:  # each policy's records, re-drawn block by block from the same seed
        write_report(report, None)  # a report that cannot be written leaves no records either
        policies.write_records(cfg.records, itertools.chain.from_iterable(
            policies.iter_records(kind, inst, objective, y, cfg.runs, order, cfg.seed)
            for kind in policies.KINDS))
    return report


def _policy_block(sim: policies.PolicySimulation) -> dict:
    """The report's statistics of one campaign, read off the campaign itself."""
    mean, stderr = sim.mean, sim.stderr
    if sim.runs == 1:
        out = {"mean": mean, "stderr": None, "runs": sim.runs, "single_run": True}
    else:
        out = {"mean": mean, "stderr": stderr, "runs": sim.runs,
               "ci95": [mean - 1.96 * stderr, mean + 1.96 * stderr]}
    out["budget_violations"] = sim.budget_violations
    return out


# ---------------------------------------------------------------------------
# verification battery


def run_verify(cfg: ExperimentConfig) -> dict:
    """Run every guarantee check against one instance.

    Each campaign's mean is also compared with its policy's exact
    expectation. The unbudgeted small policy of the paper's analysis is
    never simulated: its floor is checked on its exact value. So is the
    combined policy's floor at each checked arrival order: every
    permutation when there are at most ``order_checks``, else
    ``order_checks`` distinct seeded draws.
    Oracle-gated checks are marked skipped (not failed), in their own
    place, when the instance exceeds the relevant enumeration guard, so
    every report lists the same checks in the same order. The report's
    overall status is "pass" iff no non-skipped check failed.
    """
    if cfg.runs < 2:
        raise ValidationError("runs", "verify needs at least 2 simulation runs")
    payload, inst, objective = _load(cfg)
    order = policies.resolve_order(cfg.order, inst.item_count)  # a bad order exits before any work
    y, block, ext = _solve(cfg, inst, objective)

    # the exact H values gate four checks; an estimate skips them
    H = block["H"] if block["H"]["method"] == "exact" else None

    def floor(name, sim, label, rhs, rhs_source):
        """simulated_mean[label] >= rhs, within SIGMA standard errors and SPLIT_TOL."""
        return _check(name, "ge", sim.mean, f"simulated_mean[{label}]", rhs, rhs_source,
                      SIGMA * sim.stderr + SPLIT_TOL, detail={"stderr": sim.stderr, "runs": cfg.runs})

    checks = [_check("split_superadditivity", "ge",
                     H["y_small"] + H["y_large"], "H(y_small) + H(y_large)",
                     H["y"], "H(y)", SPLIT_TOL) if H
              else _skip("split_superadditivity", EXACT_SKIP)]

    try:
        opt, no_oracle = oracle.optimal_policy_value(inst, objective), None
    except CapacityError as exc:
        opt, no_oracle = None, str(exc)
    # (S+1)^I < (S+2)^I: with the oracle, H is exact and the value table fits the guard
    checks.append(_check("fractional_vs_adaptive_oracle", "ge", H["y"], "H(y)",
                         FRACTIONAL_RATIO * opt, "(1 - 1/e) * adaptive_optimum", FRACTIONAL_TOL)
                  if opt is not None else _skip("fractional_vs_adaptive_oracle", no_oracle))

    small, large, stocan_sim = policies.simulate_policies(inst, objective, y, cfg.runs, order,
                                                          seed=cfg.seed)
    sims = {"small": small, "large": large, "stocan": stocan_sim}

    checks.append(floor("combined_policy_guarantee", stocan_sim, "stocan",
                        GUARANTEE_RATIO * opt, "((1 - 1/e)/16) * adaptive_optimum")
                  if opt is not None else _skip("combined_policy_guarantee", no_oracle))
    for name, sim, part in (("small_policy_floor", small, "y_small"),
                            ("large_policy_floor", large, "y_large")):
        checks.append(floor(name, sim, sim.kind, H[part] / 8.0, f"H({part}) / 8") if H
                      else _skip(name, EXACT_SKIP))

    checks.append(_check("unbudgeted_small_value", "ge",
                         _device_value(ext, split_solution(y, inst)[0]),
                         "exact_value[unbudgeted small]", H["y_small"] / 4.0, "H(y_small) / 4",
                         SPLIT_TOL) if H
                  else _skip("unbudgeted_small_value", EXACT_SKIP))

    # each campaign against its policy's exact expectation, which keeps the kernel's coins checked;
    # one forward pass per branch, and stocan's value is the fair coin between theirs
    exact, skip = {}, "exact expectation needs a fixed arrival order"
    if order != "random":
        try:
            for kind in ("small", "large"):
                exact[kind] = policies.exact_policy_value(kind, inst, objective, y, order=order)
            exact["stocan"] = policies.combined_value(exact["small"], exact["large"])
        except CapacityError as exc:
            exact, skip = {}, str(exc)
    for kind, sim in sims.items():
        name = "simulation_vs_exact" if kind == "stocan" else f"{kind}_simulation_vs_exact"
        checks.append(_check(name, "abs", sim.mean, f"simulated_mean[{kind}]", exact[kind],
                             f"exact_policy_value[{kind}]", SIGMA * sim.stderr + SPLIT_TOL)
                      if exact else _skip(name, skip))

    if opt is None:
        checks.append(_skip("order_robustness", no_oracle))
    else:
        I = inst.item_count
        if math.factorial(I) <= cfg.order_checks:
            perms = itertools.permutations(range(I))
        else:  # seeded draws until order_checks distinct orders are held, in the order first drawn
            perms, k = {}, 1000
            while len(perms) < cfg.order_checks:
                perms.setdefault(tuple(substream(cfg.seed, ORDERS, k).permutation(I).tolist()))
                k += 1
        bound = GUARANTEE_RATIO * opt - SPLIT_TOL
        order_rows = []
        for perm in perms:
            value = policies.exact_policy_value("stocan", inst, objective, y, order=perm)
            order_rows.append({"order": list(perm), "value": value, "bound": bound,
                               "pass": value >= bound})
        checks.append(_check("order_robustness", "ge",
                             min(r["value"] - r["bound"] for r in order_rows),
                             "min over orders of exact_value[stocan] - bound",
                             0.0, "0", 0.0, detail={"orders": order_rows}))

    violations = sum(s.budget_violations for s in sims.values())
    largest = max(large.largest_large, stocan_sim.largest_large)
    checks.append(_check("feasibility", "le",
                         violations, "budget violations across all budgeted campaigns",
                         0, "0", 0, detail={"max_large_selection": largest}))
    checks.append(_check("large_policy_singleton", "le",
                         largest, "max selections in a large-policy run", 1, "1", 0))

    ratios = []
    if opt is not None and opt > 0:
        ratios = [{"name": "fractional_over_optimum", "value": H["y"] / opt,
                   "numerator": "H(y)", "denominator": "adaptive_optimum"},
                  {"name": "combined_policy_over_optimum", "value": stocan_sim.mean / opt,
                   "numerator": "simulated_mean[stocan]", "denominator": "adaptive_optimum"}]

    failed = [c["name"] for c in checks if c["status"] == "fail"]
    return {
        "command": "verify",
        "instance": _instance_header(cfg, payload, inst, objective),
        "config": _config_header(cfg, runs=int(cfg.runs), order=cfg.order,
                                 order_checks=int(cfg.order_checks)),
        "solution": block,
        "oracle": {"available": opt is not None, "adaptive_optimum": opt},
        "policies": {k: _policy_block(s) for k, s in sims.items()},
        "ratios": ratios,
        "checks": checks,
        "status": "fail" if failed else "pass",
        "failed_checks": failed,
    }


def _device_value(ext: extension.FactoredExtension, y_small) -> float:
    """Exact expected value of the unbudgeted small policy, the paper's analysis device.

    It keeps item ``i`` at cheap state ``s`` with probability ``a_is = y_small[i, s-1] / 4``,
    one state per item at most, independently across items: the objective's
    expectation under the laws ``(1 - sum_s a_is, a_i1, ..., a_iS)``.
    """
    a = np.asarray(y_small, dtype=float) / 4.0
    return ext.expect(np.column_stack((1.0 - a.sum(axis=1), a)))

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
from importlib import resources

import numpy as np

from . import extension, model, oracle, policies
from .errors import CapacityError, ValidationError
from .model import FAMILIES
from .optimizer import GreedyConfig, continuous_greedy, split_solution
from .rng import GENERATOR, ORDERS, substream

GUARANTEE_RATIO = (1.0 - 1.0 / math.e) / 16.0  # combined-policy floor vs the oracle
FRACTIONAL_RATIO = 1.0 - 1.0 / math.e  # continuous-greedy floor vs the oracle
SPLIT_TOL = 1e-12
FRACTIONAL_TOL = 0.02
SIGMA = 4.0  # all stochastic bounds allow four standard errors
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
        if self.seed is None or int(self.seed) < 0:
            raise ValidationError("seed", "a nonnegative master seed is required")
        for name in ("rounds", "samples", "runs", "order_checks"):
            if int(getattr(self, name)) < 1:
                raise ValidationError(name, "must be a positive integer")
        if not isinstance(self.order, str):
            try:
                self.order = tuple(int(v) for v in self.order)
            except (TypeError, ValueError):
                raise ValidationError("order", f"expected a spec or a list of item indices "
                                               f"(got {self.order!r})") from None
        for path in (self.out, self.records):
            if path:
                _check_writable(path)

    def greedy_config(self) -> GreedyConfig:
        return GreedyConfig(rounds=self.rounds, marginal_mode=self.marginals,
                            samples=self.samples, seed=self.seed)


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

def generate_instance(items: int, states: int, cost_scale: float = 1.0,
                      family: str = "separable_concave", seed: int = 0,
                      elements: int = 6) -> dict:
    """Build a random valid instance payload, deterministic in ``seed``.

    Probability rows are Dirichlet draws; costs are sorted uniforms so
    they are nondecreasing in the state by construction; the budget is
    the cost scale, placing realized costs on both sides of B/2 while
    keeping every state individually affordable (the large-policy floor
    needs cost <= B: a pair costing more than B can carry fractional
    mass yet can never be accepted).
    """
    if items < 1 or states < 1:
        raise ValidationError("items/states", "must be positive")
    if family not in FAMILIES:
        raise ValidationError("family", f"unknown family {family!r} (choose from {FAMILIES})")
    if cost_scale <= 0:
        raise ValidationError("cost_scale", "must be positive")
    rng = substream(seed, GENERATOR)
    budget = float(cost_scale)
    item_rows = []
    for _ in range(items):
        probs = rng.dirichlet(np.ones(states))
        costs = np.sort(rng.uniform(0.05, 1.0, size=states)) * cost_scale
        item_rows.append({"probs": [float(v) for v in probs],
                          "costs": [float(v) for v in costs]})

    if family == "separable_concave":
        weights = rng.uniform(0.5, 1.5, size=items)
        increments = np.sort(rng.uniform(0.2, 1.0, size=states))[::-1]
        g = np.concatenate([[0.0], np.cumsum(increments)])
        objective = {"family": family, "weights": [float(w) for w in weights],
                     "g": [float(v) for v in g]}
    elif family == "nested_coverage":
        m = max(int(elements), 2)
        weights = rng.uniform(0.3, 1.0, size=m)
        covers = []
        for _ in range(items):
            current = set(int(e) for e in rng.choice(m, size=int(rng.integers(1, 3)), replace=False))
            levels = [sorted(current)]
            for _ in range(states - 1):
                for e in range(m):
                    if e not in current and rng.random() < 0.4:
                        current.add(e)
                levels.append(sorted(current))
            covers.append(levels)
        objective = {"family": family, "covers": covers,
                     "element_weights": [float(w) for w in weights]}
    else:
        a = np.cumsum(rng.uniform(0.2, 1.0, size=(items, states)), axis=1)
        cap = float(rng.uniform(0.3, 0.8) * a[:, -1].sum())
        objective = {"family": family, "a": [[float(v) for v in row] for row in a],
                     "g": {"kind": "cap", "cap": cap, "scale": 1.0}}

    payload = {"items": item_rows, "budget": budget, "objective": objective}
    model.instance_from_dict(payload)  # generated instances must always validate
    return payload


def reference_suite_paths() -> list:
    """Paths of the bundled tiny reference instances, sorted by name."""
    root = resources.files("stocan").joinpath("data/reference")
    return sorted((p for p in root.iterdir() if p.name.endswith(".json")), key=lambda p: p.name)


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


def _matrix(y: np.ndarray) -> list:
    return [[float(v) for v in row] for row in y]


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
        "runs": int(cfg.runs),
        "order": cfg.order,
    }
    head.update(extra)
    return head


def _solve(cfg, inst, objective, y=None):
    """y (by continuous greedy unless given) and its solution block.

    The block holds y, its split, and H values: exact when the value
    tensor fits the enumeration guard, else estimated. One exact evaluator
    serves the greedy and the H values; the value table it reads stays
    on the objective, and the campaigns that follow read run values
    from it.
    """
    try:
        ext = extension.FactoredExtension(objective)
    except CapacityError:
        ext = None
    if y is None:
        y = continuous_greedy(inst, objective, cfg.greedy_config(), evaluator=ext)
    parts = dict(zip(("y", "y_small", "y_large"), (y, *split_solution(y, inst))))
    block = {key: _matrix(part) for key, part in parts.items()}
    if ext is not None:
        block["H"] = {"method": "exact", **{key: ext.H(part) for key, part in parts.items()}}
    else:
        H = block["H"] = {"method": "estimate", "samples": int(cfg.samples)}
        for key, part in parts.items():
            H[key], H[f"{key}_stderr"] = extension.estimate_H(part, objective, cfg.samples, cfg.seed)
    return y, block


# ---------------------------------------------------------------------------
# commands


def run_optimize(cfg: ExperimentConfig) -> dict:
    payload, inst, objective = _load(cfg)
    _, block = _solve(cfg, inst, objective)
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
    if y.shape != inst.prob.shape:
        raise ValidationError(str(cfg.solution),
                              f"solution.y has shape {y.shape}, expected {inst.prob.shape}")
    return y


def run_simulate(cfg: ExperimentConfig) -> dict:
    payload, inst, objective = _load(cfg)
    y, block = _solve(cfg, inst, objective, _given_solution(cfg, payload, inst))

    sims = policies.simulate_policies(inst, objective, y, cfg.runs,
                                      [(kind, False, cfg.order) for kind in policies.KINDS],
                                      seed=cfg.seed, records=bool(cfg.records))
    if cfg.records:
        policies.write_records(cfg.records, itertools.chain.from_iterable(s.records for s in sims))

    report = {
        "command": "simulate",
        "instance": _instance_header(cfg, payload, inst, objective),
        "config": _config_header(cfg, records=bool(cfg.records)),
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
    except (CapacityError, ValidationError):
        pass
    return report


def _policy_block(sim: policies.PolicySimulation) -> dict:
    """The report's statistics of one campaign, read off the campaign itself."""
    mean, stderr = sim.mean, sim.stderr
    if sim.is_single_run:
        out = {"mean": mean, "stderr": None, "runs": sim.runs, "single_run": True}
    else:
        out = {"mean": mean, "stderr": stderr, "runs": sim.runs,
               "ci95": [mean - 1.96 * stderr, mean + 1.96 * stderr]}
    out["budget_violations"] = sim.budget_violations
    return out


def run_gen(items, states, cost_scale, family, seed, out, elements=6) -> dict:
    payload = generate_instance(items, states, cost_scale, family, seed, elements)
    if out:
        model.write_json(out, payload)
    return payload


# ---------------------------------------------------------------------------
# verification battery


def run_verify(cfg: ExperimentConfig) -> dict:
    """Run every guarantee check against one instance.

    Oracle-gated checks are marked skipped (not failed) when the
    instance exceeds the relevant enumeration guard. The report's
    overall status is "pass" iff no non-skipped check failed.
    """
    if cfg.runs < 2:
        raise ValidationError("runs", "verify needs at least 2 simulation runs")
    payload, inst, objective = _load(cfg)
    y, block = _solve(cfg, inst, objective)

    # the exact H values gate four checks; an estimate skips them
    H = block["H"] if block["H"]["method"] == "exact" else None

    def floor(name, sim, label, rhs, rhs_source):
        """simulated_mean[label] >= rhs, within SIGMA standard errors."""
        return _check(name, "ge", sim.mean, f"simulated_mean[{label}]", rhs, rhs_source,
                      SIGMA * sim.stderr, detail={"stderr": sim.stderr, "runs": cfg.runs})

    checks = [_check("split_superadditivity", "ge",
                     H["y_small"] + H["y_large"], "H(y_small) + H(y_large)",
                     H["y"], "H(y)", SPLIT_TOL) if H
              else _skip("split_superadditivity", EXACT_SKIP)]

    try:
        opt = oracle.optimal_policy_value(inst, objective).value
    except CapacityError as exc:
        opt = None
        checks += [_skip(name, str(exc)) for name in
                   ("fractional_vs_adaptive_oracle", "combined_policy_guarantee", "order_robustness")]
    if opt is not None:
        checks.append(_check("fractional_vs_adaptive_oracle", "ge", H["y"], "H(y)",
                             FRACTIONAL_RATIO * opt, "(1 - 1/e) * adaptive_optimum",
                             FRACTIONAL_TOL) if H
                      else _skip("fractional_vs_adaptive_oracle", EXACT_SKIP))

    # one draw plan feeds the three policies, the unbudgeted analysis device
    # and, with the oracle, the stocan campaign of each random arrival order
    perms = ([substream(cfg.seed, ORDERS, 1000 + k).permutation(inst.item_count)
              for k in range(cfg.order_checks)] if opt is not None else [])
    small, large, stocan_sim, device, *by_order = policies.simulate_policies(
        inst, objective, y, cfg.runs,
        [("small", False, cfg.order), ("large", False, cfg.order), ("stocan", False, cfg.order),
         ("small", True, cfg.order)] + [("stocan", False, perm) for perm in perms],
        seed=cfg.seed)
    sims = {"small": small, "large": large, "stocan": stocan_sim}
    violations = sum(s.budget_violations for s in sims.values())
    large_sizes = [_max_large_selection(large), _max_large_selection(stocan_sim)]

    if opt is not None:
        checks.append(floor("combined_policy_guarantee", stocan_sim, "stocan",
                            GUARANTEE_RATIO * opt, "((1 - 1/e)/16) * adaptive_optimum"))
    for name, sim, part in (("small_policy_floor", small, "y_small"),
                            ("large_policy_floor", large, "y_large")):
        checks.append(floor(name, sim, sim.kind, H[part] / 8.0, f"H({part}) / 8") if H
                      else _skip(name, EXACT_SKIP))

    # analysis device: the unbudgeted small policy includes each cheap pair
    # with probability y/4 and its expected value floors at H(y_small)/4
    worst = _worst_inclusion_gap(device, inst, y, cfg.runs)
    checks.append(_check("unbudgeted_small_inclusion", "le",
                         worst["gap"], f"max_pair |frequency - y/4| at pair {worst['pair']}",
                         0.0, "0", worst["allowance"], detail=worst))
    checks.append(floor("unbudgeted_small_value", device, "unbudgeted small",
                        H["y_small"] / 4.0, "H(y_small) / 4") if H
                  else _skip("unbudgeted_small_value", EXACT_SKIP))

    if cfg.order == "random":
        checks.append(_skip("simulation_vs_exact",
                            "exact expectation needs a fixed arrival order"))
    else:
        try:
            exact_stocan = policies.exact_policy_value("stocan", inst, objective, y,
                                                       order=cfg.order)
            checks.append(_check("simulation_vs_exact", "abs",
                                 stocan_sim.mean, "simulated_mean[stocan]",
                                 exact_stocan, "exact_policy_value[stocan]",
                                 SIGMA * stocan_sim.stderr))
        except CapacityError as exc:
            checks.append(_skip("simulation_vs_exact", str(exc)))

    order_rows = []
    if opt is not None:
        for perm, sim_k in zip(perms, by_order):
            violations += sim_k.budget_violations
            large_sizes.append(_max_large_selection(sim_k))
            bound = GUARANTEE_RATIO * opt - SIGMA * sim_k.stderr
            order_rows.append({"order": [int(v) for v in perm], "mean": sim_k.mean,
                               "stderr": sim_k.stderr, "bound": bound,
                               "pass": sim_k.mean >= bound})
        checks.append(_check("order_robustness", "ge",
                             float(min(r["mean"] - r["bound"] for r in order_rows)),
                             "min over orders of simulated_mean[stocan] - bound",
                             0.0, "0", 0.0, detail={"orders": order_rows}))

    checks.append(_check("feasibility", "le",
                         violations, "budget violations across all budgeted campaigns",
                         0, "0", 0, detail={"max_large_selection": max(large_sizes)}))
    checks.append(_check("large_policy_singleton", "le",
                         max(large_sizes), "max selections in a large-policy run", 1, "1", 0))

    ratios = []
    if opt is not None and opt > 0:
        if H:
            ratios.append({"name": "fractional_over_optimum", "value": H["y"] / opt,
                           "numerator": "H(y)", "denominator": "adaptive_optimum"})
        ratios.append({"name": "combined_policy_over_optimum",
                       "value": stocan_sim.mean / opt,
                       "numerator": "simulated_mean[stocan]",
                       "denominator": "adaptive_optimum"})

    failed = [c["name"] for c in checks if c["status"] == "fail"]
    return {
        "command": "verify",
        "instance": _instance_header(cfg, payload, inst, objective),
        "config": _config_header(cfg, order_checks=int(cfg.order_checks)),
        "solution": block,
        "oracle": {"available": opt is not None, "adaptive_optimum": opt},
        "policies": {k: _policy_block(s) for k, s in sims.items()},
        "ratios": ratios,
        "checks": checks,
        "status": "fail" if failed else "pass",
        "failed_checks": failed,
    }


def _max_large_selection(sim) -> int:
    """Most pairs selected by one large-policy run of ``sim`` (for stocan, of its large branch)."""
    return int(sim.largest_selection.max() if sim.branch_small is None
               else sim.largest_selection[0])


def _worst_inclusion_gap(device_sim, inst, y, runs) -> dict:
    """Largest normalized deviation of pair-inclusion frequency from y/4.

    Only pairs the small policy can keep (cost <= B/2) are expected at
    y/4; the allowance is four binomial standard errors at the target
    frequency (so a zero count under a truly tiny target still passes).
    """
    cheap = inst.cost <= inst.budget / 2
    if not cheap.any():
        return {"pair": None, "gap": 0.0, "allowance": 0.0, "frequency": 0.0, "target": 0.0}
    target = y / 4.0
    freq = device_sim.pair_counts[:, 1:] / device_sim.runs
    allowance = SIGMA * np.sqrt(np.maximum(target * (1 - target), 0.0) / runs)
    gap = np.abs(freq - target)
    # the first pair of least slack in row-major order
    i, s = np.unravel_index(np.argmin(np.where(cheap, allowance - gap, np.inf)), gap.shape)
    return {"pair": [int(i), int(s) + 1], "gap": float(gap[i, s]),
            "allowance": float(allowance[i, s]), "frequency": float(freq[i, s]),
            "target": float(target[i, s])}

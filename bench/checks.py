"""Correctness checks on the program's outputs.

Every check recomputes a required property from the instance file, from
the benchmark's own random draws or from the output's own fields; none
compares against a stored copy of an earlier output. A check returns
nothing when the output is correct and raises :class:`CheckFailed`
otherwise.
"""

from __future__ import annotations

import json
import math

import numpy as np

SIGMA = 4.0  # stochastic comparisons allow four standard errors
FEAS_TOL = 1e-9  # the program's validation tolerance for y against p and B
SPLIT_TOL = 1e-12
KINDS = ("small", "large", "stocan")


class CheckFailed(Exception):
    """An output violates a property it must have."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def instance_arrays(payload: dict):
    """``(p, c, B)`` read from an instance file's payload with plain numpy."""
    p = np.array([item["probs"] for item in payload["items"]], dtype=float)
    c = np.array([item["costs"] for item in payload["items"]], dtype=float)
    return p, c, float(payload["budget"])


def mean_stderr(values) -> tuple[float, float]:
    v = np.asarray(values, dtype=float)
    return float(v.mean()), float(v.std(ddof=1) / math.sqrt(v.size))


def check_solution(solution: dict, payload: dict) -> None:
    """``0 <= y <= p``, ``sum y*c <= B`` and the exact small/large split at B/2."""
    p, c, budget = instance_arrays(payload)
    y = np.array(solution["y"], dtype=float)
    small = np.array(solution["y_small"], dtype=float)
    large = np.array(solution["y_large"], dtype=float)
    _require(y.shape == p.shape == small.shape == large.shape,
             f"solution shapes {y.shape}/{small.shape}/{large.shape}, instance {p.shape}")
    _require(bool(np.all(y >= 0.0)), "y has a negative entry")
    over = y - p
    _require(bool(np.all(over <= FEAS_TOL)),
             f"y exceeds its cap p by {over.max():.3g} at {np.unravel_index(over.argmax(), y.shape)}")
    spend = float(np.sum(y * c))
    _require(spend <= budget + FEAS_TOL, f"fractional cost {spend!r} exceeds budget {budget!r}")
    cheap = c <= budget / 2
    _require(bool(np.all(small + large == y)), "y_small + y_large != y")
    _require(bool(np.all(small[~cheap] == 0.0)), "y_small has mass on a pair costing more than B/2")
    _require(bool(np.all(large[cheap] == 0.0)), "y_large has mass on a pair costing at most B/2")


def check_split_superadditivity(H: dict) -> None:
    _require(H["method"] == "exact", f"H method is {H['method']!r}, expected exact")
    _require(H["y_small"] + H["y_large"] >= H["y"] - SPLIT_TOL,
             f"H(y_small) + H(y_large) = {H['y_small'] + H['y_large']!r} < H(y) = {H['y']!r}")


def estimate_H(y: np.ndarray, objective, rng: np.random.Generator, samples: int):
    """Monte Carlo H(y): pair (i, s) is present with probability y[i, s-1].

    Each item sits at its highest present state, and each draw is
    evaluated through ``objective.value`` alone.
    """
    y = np.asarray(y, dtype=float)
    present = rng.random((samples, *y.shape)) < y
    states = np.where(present, np.arange(1, y.shape[1] + 1), 0).max(axis=2)
    return mean_stderr([objective.value(u) for u in states])


def check_H_estimate(y, reported: float, objective, rng, samples: int) -> None:
    mean, err = estimate_H(y, objective, rng, samples)
    _require(abs(reported - mean) <= SIGMA * err + SPLIT_TOL,
             f"reported H(y) = {reported!r} is {abs(reported - mean) / err:.1f} sigma "
             f"from the estimate {mean!r} +/- {err:.3g}")


def check_campaign(report: dict, runs: int) -> None:
    """Zero budget violations, both policy floors, and the fair-coin mixture."""
    _require(report["budget_violations"] == 0,
             f"{report['budget_violations']} budget violations")
    stats = report["policies"]
    for kind in KINDS:
        _require(stats[kind]["runs"] == runs, f"{kind}: {stats[kind]['runs']} runs, expected {runs}")
        _require(stats[kind]["budget_violations"] == 0, f"{kind}: budget violations")
    H = report["solution"]["H"]
    _require(H["method"] == "exact", f"H method is {H['method']!r}, expected exact")
    for kind, part in (("small", "y_small"), ("large", "y_large")):
        mean, err = stats[kind]["mean"], stats[kind]["stderr"]
        _require(mean >= H[part] / 8.0 - SIGMA * err,
                 f"{kind} policy mean {mean!r} below H({part})/8 = {H[part] / 8.0!r}")
    s, l, m = stats["small"], stats["large"], stats["stocan"]
    gap = abs(m["mean"] - (s["mean"] + l["mean"]) / 2.0)
    sigma = math.sqrt(m["stderr"] ** 2 + (s["stderr"] ** 2 + l["stderr"] ** 2) / 4.0)
    _require(gap <= SIGMA * sigma,
             f"combined mean {m['mean']!r} is {gap / sigma:.1f} sigma from (small + large)/2")


def check_records(lines, payload: dict, objective, runs: int, exact_stocan: float) -> None:
    """Every JSONL run record is feasible, in its branch's cost class and valued right."""
    _, c, budget = instance_arrays(payload)
    cost = c.tolist()
    half = budget / 2
    _require(len(lines) == 3 * runs, f"{len(lines)} records, expected {3 * runs}")
    stocan_values = []
    for n, line in enumerate(lines):
        rec = json.loads(line)
        kind = KINDS[n // runs]
        where = f"record {n} ({kind})"
        _require(rec["kind"] == kind, f"{where}: kind {rec['kind']!r}")
        if kind == "stocan":
            _require(rec["branch"] in ("small", "large"), f"{where}: branch {rec['branch']!r}")
            keep_small = rec["branch"] == "small"
        else:
            keep_small = kind == "small"
        _require(keep_small or len(rec["selected"]) <= 1,
                 f"{where}: large branch selected {len(rec['selected'])} pairs")
        spent = 0.0
        u = [0] * len(cost)
        for i, s in rec["selected"]:
            pair_cost = cost[i][s - 1]
            _require((pair_cost <= half) == keep_small,
                     f"{where}: pair ({i}, {s}) costing {pair_cost!r} is outside its branch")
            spent += pair_cost
            u[i] = max(u[i], s)
        _require(spent <= budget, f"{where}: selected cost {spent!r} exceeds budget {budget!r}")
        _require(spent == rec["total_cost"],
                 f"{where}: total_cost {rec['total_cost']!r}, recomputed {spent!r}")
        value = objective.value(u)
        _require(value == rec["value"], f"{where}: value {rec['value']!r}, f(selected) = {value!r}")
        if kind == "stocan":
            stocan_values.append(value)
    mean, err = mean_stderr(stocan_values)
    _require(abs(mean - exact_stocan) <= SIGMA * err + SPLIT_TOL,
             f"stocan record mean {mean!r} is {abs(mean - exact_stocan) / err:.1f} sigma "
             f"from the exact policy value {exact_stocan!r}")


def _margin(comparison: str, lhs: float, rhs: float, tolerance: float) -> float:
    if comparison == "ge":
        return lhs - rhs + tolerance
    if comparison == "le":
        return rhs - lhs + tolerance
    _require(comparison == "abs", f"unknown comparison {comparison!r}")
    return tolerance - abs(lhs - rhs)


def check_verify(report: dict) -> None:
    """Status pass, and every verdict agrees with its own lhs, rhs and tolerance."""
    _require(report["status"] == "pass", f"status {report['status']!r}: {report['failed_checks']}")
    _require(report["failed_checks"] == [], f"failed checks {report['failed_checks']}")
    for check in report["checks"]:
        if check["status"] == "skipped":
            continue
        margin = _margin(check["comparison"], check["lhs"], check["rhs"], check["tolerance"])
        scale = max(1.0, abs(check["lhs"]), abs(check["rhs"]))
        _require(abs(margin - check["margin"]) <= 1e-12 * scale,
                 f"{check['name']}: margin {check['margin']!r}, recomputed {margin!r}")
        _require(check["status"] == ("pass" if margin >= 0 else "fail"),
                 f"{check['name']}: status {check['status']!r} with recomputed margin {margin!r}")
        _require(check["status"] == "pass", f"{check['name']}: {check['status']}")


def check_oracle_order(report: dict, nonadaptive: float) -> None:
    """The adaptive optimum is at least the best nonadaptive policy's value."""
    oracle = report["oracle"]
    _require(oracle["available"], "oracle unavailable on an oracle-size instance")
    _require(oracle["adaptive_optimum"] >= nonadaptive - SPLIT_TOL,
             f"adaptive optimum {oracle['adaptive_optimum']!r} < nonadaptive value {nonadaptive!r}")


def check_identical(first: bytes, again: bytes, label: str) -> None:
    """Two runs of one command with one seed wrote the same bytes."""
    if first != again:
        at = next((k for k, (a, b) in enumerate(zip(first, again)) if a != b),
                  min(len(first), len(again)))
        raise CheckFailed(f"{label}: outputs differ from byte {at} "
                          f"({len(first)} vs {len(again)} bytes)")

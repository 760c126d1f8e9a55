"""Each output check accepts a correct output and rejects a corrupted one.

Run from the checkout root with ``python3 -m pytest bench/tests``.
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from inputs import make_instance, rng_for  # noqa: E402
from stocan import FactoredExtension, model  # noqa: E402

PAYLOAD = {
    "items": [{"probs": [0.5, 0.5], "costs": [0.45, 0.6]},
              {"probs": [0.3, 0.7], "costs": [0.45, 0.9]},
              {"probs": [0.2, 0.8], "costs": [0.45, 0.95]}],
    "budget": 1.0,
    "objective": {"family": "separable_concave", "weights": [1.0, 1.0, 1.0], "g": [0.0, 1.0, 1.5]},
}
OBJECTIVE = model.instance_from_dict(PAYLOAD)[1]


def _solution():
    y = [[0.1, 0.2], [0.1, 0.1], [0.0, 0.05]]
    return {"y": y,
            "y_small": [[0.1, 0.0], [0.1, 0.0], [0.0, 0.0]],
            "y_large": [[0.0, 0.2], [0.0, 0.1], [0.0, 0.05]]}


def _record(kind, selected, branch=None):
    u = [0, 0, 0]
    spent = 0.0
    for i, s in selected:
        u[i] = s
        spent += PAYLOAD["items"][i]["costs"][s - 1]
    return {"kind": kind, "branch": branch, "selected": [list(p) for p in selected],
            "total_cost": spent, "value": OBJECTIVE.value(u), "order": [0, 1, 2], "events": []}


def _records():
    return [_record("small", [(0, 1), (1, 1)]), _record("small", []),
            _record("large", [(1, 2)]), _record("large", []),
            _record("stocan", [(2, 1)], "small"), _record("stocan", [(0, 2)], "large")]


def _lines(recs):
    return [json.dumps(r, sort_keys=True) for r in recs]


def _exact(recs):
    return float(np.mean([r["value"] for r in recs if r["kind"] == "stocan"]))


def test_solution_accepts_feasible_split():
    checks.check_solution(_solution(), PAYLOAD)


def test_solution_rejects_y_above_cap():
    sol = _solution()
    sol["y"][0][0] = sol["y_small"][0][0] = 0.6  # p = 0.5
    with pytest.raises(CheckFailed, match="cap"):
        checks.check_solution(sol, PAYLOAD)


def test_solution_rejects_wrong_split():
    sol = _solution()
    sol["y_small"][0][1], sol["y_large"][0][1] = 0.2, 0.0  # cost 0.6 > B/2 belongs to large
    with pytest.raises(CheckFailed, match="y_small"):
        checks.check_solution(sol, PAYLOAD)


def test_split_superadditivity_rejects_deficit():
    checks.check_split_superadditivity({"method": "exact", "y": 1.0, "y_small": 0.4, "y_large": 0.6})
    with pytest.raises(CheckFailed):
        checks.check_split_superadditivity(
            {"method": "exact", "y": 1.0, "y_small": 0.4, "y_large": 0.59})


def test_H_estimate_rejects_a_wrong_value():
    y = np.array(_solution()["y"])
    ext = FactoredExtension(OBJECTIVE)
    checks.check_H_estimate(y, ext.H(y), OBJECTIVE, rng_for(1, 2), 4000)
    with pytest.raises(CheckFailed, match="sigma"):
        checks.check_H_estimate(y, ext.H(y) + 0.1, OBJECTIVE, rng_for(1, 2), 4000)


def test_records_accept_valid_records():
    recs = _records()
    checks.check_records(_lines(recs), PAYLOAD, OBJECTIVE, 2, _exact(recs))


def test_records_reject_a_record_over_budget():
    recs = _records()
    recs[1] = _record("small", [(0, 1), (1, 1), (2, 1)])  # 3 * 0.45 > 1
    with pytest.raises(CheckFailed, match="exceeds budget"):
        checks.check_records(_lines(recs), PAYLOAD, OBJECTIVE, 2, _exact(recs))


def test_records_reject_two_selections_on_the_large_branch():
    recs = _records()
    recs[5] = _record("stocan", [(0, 2), (1, 2)], "large")
    with pytest.raises(CheckFailed, match="large branch selected 2"):
        checks.check_records(_lines(recs), PAYLOAD, OBJECTIVE, 2, _exact(recs))


def test_records_reject_a_pair_outside_its_cost_class():
    recs = _records()
    recs[0] = _record("small", [(0, 2)])  # cost 0.6 > B/2
    with pytest.raises(CheckFailed, match="outside its branch"):
        checks.check_records(_lines(recs), PAYLOAD, OBJECTIVE, 2, _exact(recs))


def test_records_reject_a_wrong_value_or_count():
    recs = _records()
    bad = copy.deepcopy(recs)
    bad[2]["value"] += 1e-9
    with pytest.raises(CheckFailed, match="f\\(selected\\)"):
        checks.check_records(_lines(bad), PAYLOAD, OBJECTIVE, 2, _exact(recs))
    with pytest.raises(CheckFailed, match="records, expected"):
        checks.check_records(_lines(recs)[:-1], PAYLOAD, OBJECTIVE, 2, _exact(recs))


def _verify_report():
    return {"status": "pass", "failed_checks": [],
            "checks": [{"name": "floor", "status": "pass", "comparison": "ge", "lhs": 1.0,
                        "rhs": 0.5, "tolerance": 0.01, "margin": 0.51},
                       {"name": "close", "status": "pass", "comparison": "abs", "lhs": 1.0,
                        "rhs": 1.02, "tolerance": 0.03, "margin": 0.03 - abs(1.0 - 1.02)},
                       {"name": "gated", "status": "skipped", "skip_reason": "too big"}]}


def test_verify_accepts_consistent_verdicts():
    checks.check_verify(_verify_report())


@pytest.mark.parametrize("field,value", [("lhs", 0.4), ("tolerance", -0.6), ("rhs", 1.6)])
def test_verify_rejects_a_verdict_that_disagrees_with_its_sides(field, value):
    report = _verify_report()
    report["checks"][0][field] = value
    with pytest.raises(CheckFailed, match="floor"):
        checks.check_verify(report)


def test_oracle_order_rejects_adaptive_below_nonadaptive():
    report = {"oracle": {"available": True, "adaptive_optimum": 1.0}}
    checks.check_oracle_order(report, 0.9)
    with pytest.raises(CheckFailed):
        checks.check_oracle_order(report, 1.1)


def test_identical_rejects_one_differing_byte():
    body = json.dumps(_verify_report(), indent=2).encode()
    checks.check_identical(body, bytes(body), "report")
    flipped = bytearray(body)
    flipped[40] ^= 1
    with pytest.raises(CheckFailed, match="byte 40"):
        checks.check_identical(body, bytes(flipped), "report")


def test_campaign_rejects_a_floor_violation_and_a_bad_mixture():
    stats = {k: {"runs": 10, "budget_violations": 0, "mean": m, "stderr": 0.01}
             for k, m in (("small", 0.5), ("large", 0.3), ("stocan", 0.4))}
    report = {"budget_violations": 0, "policies": stats,
              "solution": {"H": {"method": "exact", "y": 2.0, "y_small": 1.6, "y_large": 1.6}}}
    checks.check_campaign(report, 10)
    low = copy.deepcopy(report)
    low["policies"]["large"]["mean"] = 0.1  # below 1.6 / 8 - 4 * 0.01
    with pytest.raises(CheckFailed, match="large policy"):
        checks.check_campaign(low, 10)
    off = copy.deepcopy(report)
    off["policies"]["stocan"]["mean"] = 0.5
    with pytest.raises(CheckFailed, match="combined"):
        checks.check_campaign(off, 10)


@pytest.mark.parametrize("family", ["separable_concave", "nested_coverage", "concave_over_modular"])
def test_generated_instances_validate_and_pass_the_structure_checks(family):
    payload = make_instance(rng_for(7, 1), 3, 2, family)
    _, objective = model.instance_from_dict(payload)
    assert model.check_monotone(objective).ok
    assert model.check_lattice_submodular(objective).ok

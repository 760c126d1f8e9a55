import ast
import functools
import importlib
import itertools
import json
import math
import operator
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import stocan
from stocan import cli, harness, model, optimizer, policies
from stocan.errors import ValidationError

from conftest import reference_suite_paths


def write_payload(tmp_path, payload, name="inst.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


# ---------------------------------------------------------------------------
# generation


def test_generated_instance_validates_and_is_deterministic(tmp_path):
    a = harness.generate_instance(3, 2, "nested_coverage", seed=4)
    b = harness.generate_instance(3, 2, "nested_coverage", seed=4)
    c = harness.generate_instance(3, 2, "nested_coverage", seed=5)
    assert a == b
    assert a != c
    model.instance_from_dict(a)  # must load cleanly


def test_generated_objectives_are_lattice_submodular():
    for k, family in enumerate(harness.FAMILIES):
        _, f = model.instance_from_dict(
            harness.generate_instance(2, 3, family, seed=60 + k))
        assert model.check_monotone(f).ok
        assert model.check_lattice_submodular(f).ok


def test_gen_cli_writes_identical_files_for_same_seed(tmp_path):
    out1, out2, out3 = (str(tmp_path / n) for n in ("a.json", "b.json", "c.json"))
    assert cli.main(["gen", "--items", "2", "--states", "2", "--seed", "7", "--out", out1]) == 0
    assert cli.main(["gen", "--items", "2", "--states", "2", "--seed", "7", "--out", out2]) == 0
    assert cli.main(["gen", "--items", "2", "--states", "2", "--seed", "8", "--out", out3]) == 0
    b1, b2, b3 = (Path(p).read_bytes() for p in (out1, out2, out3))
    assert b1 == b2
    assert b1 != b3


@pytest.mark.parametrize("family", harness.FAMILIES)
def test_gen_file_parses_back_to_the_generator_payload(tmp_path, family):
    args = ["gen", "--items", "3", "--states", "2", "--family", family, "--seed", "11"]
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(args + ["--out", str(first)]) == 0
    assert cli.main(args + ["--out", str(second)]) == 0
    payload = harness.generate_instance(3, 2, family, seed=11)
    written = model.read_json(first)
    assert written == payload
    assert model.instance_digest(written) == model.instance_digest(payload)
    assert first.read_bytes() == second.read_bytes()


def test_gen_negative_seed_is_an_input_error(tmp_path, capsys):
    out = tmp_path / "x.json"
    code = cli.main(["gen", "--items", "2", "--states", "2", "--seed", "-1", "--out", str(out)])
    assert code == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert err == "error: seed: a nonnegative master seed is required\n"
    assert not out.exists()


@pytest.mark.parametrize("elements", ["0", "1", "-3"])
def test_gen_elements_below_two_is_an_input_error(tmp_path, capsys, elements):
    # a universe of fewer than two elements is refused, not raised to two
    out = tmp_path / "x.json"
    code = cli.main(["gen", "--items", "2", "--states", "2", "--seed", "1", "--elements", elements,
                     "--family", "nested_coverage", "--out", str(out)])
    assert code == cli.EXIT_INVALID
    assert capsys.readouterr().err == f"error: elements: must be at least 2 (got {elements})\n"
    assert not out.exists()
    with pytest.raises(ValidationError, match="^elements: expected an integer"):
        harness.generate_instance(2, 2, "nested_coverage", seed=1, elements=2.5)
    # two elements is the smallest universe, and the default keeps its six
    payload = harness.generate_instance(2, 2, "nested_coverage", seed=1, elements=2)
    assert len(payload["objective"]["element_weights"]) == 2
    assert len(harness.generate_instance(2, 2, "nested_coverage", seed=1)["objective"]
               ["element_weights"]) == 6


def test_generator_parameter_validation():
    with pytest.raises(ValidationError):
        harness.generate_instance(0, 2, "separable_concave", seed=1)
    with pytest.raises(ValidationError):
        harness.generate_instance(2, 2, "mystery", seed=1)


# ---------------------------------------------------------------------------
# optimize


def test_optimize_closed_form_instance(tmp_path):
    payload = {
        "items": [{"probs": [1.0], "costs": [1.0]}],
        "budget": 1.0,
        "objective": {"family": "separable_concave", "weights": [1.0], "g": [0, 1]},
    }
    path = write_payload(tmp_path, payload)
    cfg = harness.ExperimentConfig(instance=str(path), seed=3, rounds=1000)
    report = harness.run_optimize(cfg)
    y11 = report["solution"]["y"][0][0]
    assert abs(y11 - (1 - 1 / math.e)) <= 1e-3
    assert report["solution"]["H"]["method"] == "exact"
    assert report["instance"]["digest"] == model.instance_digest(payload)


@pytest.mark.parametrize("flag", [["--runs", "5"], ["--order", "random"]], ids=["runs", "order"])
def test_optimize_reads_no_campaign_flags(tmp_path, capsys, flag):
    path = write_payload(tmp_path, harness.generate_instance(2, 2, seed=9))
    with pytest.raises(SystemExit) as done:
        cli.main(["optimize", "--instance", str(path), "--seed", "1", "--rounds", "3", *flag])
    assert done.value.code == cli.EXIT_INVALID
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert cli.main(["optimize", "--instance", str(path), "--seed", "1", "--rounds", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert list(report["config"]) == ["seed", "rounds", "marginals", "samples"]


def test_optimize_report_bytes_reproducible(tmp_path):
    path = write_payload(tmp_path, harness.generate_instance(2, 2, "nested_coverage", seed=9))
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        cfg = harness.ExperimentConfig(instance=str(path), seed=5, rounds=50, out=str(out))
        harness.write_report(harness.run_optimize(cfg), cfg.out)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def sqrt_curve_payload(items, states, seed):
    """A generated ``concave_over_modular`` instance with its ``cap`` curve swapped for ``sqrt``.

    ``cap`` curves take the meet in the middle; ``sqrt`` keeps the value-tensor path.
    """
    payload = harness.generate_instance(items, states, "concave_over_modular", seed=seed)
    payload["objective"]["g"] = {"kind": "sqrt", "scale": 1.0}
    return payload


def test_optimize_report_bytes_independent_of_blas_threads(tmp_path):
    src = str(Path(stocan.__file__).resolve().parents[1])
    # a closed form, the meet in the middle and the value-tensor path
    payloads = {family: harness.generate_instance(9, 3, family, seed=101)
                for family in ("nested_coverage", "concave_over_modular")}
    payloads["concave_over_modular sqrt"] = sqrt_curve_payload(9, 3, seed=101)
    for label, payload in payloads.items():
        path = write_payload(tmp_path, payload)
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads_{threads}.json"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            subprocess.run([sys.executable, "-m", "stocan.cli", "optimize", "--instance", str(path),
                            "--seed", "1", "--rounds", "8", "--out", str(out)],
                           env=env, check=True, capture_output=True)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], label


# concave_over_modular with a curve other than cap is the one objective whose exact evaluator
# needs the value table


def test_optimize_oversized_exact_marginals_is_capacity_error(tmp_path):
    path = write_payload(tmp_path, sqrt_curve_payload(21, 2, seed=10))
    code = cli.main(["optimize", "--instance", str(path), "--seed", "1", "--rounds", "3"])
    assert code == cli.EXIT_CAPACITY


def test_optimize_capacity_error_names_the_sampled_marginals_flag(tmp_path, capsys):
    # 13 x 2: (S+1)^I = 3^13 is past the enumeration guard, so exact marginals cannot run
    path = write_payload(tmp_path, sqrt_curve_payload(13, 2, seed=10))
    code = cli.main(["optimize", "--instance", str(path), "--seed", "1", "--rounds", "3"])
    assert code == cli.EXIT_CAPACITY
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("capacity error: (S+1)^I = 1594323 exceeds")
    assert err[0].endswith("; use --marginals sampled")


def test_optimize_oversized_sampled_marginals_estimates_H(tmp_path):
    path = write_payload(tmp_path, sqrt_curve_payload(21, 2, seed=10))
    cfg = harness.ExperimentConfig(instance=str(path), seed=1, rounds=2,
                                   marginals="sampled", samples=300)
    report = harness.run_optimize(cfg)
    assert report["solution"]["H"]["method"] == "estimate"
    assert report["solution"]["H"]["y_stderr"] >= 0.0


@pytest.mark.parametrize("family", ["separable_concave", "nested_coverage", "concave_over_modular"])
@pytest.mark.parametrize("items", [13, 21])
def test_optimize_closed_form_families_exact_past_the_guard(tmp_path, items, family):
    # (S+1)^I = 3^13 and 3^21 are past the enumeration guard; these families need no table, and
    # concave_over_modular's cap curve enumerates at most 3^11 sums per half
    path = write_payload(tmp_path, harness.generate_instance(items, 2, family, seed=10))
    out = tmp_path / "opt.json"
    code = cli.main(["optimize", "--instance", str(path), "--seed", "1", "--rounds", "20",
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    H = json.loads(out.read_text())["solution"]["H"]
    assert H["method"] == "exact"
    assert H["y_small"] + H["y_large"] >= H["y"] - harness.SPLIT_TOL


def test_optimize_cap_curve_past_the_half_guard_is_capacity_error(tmp_path, capsys):
    # 27 x 2: each half of the meet in the middle would hold 3^14 sums, past the guard
    path = write_payload(tmp_path, harness.generate_instance(27, 2, "concave_over_modular",
                                                             seed=10))
    code = cli.main(["optimize", "--instance", str(path), "--seed", "1", "--rounds", "3"])
    assert code == cli.EXIT_CAPACITY
    assert capsys.readouterr().err == ("capacity error: (S+1)^ceil(I/2) = 4782969 exceeds the "
                                       "enumeration guard 1000000; use --marginals sampled\n")


@pytest.mark.parametrize("family", ["separable_concave", "nested_coverage", "concave_over_modular"])
def test_verify_sampled_marginals_past_the_guard_runs_the_exact_H_checks(tmp_path, family):
    # 13 x 2: no value table, so the oracle and the exact policy values are skipped, but H is
    # exact and every check it gates runs, the unbudgeted small device among them
    path = write_payload(tmp_path, harness.generate_instance(13, 2, family, seed=10))
    out = tmp_path / "verify.json"
    code = cli.main(["verify", "--instance", str(path), "--seed", "1", "--rounds", "3",
                     "--marginals", "sampled", "--samples", "200", "--runs", "2000",
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    report = json.loads(out.read_text())
    assert report["solution"]["H"]["method"] == "exact"
    status = {c["name"]: c["status"] for c in report["checks"]}
    for name in ("split_superadditivity", "small_policy_floor", "large_policy_floor",
                 "unbudgeted_small_value"):
        assert status[name] == "pass", name
    for name in ("fractional_vs_adaptive_oracle", "combined_policy_guarantee", "order_robustness",
                 "simulation_vs_exact", "small_simulation_vs_exact", "large_simulation_vs_exact"):
        assert status[name] == "skipped", name


# ---------------------------------------------------------------------------
# simulate


def test_simulate_matches_exact_and_counts_violations(tmp_path):
    path = write_payload(tmp_path, harness.generate_instance(2, 2, "concave_over_modular", seed=11))
    cfg = harness.ExperimentConfig(instance=str(path), seed=12, rounds=100, runs=100_000)
    report = harness.run_simulate(cfg)
    assert report["budget_violations"] == 0
    sto = report["policies"]["stocan"]
    assert abs(sto["mean"] - report["exact"]["stocan"]) <= 4 * sto["stderr"]
    for kind in ("small", "large", "stocan"):
        stats = report["policies"][kind]
        assert stats["runs"] == 100_000
        assert stats["ci95"][0] <= stats["mean"] <= stats["ci95"][1]


def test_simulate_solution_reuse(tmp_path):
    inst_path = write_payload(tmp_path, harness.generate_instance(2, 2, seed=13))
    opt_out = tmp_path / "opt.json"
    cfg = harness.ExperimentConfig(instance=str(inst_path), seed=2, rounds=40, out=str(opt_out))
    harness.write_report(harness.run_optimize(cfg), cfg.out)
    cfg2 = harness.ExperimentConfig(instance=str(inst_path), seed=2, runs=500,
                                    solution=str(opt_out))
    report = harness.run_simulate(cfg2)
    prior = json.loads(opt_out.read_text())
    assert report["solution"]["y"] == prior["solution"]["y"]


def test_simulate_report_bytes_reproducible_with_custom_order(tmp_path):
    path = write_payload(tmp_path, harness.generate_instance(3, 2, seed=19))
    bodies = []
    for name in ("s1.json", "s2.json"):
        out = tmp_path / name
        code = cli.main(["simulate", "--instance", str(path), "--seed", "4",
                         "--rounds", "40", "--runs", "2000",
                         "--order", "perm:2,0,1", "--out", str(out)])
        assert code == 0
        bodies.append(out.read_bytes())
    assert bodies[0] == bodies[1]
    report = json.loads(bodies[0])
    assert report["config"]["order"] == [2, 0, 1]


def test_simulate_records_mode(tmp_path):
    inst_path = write_payload(tmp_path, harness.generate_instance(2, 2, seed=14))
    rec_path = tmp_path / "runs.jsonl"
    cfg = harness.ExperimentConfig(instance=str(inst_path), seed=6, rounds=30, runs=40,
                                   records=str(rec_path))
    report = harness.run_simulate(cfg)
    lines = [json.loads(line) for line in rec_path.read_text().strip().split("\n")]
    assert len(lines) == 3 * 40  # one record per run per policy
    by_kind = {}
    for rec in lines:
        by_kind.setdefault(rec["kind"], []).append(rec["value"])
    for kind, values in by_kind.items():
        assert report["policies"][kind]["mean"] == pytest.approx(np.mean(values), abs=1e-12)
    assert report["budget_violations"] == 0


def test_simulate_records_report_equals_plain_report(tmp_path):
    path = write_payload(tmp_path, harness.generate_instance(3, 2, "nested_coverage", seed=22))
    bodies = {}
    for mode in ("plain", "records"):
        out = tmp_path / f"{mode}.json"
        args = ["simulate", "--instance", str(path), "--seed", "1", "--rounds", "30",
                "--runs", "2000", "--out", str(out)]
        if mode == "records":
            args += ["--records", str(tmp_path / "runs.jsonl")]
        assert cli.main(args) == 0
        bodies[mode] = out.read_text()
    assert json.loads(bodies["records"])["config"]["records"] is True
    assert bodies["records"].replace('"records": true', '"records": false') == bodies["plain"]


def run_cli(*args):
    """``python -m stocan.cli ARGS`` in a fresh process, importing this checkout."""
    src = str(Path(stocan.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "stocan.cli", *map(str, args)],
                          env=env, capture_output=True, text=True)


def test_simulate_records_are_streamed_one_block_at_a_time(tmp_path, monkeypatch):
    # a campaign keeps no records: they are built block by block as the writer consumes them
    path = write_payload(tmp_path, harness.generate_instance(3, 2, seed=31))
    built, ahead = [0], []
    init = policies.RunRecord.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    def consumed(records):
        for n, rec in enumerate(records, start=1):
            ahead.append(built[0] - n)  # records built but not yet handed to the writer
            yield rec

    write = policies.write_records
    monkeypatch.setattr(policies.RunRecord, "__init__", counting_init)
    monkeypatch.setattr(policies, "write_records",
                        lambda out, records: write(out, consumed(records)))
    records = tmp_path / "runs.jsonl"
    for chunk in (7, policies.CHUNK_RUNS):  # a small size, and the default
        runs = 2 * chunk + 1  # the last block holds one run
        monkeypatch.setattr(policies, "CHUNK_RUNS", chunk)
        built[0], ahead[:] = 0, []
        assert cli.main(["simulate", "--instance", str(path), "--seed", "2", "--rounds", "20",
                         "--runs", str(runs), "--records", str(records),
                         "--out", str(tmp_path / "sim.json")]) == 0
        assert len(records.read_text().splitlines()) == built[0] == len(ahead) == 3 * runs
        assert max(ahead) < chunk


def test_simulate_frees_the_campaigns_before_the_exact_pass(tmp_path, monkeypatch):
    path = write_payload(tmp_path, harness.generate_instance(12, 2, seed=32))
    runs, levels = 200_000, {}
    simulate, exact = policies.simulate_policies, policies.exact_policy_value

    def campaigns(*args, **kwargs):
        levels["before"] = tracemalloc.get_traced_memory()[0]
        sims = simulate(*args, **kwargs)
        levels["campaigns"] = tracemalloc.get_traced_memory()[0]
        return sims

    def exact_pass(*args, **kwargs):
        levels["exact"] = tracemalloc.get_traced_memory()[0]
        return exact(*args, **kwargs)

    monkeypatch.setattr(policies, "simulate_policies", campaigns)
    monkeypatch.setattr(policies, "exact_policy_value", exact_pass)
    tracemalloc.start()
    try:
        report = harness.run_simulate(harness.ExperimentConfig(instance=str(path), seed=3,
                                                               rounds=5, runs=runs))
    finally:
        tracemalloc.stop()
    assert report["policies"]["stocan"]["runs"] == runs and "exact" in report
    # the campaigns leave nothing per run behind, only the value table they built (kept on the
    # objective), and nothing per run is held when the exact pass starts
    table = 3 ** 12 * 8
    assert levels["campaigns"] <= levels["before"] + table + (64 << 10)
    assert levels["exact"] <= levels["campaigns"] + (64 << 10)


def test_simulate_non_json_solution_is_input_error(tmp_path):
    path = write_payload(tmp_path, harness.generate_instance(2, 2, seed=23))
    bad = tmp_path / "solution.json"
    bad.write_text("this is not JSON\n")
    done = run_cli("simulate", "--instance", path, "--seed", 1, "--runs", 10, "--solution", bad)
    assert done.returncode == cli.EXIT_INVALID
    assert "Traceback" not in done.stderr
    assert "not valid JSON" in done.stderr


@pytest.mark.parametrize("edit, path", [
    (lambda d: d.update(budget="abc"), "budget"),
    (lambda d: d["items"][0].update(probs=5), "items[0].probs"),
    (lambda d: d["items"][0].update(probs=["x", 1]), "items[0].probs"),
    (lambda d: d["items"][1].update(costs=[0.1, [0.2]]), "items[1].costs"),
    (lambda d: d["objective"]["weights"].__setitem__(1, math.nan), "objective.weights[1]"),
    (lambda d: d.update(objective={"family": "nested_coverage", "covers": 5,
                                   "element_weights": [1.0, 1.0]}), "objective.covers"),
    (lambda d: d.update(objective={"family": "nested_coverage", "covers": [5, 5],
                                   "element_weights": [1.0, 1.0]}), "objective.covers[0]"),
    (lambda d: d.update(objective={"family": "nested_coverage",
                                   "covers": [[[{}], [0, 1]], [[0], [0, 1]]],
                                   "element_weights": [1.0, 1.0]}), "objective.covers[0][0]"),
    (lambda d: d.update(objective={"family": "nested_coverage",
                                   "covers": [[[0], [0, 1]], [[0], [0, [1]]]],
                                   "element_weights": [1.0, 1.0]}), "objective.covers[1][1]"),
], ids=["budget-text", "probs-number", "probs-text-entry", "costs-ragged", "weights-nan",
        "covers-number", "covers-numbers", "covers-dict", "covers-list"])
def test_simulate_malformed_instance_numbers_are_input_errors(tmp_path, edit, path):
    payload = harness.generate_instance(2, 2, seed=23)
    edit(payload)
    done = run_cli("simulate", "--instance", write_payload(tmp_path, payload), "--seed", 1,
                   "--runs", 10)
    assert done.returncode == cli.EXIT_INVALID
    assert "Traceback" not in done.stderr
    assert path in done.stderr


def test_overflowing_statistics_are_an_input_error(tmp_path):
    # finite inputs, but the variance of the run values overflows to inf
    payload = harness.generate_instance(2, 2, "nested_coverage", seed=1)
    payload["objective"]["element_weights"][2] = 1e308
    path = write_payload(tmp_path, payload)
    records = tmp_path / "runs.jsonl"
    for command, *more in (("simulate", "--records", records), ("verify",)):
        out = tmp_path / f"{command}.json"
        done = run_cli(command, "--instance", path, "--seed", 1, "--runs", 100, "--out", out, *more)
        assert done.returncode == cli.EXIT_INVALID
        # exactly the one error line: no numpy warning before it
        assert done.stderr == ("error: report: a value overflowed the float range; "
                               "rescale the instance's numbers\n")
        assert not out.exists()
    assert not records.exists()


def test_overflowing_objective_values_are_an_input_error(tmp_path):
    # finite parameters, but w_i * g(1) overflows to inf, and inf * 0 to NaN in H
    payload = harness.generate_instance(2, 1, "separable_concave", seed=0)
    payload["objective"]["g"][1] = 1e308
    path = write_payload(tmp_path, payload)
    for command in ("optimize", "simulate", "verify"):
        done = run_cli(command, *(("--runs", 20) if command != "optimize" else ()),
                       "--instance", path, "--seed", 1, "--rounds", 2)
        assert done.returncode == cli.EXIT_INVALID
        assert done.stderr == ("error: objective: a value overflowed the float range; "
                               "rescale the instance's numbers\n")


def test_overflowing_objective_values_past_the_guard_are_an_input_error(tmp_path):
    # 13 x 2 needs no value table; the largest value, at the all-S vector, still overflows
    payload = harness.generate_instance(13, 2, "separable_concave", seed=0)
    payload["objective"]["weights"] = [1e308] * 13
    path = write_payload(tmp_path, payload)
    for command in ("optimize", "simulate", "verify"):
        done = run_cli(command, *(("--runs", 20) if command != "optimize" else ()),
                       "--instance", path, "--seed", 1, "--rounds", 2)
        assert done.returncode == cli.EXIT_INVALID
        assert done.stderr == ("error: objective: a value overflowed the float range; "
                               "rescale the instance's numbers\n")
    # a sqrt curve tabulates its values, and 3^13 of them exceed the guard: the overflow is
    # still found, before the table, and a campaign on a given solution writes no records
    payload = harness.generate_instance(13, 2, "concave_over_modular", seed=0)
    payload["objective"]["g"] = {"kind": "sqrt"}
    payload["objective"]["a"] = [[1e308, 1.5e308]] * 13
    path = write_payload(tmp_path, payload)
    inst, _ = model.instance_from_dict(payload)
    y = inst.prob * min(1.0, inst.budget / float(np.sum(inst.prob * inst.cost)))
    optimizer.check_lp_feasible(y, inst)
    solution = write_payload(tmp_path, {"instance": {"digest": model.instance_digest(payload)},
                                        "solution": {"y": y.tolist()}}, "opt.json")
    records = tmp_path / "r.jsonl"
    for args in (("optimize",), ("verify", "--runs", 20),
                 ("simulate", "--runs", 2000, "--solution", solution, "--records", records)):
        done = run_cli(*args, "--instance", path, "--seed", 1, "--rounds", 2)
        assert done.returncode == cli.EXIT_INVALID
        assert done.stderr == ("error: objective: a value overflowed the float range; "
                               "rescale the instance's numbers\n")
    assert not records.exists()


DELETE = object()
JUNK = (DELETE, None, {}, [], [[1]], 1e308, -1.0, 0, "x")
# finite numbers aimed at the instance's numbers, which the loader accepts more often
NUMBERS = (0, -1.0, 1e-300, 0.5, 1e308)
NUMERIC_KEYS = {"probs", "costs", "budget", "weights", "element_weights", "g", "a", "cap", "scale"}


def _json_paths(node, path=()):
    """Every path into a JSON document, the root's first, in document order."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _json_paths(child, (*path, key))


def _numeric_paths(doc):
    """Paths to the numbers of probs, costs, the budget and the objective's weights and curves."""
    return [path for path in _json_paths(doc)
            if NUMERIC_KEYS.intersection(path)
            and isinstance(functools.reduce(operator.getitem, path, doc), (int, float))]


def _mutate(doc, path, junk):
    """``doc`` with the value at ``path`` replaced by ``junk``, or deleted for DELETE."""
    if not path:
        return {} if junk is DELETE else junk
    *head, last = path
    parent = functools.reduce(operator.getitem, head, doc)
    if junk is DELETE:
        del parent[last]
    else:
        parent[last] = junk
    return doc


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(model.FAMILIES), items=st.integers(1, 3),
       states=st.integers(1, 2), seed=st.integers(0, 30),
       target=st.sampled_from(["instance", "number", "solution"]),
       where=st.integers(0, 10_000), junk=st.sampled_from(JUNK), number=st.sampled_from(NUMBERS))
# ``where`` indexes the document's paths; an example may name the path itself
@example(family="nested_coverage", items=2, states=2, seed=1, target="instance",
         where=("objective", "covers", 0, 0, 0), junk={}, number=0)
@example(family="nested_coverage", items=2, states=2, seed=1, target="instance",
         where=("objective", "covers", 0, 0, 0), junk=[[1]], number=0)
@example(family="nested_coverage", items=2, states=2, seed=1, target="instance",
         where=("objective", "element_weights", 2), junk=1e308, number=0)
def test_mutated_instance_or_solution_never_escapes_the_exit_codes(
        tmp_path_factory, family, items, states, seed, target, where, junk, number):
    """``target`` "number" replaces one number of the instance by ``number``."""
    tmp = tmp_path_factory.mktemp("fuzz")
    instance = harness.generate_instance(items, states, family, seed)
    inst_path = write_payload(tmp, instance)
    args = ["simulate", "--instance", str(inst_path), "--seed", "1", "--runs", "20",
            "--rounds", "2"]
    if target == "solution":
        cfg = harness.ExperimentConfig(instance=str(inst_path), seed=1, rounds=2)
        doc = json.loads(harness.write_report(harness.run_optimize(cfg), None))
        args += ["--solution", str(tmp / "solution.json")]
    else:
        doc = instance
    paths = list(_numeric_paths(doc) if target == "number" else _json_paths(doc))
    doc = _mutate(doc, where if isinstance(where, tuple) else paths[where % len(paths)],
                  number if target == "number" else junk)
    write_payload(tmp, doc, "solution.json" if target == "solution" else "inst.json")
    assert cli.main(args) in (cli.EXIT_OK, cli.EXIT_INVALID, cli.EXIT_CAPACITY)
    if target != "solution":  # the oracle and the order checks see the junk too
        assert cli.main(["verify", "--instance", str(inst_path), "--seed", "1", "--runs", "20",
                         "--rounds", "2", "--order-checks", "2"]) in (
            cli.EXIT_OK, cli.EXIT_CHECK_FAILED, cli.EXIT_INVALID, cli.EXIT_CAPACITY)


@pytest.mark.parametrize("flag", ["--instance", "--out", "--records"])
def test_directory_path_is_input_error(tmp_path, flag):
    args = {"--instance": write_payload(tmp_path, harness.generate_instance(2, 2, seed=24)),
            "--out": tmp_path / "sim.json", "--records": tmp_path / "runs.jsonl"}
    args[flag] = tmp_path
    done = run_cli("simulate", "--seed", 1, "--runs", 10, *(v for kv in args.items() for v in kv))
    assert done.returncode == cli.EXIT_INVALID
    assert "Traceback" not in done.stderr
    assert str(tmp_path) in done.stderr


def test_simulate_solution_of_another_instance_is_input_error(tmp_path, capsys):
    payload = harness.generate_instance(2, 2, seed=25)
    inst_path = write_payload(tmp_path, payload)
    opt = tmp_path / "opt.json"
    assert cli.main(["optimize", "--instance", str(inst_path), "--seed", "1", "--rounds", "20",
                     "--out", str(opt)]) == 0
    payload["objective"]["weights"][0] *= 2  # same items, so y stays feasible
    other = write_payload(tmp_path, payload, "other.json")
    no_digest = tmp_path / "no_digest.json"
    report = json.loads(opt.read_text())
    del report["instance"]
    no_digest.write_text(json.dumps(report))
    for instance, solution in ((other, opt), (inst_path, no_digest)):
        code = cli.main(["simulate", "--instance", str(instance), "--seed", "1", "--runs", "10",
                         "--solution", str(solution)])
        assert code == cli.EXIT_INVALID
        assert str(solution) in capsys.readouterr().err
    assert cli.main(["simulate", "--instance", str(inst_path), "--seed", "1", "--runs", "10",
                     "--solution", str(opt)]) == 0


def test_benchmark_tracer_finds_every_traced_name():
    # bench/tracing.py wraps package functions by name; a rename must fail here
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "bench")])}
    code = "from tracing import Tracer; Tracer().install(); import workloads, child"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_every_package_name_the_benchmark_reads_resolves():
    # the benchmark calls package functions that no command reaches, for example
    # oracle.exhaustive_nonadaptive_value; importing bench/ does not look them up
    assert [name for name in stocan.__all__ if not hasattr(stocan, name)] == []
    for path in sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "stocan"
                   for alias in node.names}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                module = importlib.import_module(f"stocan.{node.value.id}")
                assert hasattr(module, node.attr), (path.name, ast.unparse(node))


def test_every_top_level_name_in_src_is_read_by_the_package_or_the_benchmark():
    # test-only code lives under tests/; a function or class that no module of the package
    # (its own included, __init__'s re-export not) and no benchmark file reads must fail here
    root = Path(__file__).resolve().parents[1]
    defined, read = {}, set()
    for path in sorted((root / "src" / "stocan").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update((node.name, path.stem) for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef)))
        if path.stem != "__init__":
            read.update(node.id if isinstance(node, ast.Name) else node.attr
                        for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))
    for path in (root / "bench").rglob("*.py"):  # words, so a name the tracer patches by string counts
        read.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    assert sorted(f"{module}.{name}" for name, module in defined.items() if name not in read) == []


def test_readme_library_example_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "inst.json" in block
    shutil.copy(reference_suite_paths()[7], tmp_path / "inst.json")  # 3 items, 2 states
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})


# ---------------------------------------------------------------------------
# verify


def test_verify_reference_instance_passes(tmp_path):
    path = str(reference_suite_paths()[4])
    out = tmp_path / "verify.json"
    code = cli.main(["verify", "--instance", path, "--seed", "21", "--rounds", "200",
                     "--runs", "20000", "--order-checks", "3", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["status"] == "pass"
    names = {c["name"] for c in report["checks"]}
    assert {"split_superadditivity", "fractional_vs_adaptive_oracle",
            "combined_policy_guarantee", "small_policy_floor", "large_policy_floor",
            "unbudgeted_small_value", "simulation_vs_exact", "small_simulation_vs_exact",
            "large_simulation_vs_exact", "order_robustness", "feasibility"} <= names
    for check in report["checks"]:
        if check["status"] != "skipped":
            # verdict recomputable from the recorded quantities
            if check["comparison"] == "ge":
                recomputed = check["lhs"] - check["rhs"] + check["tolerance"]
            elif check["comparison"] == "le":
                recomputed = check["rhs"] - check["lhs"] + check["tolerance"]
            else:
                recomputed = check["tolerance"] - abs(check["lhs"] - check["rhs"])
            assert (recomputed >= 0) == (check["status"] == "pass")
            assert recomputed == pytest.approx(check["margin"], abs=1e-12)


def test_verify_weak_optimization_records_gap(tmp_path):
    path = str(reference_suite_paths()[4])
    cfg = harness.ExperimentConfig(instance=path, seed=21, rounds=1, runs=4000,
                                   order_checks=2)
    report = harness.run_verify(cfg)
    row = next(c for c in report["checks"] if c["name"] == "fractional_vs_adaptive_oracle")
    assert row["status"] in ("pass", "fail")
    assert "lhs" in row and "rhs" in row  # the gap is measurable from the report


def test_verify_passes_when_a_state_is_unaffordable(tmp_path):
    # a state costing more than the whole budget can never be accepted, so the
    # greedy gives it no fractional mass and the large-policy floor stays honest
    payload = {
        "items": [{"probs": [0.4, 0.6], "costs": [0.3, 1.5]}],
        "budget": 1.0,
        "objective": {"family": "separable_concave", "weights": [1.0], "g": [0, 1, 2]},
    }
    path = write_payload(tmp_path, payload)
    out = tmp_path / "verify.json"
    code = cli.main(["verify", "--instance", str(path), "--seed", "3", "--rounds", "100",
                     "--runs", "20000", "--order-checks", "2", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["status"] == "pass" and report["failed_checks"] == []
    assert report["solution"]["y"][0][1] == 0.0
    assert report["solution"]["y"][0][0] > 0.0


def test_verify_floor_allows_rounding_when_the_campaign_has_no_spread(tmp_path, monkeypatch):
    # y_large of order 1e-17: no large-policy run selects anything, so the mean and
    # its stderr are both 0, against a floor H(y_large)/8 of order 1e-18
    greedy = harness.continuous_greedy

    def tiny_large(inst, objective, config, **kw):
        y = greedy(inst, objective, config, **kw)
        return np.where(inst.cost > inst.budget / 2, 1e-17, y)

    monkeypatch.setattr(harness, "continuous_greedy", tiny_large)
    payload = {
        "items": [{"probs": [0.5, 0.5], "costs": [0.1, 0.2]},
                  {"probs": [0.5, 0.5], "costs": [0.2, 0.8]}],
        "budget": 1.0,
        "objective": {"family": "separable_concave", "weights": [1.0, 1e-3], "g": [0, 1, 2]},
    }
    path = write_payload(tmp_path, payload)
    report = harness.run_verify(harness.ExperimentConfig(instance=str(path), seed=2, rounds=50,
                                                         runs=5000, order_checks=2))
    assert report["status"] == "pass", report["failed_checks"]
    floor = next(c for c in report["checks"] if c["name"] == "large_policy_floor")
    assert floor["lhs"] == 0.0 and floor["detail"]["stderr"] == 0.0 and 0 < floor["rhs"] < 1e-17
    assert floor["tolerance"] == harness.SPLIT_TOL


def test_verify_oversized_oracle_rows_skipped_not_failed(tmp_path):
    # 10 x 2: (S+2)^I = 4^10 is past the oracle's guard, (S+1)^I = 3^10 within the table's
    path = write_payload(tmp_path, harness.generate_instance(10, 2, seed=15))
    cfg = harness.ExperimentConfig(instance=str(path), seed=4, rounds=60, runs=5000,
                                   order_checks=2)
    report = harness.run_verify(cfg)
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["fractional_vs_adaptive_oracle"]["status"] == "skipped"
    assert by_name["combined_policy_guarantee"]["status"] == "skipped"
    assert by_name["split_superadditivity"]["status"] == "pass"
    assert by_name["order_robustness"]["status"] == "skipped"
    # the exact policy values need only the table
    for name in ("simulation_vs_exact", "small_simulation_vs_exact", "large_simulation_vs_exact"):
        assert by_name[name]["status"] == "pass", name
    assert report["status"] == "pass"


@pytest.mark.parametrize("items, states, family", [(8, 2, "nested_coverage"),
                                                    (6, 3, "concave_over_modular"),
                                                    (8, 3, "nested_coverage"),
                                                    # the oracle's limit at two states: 4^9
                                                    (9, 2, "separable_concave"),
                                                    (9, 2, "nested_coverage"),
                                                    (9, 2, "concave_over_modular"),
                                                    (9, 2, "sqrt")])
def test_verify_runs_the_oracle_checks_past_five_items_or_three_states(
        tmp_path, items, states, family):
    # up to (S+2)^I = 5^8 for the oracle; the exact policy values need only (S+1)^I, and so
    # does every exact evaluator (the sqrt curve's value tensor too), so H is exact wherever
    # the oracle runs and no check is skipped
    payload = (sqrt_curve_payload(items, states, seed=16) if family == "sqrt"
               else harness.generate_instance(items, states, family, seed=16))
    path = write_payload(tmp_path, payload)
    cfg = harness.ExperimentConfig(instance=str(path), seed=5, rounds=100, runs=20_000,
                                   order_checks=3)
    report = harness.run_verify(cfg)
    assert report["solution"]["H"]["method"] == "exact"
    by_name = {c["name"]: c for c in report["checks"]}
    for name in ("fractional_vs_adaptive_oracle", "combined_policy_guarantee",
                 "order_robustness", "simulation_vs_exact", "small_simulation_vs_exact",
                 "large_simulation_vs_exact"):
        assert by_name[name]["status"] == "pass", name
    assert [name for name, c in by_name.items() if c["status"] == "skipped"] == []
    assert [r["name"] for r in report["ratios"]] == ["fractional_over_optimum",
                                                     "combined_policy_over_optimum"]
    assert report["status"] == "pass"


@pytest.mark.parametrize("order_checks", [4, 10])
def test_verify_order_rows_are_exact_values_and_run_no_campaign(monkeypatch, order_checks):
    path = reference_suite_paths()[7]  # 3 items, 2 states: 6 orders
    passes = []
    kernel = policies._kernel
    monkeypatch.setattr(policies, "_kernel",
                        lambda *a, **k: passes.append((a, k)) or kernel(*a, **k))
    report = harness.run_verify(harness.ExperimentConfig(instance=str(path), seed=1, rounds=50,
                                                         runs=2000, order_checks=order_checks))
    assert len(passes) == 2  # small and large on one block; no pass per checked order
    row = next(c for c in report["checks"] if c["name"] == "order_robustness")
    orders = row["detail"]["orders"]
    if order_checks >= 6:  # every order, each once
        assert [tuple(r["order"]) for r in orders] == list(itertools.permutations(range(3)))
    else:  # seed 1 draws an order twice among its first 4 draws; each is checked once
        assert len(orders) == order_checks
        assert len({tuple(r["order"]) for r in orders}) == order_checks
    inst, f = model.load_instance(path)
    y = np.array(report["solution"]["y"])
    bound = harness.GUARANTEE_RATIO * report["oracle"]["adaptive_optimum"] - harness.SPLIT_TOL
    for r in orders:
        assert r["value"] == policies.exact_policy_value("stocan", inst, f, y, order=r["order"])
        assert r["bound"] == bound and r["pass"] == (r["value"] >= bound)
    assert row["lhs"] == min(r["value"] - r["bound"] for r in orders)
    assert row["lhs_source"] == "min over orders of exact_value[stocan] - bound"


def test_verify_takes_each_branch_exact_value_once_at_the_campaign_order(monkeypatch):
    path = reference_suite_paths()[7]  # 3 items, 2 states: 6 orders
    calls = []
    exact = policies.exact_policy_value
    monkeypatch.setattr(policies, "exact_policy_value",
                        lambda kind, *a, **k: calls.append((kind, k["order"])) or exact(kind, *a, **k))
    report = harness.run_verify(harness.ExperimentConfig(instance=str(path), seed=1, rounds=50,
                                                         runs=2000, order=[2, 0, 1], order_checks=4))
    orders = next(c for c in report["checks"] if c["name"] == "order_robustness")["detail"]["orders"]
    assert len(orders) == 4 and len(calls) == 2 + len(orders)
    assert calls[:2] == [("small", (2, 0, 1)), ("large", (2, 0, 1))]
    inst, f = model.load_instance(path)
    y = np.array(report["solution"]["y"])
    by_name = {c["name"]: c for c in report["checks"]}
    for kind, name in (("small", "small_simulation_vs_exact"), ("large", "large_simulation_vs_exact"),
                       ("stocan", "simulation_vs_exact")):  # stocan's: the fair coin, bit for bit
        assert by_name[name]["rhs"] == exact(kind, inst, f, y, order=[2, 0, 1]), name


@pytest.mark.parametrize("run", [harness.run_simulate, harness.run_verify])
def test_bad_order_is_rejected_before_any_work(monkeypatch, run):
    def greedy(*args, **kwargs):
        raise AssertionError("the greedy ran before the order was checked")

    monkeypatch.setattr(harness, "continuous_greedy", greedy)
    path = str(reference_suite_paths()[5])  # 1 item
    with pytest.raises(ValidationError, match="not a permutation"):
        run(harness.ExperimentConfig(instance=path, seed=1, order=[0, 0, 1]))


def test_verify_random_order_mode_skips_exact_comparison(tmp_path):
    path = str(reference_suite_paths()[6])
    cfg = harness.ExperimentConfig(instance=path, seed=13, rounds=80, runs=5000,
                                   order="random", order_checks=2)
    report = harness.run_verify(cfg)
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["simulation_vs_exact"]["status"] == "skipped"
    assert report["status"] == "pass"


def test_verify_byte_identical_reports(tmp_path):
    path = str(reference_suite_paths()[2])
    bodies = []
    for name in ("v1.json", "v2.json"):
        out = tmp_path / name
        code = cli.main(["verify", "--instance", path, "--seed", "77", "--rounds", "80",
                         "--runs", "3000", "--order-checks", "2", "--out", str(out)])
        assert code == 0
        bodies.append(out.read_bytes())
    assert bodies[0] == bodies[1]


# ---------------------------------------------------------------------------
# CLI error handling


def test_missing_budget_key_names_it(tmp_path, capsys):
    path = write_payload(tmp_path, {
        "items": [{"probs": [1.0], "costs": [0.5]}],
        "objective": {"family": "separable_concave", "weights": [1.0], "g": [0, 1]},
    })
    code = cli.main(["optimize", "--instance", str(path), "--seed", "1"])
    assert code == cli.EXIT_INVALID
    assert "budget" in capsys.readouterr().err


def test_cost_assumption_violation_rejected_at_load(tmp_path, capsys):
    path = write_payload(tmp_path, {
        "items": [{"probs": [0.5, 0.5], "costs": [0.9, 0.2]}],
        "budget": 1.0,
        "objective": {"family": "separable_concave", "weights": [1.0], "g": [0, 1, 2]},
    })
    code = cli.main(["simulate", "--instance", str(path), "--seed", "1", "--runs", "10"])
    assert code == cli.EXIT_INVALID
    err = capsys.readouterr().err
    assert "items[0].costs" in err and "state 2" in err and "state 1" in err


def test_missing_file_is_input_error(tmp_path):
    code = cli.main(["optimize", "--instance", str(tmp_path / "nope.json"), "--seed", "1"])
    assert code == cli.EXIT_INVALID


def test_order_flag_parsing(tmp_path):
    path = write_payload(tmp_path, harness.generate_instance(3, 1, seed=16))
    code = cli.main(["simulate", "--instance", str(path), "--seed", "2", "--runs", "50",
                     "--order", "perm:2,0,1"])
    assert code == 0
    with pytest.raises(SystemExit):
        cli.main(["simulate", "--instance", str(path), "--seed", "2", "--order", "sideways"])


@pytest.mark.parametrize("order", [5, [[1]], ["a"]])
def test_order_that_is_not_a_list_of_indices_is_a_validation_error(order):
    with pytest.raises(ValidationError) as err:
        harness.ExperimentConfig(instance="inst.json", seed=1, order=order)
    assert err.value.path == "order"
    assert harness.ExperimentConfig(instance="inst.json", seed=1, order=[2, 0, 1]).order == (2, 0, 1)


def _config(**fields):
    return harness.ExperimentConfig(instance="inst.json", **{"seed": 1, **fields})


@pytest.mark.parametrize("field, call", [
    ("order", lambda: policies.resolve_order([0.5, 1.7, 2], 3)),
    ("order", lambda: policies.resolve_order([True, False], 2)),
    ("order", lambda: _config(order=[0.0, 1.0])),
    ("order_checks", lambda: _config(order_checks=2.5)),
    ("seed", lambda: _config(seed=1.5)),
    ("runs", lambda: _config(runs=2.5)),
    ("rounds", lambda: _config(rounds=3.7)),
    ("samples", lambda: _config(samples="100")),
    ("rounds", lambda: optimizer.GreedyConfig(rounds=True)),
    ("runs", lambda: policies.simulate_policies(*model.instance_from_dict(
        harness.generate_instance(2, 2, seed=1)), np.zeros((2, 2)), 2.5)),
    ("items", lambda: harness.generate_instance(2.5, 2, seed=1)),
    ("seed", lambda: harness.generate_instance(2, 2, seed=1.5)),
    ("order", lambda: policies.resolve_order(5, 3)),
    ("order", lambda: policies.simulate_policies(*model.instance_from_dict(
        harness.generate_instance(2, 2, seed=1)), np.zeros((2, 2)), 10, order=5)),
    ("seed", lambda: optimizer.GreedyConfig(seed=1.5)),
    ("seed", lambda: optimizer.GreedyConfig(seed=-1)),
], ids=["order-floats", "order-bools", "config-order-floats", "order-checks", "seed", "runs",
        "rounds", "samples-string", "greedy-rounds-bool", "campaign-runs", "gen-items", "gen-seed",
        "order-number", "campaign-order-number", "greedy-seed-float", "greedy-seed-negative"])
def test_a_non_integer_count_or_index_is_a_validation_error(field, call):
    """Library inputs are never truncated: a float, bool or string where an integer belongs
    is an input error that names its field."""
    with pytest.raises(ValidationError) as err:
        call()
    assert err.value.path == field


def test_seed_is_mandatory(tmp_path):
    path = write_payload(tmp_path, harness.generate_instance(2, 1, seed=17))
    with pytest.raises(SystemExit):
        cli.main(["optimize", "--instance", str(path)])


def test_stdout_report_when_no_out(tmp_path, capsys):
    path = write_payload(tmp_path, harness.generate_instance(1, 2, seed=18))
    code = cli.main(["optimize", "--instance", str(path), "--seed", "1", "--rounds", "20"])
    assert code == 0
    body = capsys.readouterr().out
    assert json.loads(body)["command"] == "optimize"


# ---------------------------------------------------------------------------
# one draw plan per command


@pytest.mark.parametrize("order", ["identity", "random"])
def test_reports_do_not_depend_on_the_chunk_size(tmp_path, monkeypatch, order):
    """Nor on the value table: at the second chunk size of each case a second pass lowers
    the kernel's guard to 0, so run values come from ``value_many`` on the selection matrix."""
    path = write_payload(tmp_path, harness.generate_instance(4, 2, "nested_coverage",
                                                             seed=26))
    ref = str(reference_suite_paths()[3])
    default = policies.CHUNK_RUNS
    for runs, chunks in ((45, (1, 7, 45, 4 * 45)),  # 45 is not a multiple of 7
                         # two blocks at the default size, against one block and blocks of 1000
                         (default + 45, (default + 45, 1000, default))):
        outputs = {}
        for chunk, table in (*((c, True) for c in chunks), (chunks[1], False)):
            monkeypatch.setattr(policies, "CHUNK_RUNS", chunk)
            monkeypatch.setattr(policies, "ENUM_GUARD", model.ENUM_GUARD if table else 0)
            key = chunk if table else "no table"
            sim, records, ver = (tmp_path / f"{runs}.{chunk}.{table}.{name}"
                                 for name in ("sim.json", "runs.jsonl", "verify.json"))
            assert cli.main(["simulate", "--instance", str(path), "--seed", "5", "--rounds", "30",
                             "--runs", str(runs), "--order", order, "--records", str(records),
                             "--out", str(sim)]) == 0
            assert cli.main(["verify", "--instance", ref, "--seed", "5", "--rounds", "30",
                             "--runs", str(runs), "--order", order, "--order-checks", "2",
                             "--out", str(ver)]) in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED)
            outputs[key] = [p.read_bytes() for p in (sim, records, ver)]
        first = outputs[chunks[0]]
        assert len(first[1].splitlines()) == 3 * runs
        for key in (*chunks[1:], "no table"):
            assert outputs[key] == first, (runs, key)


def test_nan_in_solution_names_its_file_and_entry(tmp_path):
    inst_path = write_payload(tmp_path, harness.generate_instance(2, 2, seed=27))
    opt = tmp_path / "opt.json"
    assert cli.main(["optimize", "--instance", str(inst_path), "--seed", "1", "--rounds", "20",
                     "--out", str(opt)]) == 0
    report = json.loads(opt.read_text())
    report["solution"]["y"][0][0] = math.nan
    opt.write_text(json.dumps(report))  # json writes NaN, which json reads back
    done = run_cli("simulate", "--instance", inst_path, "--seed", 1, "--runs", 10,
                   "--solution", opt)
    assert done.returncode == cli.EXIT_INVALID
    assert "Traceback" not in done.stderr
    assert f"{opt}: solution.y[0][0]" in done.stderr


def test_a_nan_y_is_refused_by_the_library_naming_its_entry():
    # every comparison with NaN is false, so only a finiteness check keeps it from the policies
    inst, f = model.load_instance(reference_suite_paths()[9])
    y = np.full(inst.prob.shape, math.nan)
    for call in (lambda: optimizer.check_lp_feasible(y, inst),
                 lambda: policies.simulate_policies(inst, f, y, 100, seed=1),
                 lambda: policies.exact_policy_value("small", inst, f, y, order="identity")):
        with pytest.raises(ValidationError) as err:
            call()
        assert err.value.path == "y[0][0]"


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 7.28 TiB for an array", "Unable to allocate 7.28 TiB for an array"),
    ("", "out of memory"),
], ids=["numpy", "bare"])
def test_out_of_memory_is_a_capacity_error(tmp_path, monkeypatch, capsys, command, message, line):
    # the allocation is never made: a host that overcommits memory could grant it and page it in
    path = write_payload(tmp_path, harness.generate_instance(2, 2, seed=28))

    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(policies, "simulate_policies", refuse)
    assert cli.main([command, "--instance", str(path), "--seed", "1", "--rounds", "5",
                     "--runs", "10"]) == cli.EXIT_CAPACITY
    assert capsys.readouterr().err == f"capacity error: {line}\n"


def test_verify_lists_its_checks_in_one_order_past_the_oracle_guard(tmp_path):
    # a 12 x 2 instance is past the oracle's guard, (S+2)^I = 4^12, and a reference is within it
    big = write_payload(tmp_path, harness.generate_instance(12, 2, seed=7))
    reports = [harness.run_verify(harness.ExperimentConfig(instance=str(path), seed=1, rounds=20,
                                                           runs=2000))
               for path in (reference_suite_paths()[0], big)]
    assert [r["oracle"]["available"] for r in reports] == [True, False]
    names = [[c["name"] for c in r["checks"]] for r in reports]
    assert names[0] == names[1]
    skipped = [c["name"] for c in reports[1]["checks"] if c["status"] == "skipped"]
    assert skipped == ["fractional_vs_adaptive_oracle", "combined_policy_guarantee",
                       "order_robustness"]


@pytest.mark.parametrize("entry", ["above-one", "above-cap", "negative"])
def test_solution_outside_the_lp_polytope_names_its_file_and_entry(tmp_path, entry):
    payload = harness.generate_instance(2, 2, seed=27)
    inst_path = write_payload(tmp_path, payload)
    opt, out = tmp_path / "opt.json", tmp_path / "sim.json"
    assert cli.main(["optimize", "--instance", str(inst_path), "--seed", "1", "--rounds", "20",
                     "--out", str(opt)]) == 0
    report = json.loads(opt.read_text())
    cap = payload["items"][0]["probs"][0]
    report["solution"]["y"][0][0] = {"above-one": 5.0, "above-cap": (cap + 1) / 2,
                                     "negative": -0.5}[entry]
    opt.write_text(json.dumps(report))
    done = run_cli("simulate", "--instance", inst_path, "--seed", 1, "--runs", 10,
                   "--solution", opt, "--out", out)
    assert done.returncode == cli.EXIT_INVALID
    assert "Traceback" not in done.stderr
    assert f"{opt}: solution.y[0][0]" in done.stderr
    assert not out.exists()


def test_solution_within_tolerance_above_its_cap_accepts_at_one_quarter(tmp_path):
    # y[0][0] = 5e-10 exceeds its cap p = 1e-12 by less than PROB_TOL, so the LP check admits it,
    # and the pair's accept probability is clipped to exactly 1/4
    payload = {"budget": 1.0, "items": [{"costs": [0.1, 0.2], "probs": [1e-12, 1 - 1e-12]}],
               "objective": {"family": "separable_concave", "g": [0.0, 1.0, 2.0], "weights": [1.0]}}
    inst_path = write_payload(tmp_path, payload)
    inst, _ = model.instance_from_dict(payload)
    y = [[5e-10, 0.0]]
    assert policies.acceptance_probabilities(inst, np.array(y))[0, 0] == 0.25
    opt = write_payload(tmp_path, {"instance": {"digest": model.instance_digest(payload)},
                                   "solution": {"y": y}}, "opt.json")
    assert cli.main(["simulate", "--instance", str(inst_path), "--seed", "1", "--runs", "100",
                     "--solution", str(opt), "--out", str(tmp_path / "sim.json")]) == 0


def test_solution_within_tolerance_above_one_is_admitted_and_clipped(tmp_path):
    # y = 1 + 5e-10 exceeds p = 1 by less than PROB_TOL: the LP check admits it, and so does H
    payload = {"budget": 1.0, "items": [{"costs": [0.3], "probs": [1.0]}],
               "objective": {"family": "separable_concave", "g": [0.0, 1.0], "weights": [1.0]}}
    inst_path = write_payload(tmp_path, payload)
    opt = write_payload(tmp_path, {"instance": {"digest": model.instance_digest(payload)},
                                   "solution": {"y": [[1 + 5e-10]]}}, "opt.json")
    out = tmp_path / "sim.json"
    assert cli.main(["simulate", "--instance", str(inst_path), "--seed", "1", "--runs", "100",
                     "--solution", str(opt), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["solution"]["H"]["y"] == 1.0  # clipped to y = 1
    inst, _ = model.instance_from_dict(payload)
    assert policies.acceptance_probabilities(inst, np.array([[1 + 5e-10]]))[0, 0] == 0.25


@pytest.mark.parametrize("flag, target", [
    ("--out", lambda tmp: tmp),
    ("--records", lambda tmp: tmp),
    ("--out", lambda tmp: tmp / "missing" / "sim.json"),
    ("--records", lambda tmp: tmp / "missing" / "runs.jsonl"),
], ids=["out-directory", "records-directory", "out-no-parent", "records-no-parent"])
def test_unwritable_output_fails_before_any_campaign(tmp_path, monkeypatch, capsys, flag, target):
    def no_campaigns(*args, **kwargs):
        raise AssertionError("a campaign ran before the output path was checked")

    monkeypatch.setattr(policies, "_draw_plan", no_campaigns)
    path = write_payload(tmp_path, harness.generate_instance(2, 2, seed=28))
    code = cli.main(["simulate", "--instance", str(path), "--seed", "1", "--runs", "500000",
                     flag, str(target(tmp_path))])
    assert code == cli.EXIT_INVALID
    assert str(target(tmp_path)) in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("shared", ["out", "instance", "solution", "instance-link"])
def test_records_naming_another_file_of_the_command_is_input_error(tmp_path, shared):
    inst_path = write_payload(tmp_path, harness.generate_instance(2, 2, seed=30))
    opt = tmp_path / "opt.json"
    assert cli.main(["optimize", "--instance", str(inst_path), "--seed", "1", "--rounds", "20",
                     "--out", str(opt)]) == 0
    link = tmp_path / "link.json"
    link.symlink_to(inst_path)  # another name of the instance file
    paths = {"out": tmp_path / "sim.json", "instance": inst_path, "solution": opt,
             "instance-link": link}
    before = {p: p.read_bytes() for p in (inst_path, opt)}
    done = run_cli("simulate", "--instance", inst_path, "--seed", 1, "--runs", 10,
                   "--solution", opt, "--out", tmp_path / "sim.json", "--records", paths[shared])
    assert done.returncode == cli.EXIT_INVALID
    assert done.stderr.splitlines() == [f"error: {paths[shared]}: names the same file as "
                                        f"{shared.split('-')[0]}"]
    assert {p: p.read_bytes() for p in (inst_path, opt)} == before
    assert not (tmp_path / "sim.json").exists()


@pytest.mark.parametrize("via", ["path", "symlink"])
@pytest.mark.parametrize("command", ["optimize", "simulate", "verify"])
def test_out_naming_the_instance_is_input_error(tmp_path, capsys, command, via):
    inst_path = write_payload(tmp_path, harness.generate_instance(2, 2, seed=32))
    out = inst_path
    if via == "symlink":
        out = tmp_path / "link.json"
        out.symlink_to(inst_path)  # another name of the instance file
    before = inst_path.read_bytes()
    runs = ["--runs", "100"] if command != "optimize" else []
    code = cli.main([command, "--instance", str(inst_path), "--seed", "1", "--rounds", "5",
                     *runs, "--out", str(out)])
    assert code == cli.EXIT_INVALID
    assert capsys.readouterr().err.splitlines() == [f"error: {out}: names the same file as instance"]
    assert inst_path.read_bytes() == before


def test_out_may_overwrite_the_solution_it_reads(tmp_path):
    inst_path = write_payload(tmp_path, harness.generate_instance(2, 2, seed=29))
    opt = tmp_path / "opt.json"
    assert cli.main(["optimize", "--instance", str(inst_path), "--seed", "1", "--rounds", "20",
                     "--out", str(opt)]) == 0
    y = json.loads(opt.read_text())["solution"]["y"]
    assert cli.main(["simulate", "--instance", str(inst_path), "--seed", "1", "--runs", "10",
                     "--solution", str(opt), "--out", str(opt)]) == 0
    report = json.loads(opt.read_text())
    assert report["command"] == "simulate" and report["solution"]["y"] == y

import functools
import json
import math
import operator
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import stocan
from stocan import cli, harness, model, policies
from stocan.errors import ValidationError

def write_payload(tmp_path, payload, name="inst.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return p


# ---------------------------------------------------------------------------
# generation


def test_generated_instance_validates_and_is_deterministic(tmp_path):
    a = harness.generate_instance(3, 2, 1.0, "nested_coverage", seed=4)
    b = harness.generate_instance(3, 2, 1.0, "nested_coverage", seed=4)
    c = harness.generate_instance(3, 2, 1.0, "nested_coverage", seed=5)
    assert a == b
    assert a != c
    model.instance_from_dict(a)  # must load cleanly


def test_generated_objectives_are_lattice_submodular():
    for k, family in enumerate(harness.FAMILIES):
        _, f = model.instance_from_dict(
            harness.generate_instance(2, 3, 1.0, family, seed=60 + k))
        assert model.check_monotone(f).ok
        assert model.check_lattice_submodular(f).ok


def test_gen_cli_writes_identical_files_for_same_seed(tmp_path):
    out1, out2, out3 = (str(tmp_path / n) for n in ("a.json", "b.json", "c.json"))
    assert cli.main(["gen", "--items", "2", "--states", "2", "--seed", "7", "--out", out1]) == 0
    assert cli.main(["gen", "--items", "2", "--states", "2", "--seed", "7", "--out", out2]) == 0
    assert cli.main(["gen", "--items", "2", "--states", "2", "--seed", "8", "--out", out3]) == 0
    b1, b2, b3 = (open(p, "rb").read() for p in (out1, out2, out3))
    assert b1 == b2
    assert b1 != b3


def test_generator_parameter_validation():
    with pytest.raises(ValidationError):
        harness.generate_instance(0, 2, 1.0, "separable_concave", seed=1)
    with pytest.raises(ValidationError):
        harness.generate_instance(2, 2, 1.0, "mystery", seed=1)
    with pytest.raises(ValidationError):
        harness.generate_instance(2, 2, -1.0, "separable_concave", seed=1)


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


def test_optimize_report_bytes_reproducible(tmp_path):
    path = write_payload(tmp_path, harness.generate_instance(2, 2, 1.0, "nested_coverage", seed=9))
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        cfg = harness.ExperimentConfig(instance=str(path), seed=5, rounds=50, out=str(out))
        harness.write_report(harness.run_optimize(cfg), cfg.out)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_optimize_report_bytes_independent_of_blas_threads(tmp_path):
    path = write_payload(tmp_path, harness.generate_instance(9, 3, 1.0, "nested_coverage", seed=101))
    src = str(Path(stocan.__file__).resolve().parents[1])
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads_{threads}.json"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "stocan.cli", "optimize", "--instance", str(path),
                        "--seed", "1", "--rounds", "8", "--out", str(out)],
                       env=env, check=True, capture_output=True)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_optimize_oversized_exact_marginals_is_capacity_error(tmp_path):
    path = write_payload(tmp_path, harness.generate_instance(21, 2, 1.0, seed=10))
    code = cli.main(["optimize", "--instance", str(path), "--seed", "1", "--rounds", "3"])
    assert code == cli.EXIT_CAPACITY


def test_optimize_oversized_sampled_marginals_estimates_H(tmp_path):
    path = write_payload(tmp_path, harness.generate_instance(21, 2, 1.0, seed=10))
    cfg = harness.ExperimentConfig(instance=str(path), seed=1, rounds=2,
                                   marginals="sampled", samples=300)
    report = harness.run_optimize(cfg)
    assert report["solution"]["H"]["method"] == "estimate"
    assert report["solution"]["H"]["y_stderr"] >= 0.0


# ---------------------------------------------------------------------------
# simulate


def test_simulate_matches_exact_and_counts_violations(tmp_path):
    path = write_payload(tmp_path, harness.generate_instance(2, 2, 1.0,
                                                             "concave_over_modular", seed=11))
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
    inst_path = write_payload(tmp_path, harness.generate_instance(2, 2, 1.0, seed=13))
    opt_out = tmp_path / "opt.json"
    cfg = harness.ExperimentConfig(instance=str(inst_path), seed=2, rounds=40, out=str(opt_out))
    harness.write_report(harness.run_optimize(cfg), cfg.out)
    cfg2 = harness.ExperimentConfig(instance=str(inst_path), seed=2, runs=500,
                                    solution=str(opt_out))
    report = harness.run_simulate(cfg2)
    prior = json.loads(opt_out.read_text())
    assert report["solution"]["y"] == prior["solution"]["y"]


def test_simulate_report_bytes_reproducible_with_custom_order(tmp_path):
    path = write_payload(tmp_path, harness.generate_instance(3, 2, 1.0, seed=19))
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
    inst_path = write_payload(tmp_path, harness.generate_instance(2, 2, 1.0, seed=14))
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
    path = write_payload(tmp_path, harness.generate_instance(3, 2, 1.0, "nested_coverage", seed=22))
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


def test_simulate_non_json_solution_is_input_error(tmp_path):
    path = write_payload(tmp_path, harness.generate_instance(2, 2, 1.0, seed=23))
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
    payload = harness.generate_instance(2, 2, 1.0, seed=23)
    edit(payload)
    done = run_cli("simulate", "--instance", write_payload(tmp_path, payload), "--seed", 1,
                   "--runs", 10)
    assert done.returncode == cli.EXIT_INVALID
    assert "Traceback" not in done.stderr
    assert path in done.stderr


def test_overflowing_statistics_are_an_input_error(tmp_path):
    # finite inputs, but the variance of the run values overflows to inf
    payload = harness.generate_instance(2, 2, 1.0, "nested_coverage", seed=1)
    payload["objective"]["element_weights"][2] = 1e308
    path = write_payload(tmp_path, payload)
    for command in ("simulate", "verify"):
        out = tmp_path / f"{command}.json"
        done = run_cli(command, "--instance", path, "--seed", 1, "--runs", 100, "--out", out)
        assert done.returncode == cli.EXIT_INVALID
        # exactly the one error line: no numpy warning before it
        assert done.stderr == ("error: report: a value overflowed the float range; "
                               "rescale the instance's numbers\n")
        assert not out.exists()


def test_overflowing_objective_values_are_an_input_error(tmp_path):
    # finite parameters, but w_i * g(1) overflows to inf, and inf * 0 to NaN in H
    payload = harness.generate_instance(2, 1, 1.0, "separable_concave", seed=0)
    payload["objective"]["g"][1] = 1e308
    path = write_payload(tmp_path, payload)
    for command in ("optimize", "simulate", "verify"):
        done = run_cli(command, "--instance", path, "--seed", 1, "--runs", 20, "--rounds", 2)
        assert done.returncode == cli.EXIT_INVALID
        assert done.stderr == ("error: objective: a value overflowed the float range; "
                               "rescale the instance's numbers\n")


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
    instance = harness.generate_instance(items, states, 1.0, family, seed)
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
    args = {"--instance": write_payload(tmp_path, harness.generate_instance(2, 2, 1.0, seed=24)),
            "--out": tmp_path / "sim.json", "--records": tmp_path / "runs.jsonl"}
    args[flag] = tmp_path
    done = run_cli("simulate", "--seed", 1, "--runs", 10, *(v for kv in args.items() for v in kv))
    assert done.returncode == cli.EXIT_INVALID
    assert "Traceback" not in done.stderr
    assert str(tmp_path) in done.stderr


def test_simulate_solution_of_another_instance_is_input_error(tmp_path, capsys):
    payload = harness.generate_instance(2, 2, 1.0, seed=25)
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
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "from tracing import Tracer; Tracer().install()")
    done = subprocess.run([sys.executable, "-c", code, str(root / "bench"), str(root / "src")],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------------------
# verify


def test_verify_reference_instance_passes(tmp_path):
    path = str(harness.reference_suite_paths()[4])
    out = tmp_path / "verify.json"
    code = cli.main(["verify", "--instance", path, "--seed", "21", "--rounds", "200",
                     "--runs", "20000", "--order-checks", "3", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["status"] == "pass"
    names = {c["name"] for c in report["checks"]}
    assert {"split_superadditivity", "fractional_vs_adaptive_oracle",
            "combined_policy_guarantee", "small_policy_floor", "large_policy_floor",
            "unbudgeted_small_inclusion", "order_robustness", "feasibility"} <= names
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
    path = str(harness.reference_suite_paths()[4])
    cfg = harness.ExperimentConfig(instance=path, seed=21, rounds=1, runs=4000,
                                   order_checks=2)
    report = harness.run_verify(cfg)
    row = next(c for c in report["checks"] if c["name"] == "fractional_vs_adaptive_oracle")
    assert row["status"] in ("pass", "fail")
    assert "lhs" in row and "rhs" in row  # the gap is measurable from the report


def test_verify_fails_when_a_state_is_unaffordable(tmp_path):
    # a state costing more than the whole budget can carry fractional mass but
    # can never be accepted, which genuinely breaks the large-policy floor
    payload = {
        "items": [{"probs": [0.4, 0.6], "costs": [0.3, 1.5]}],
        "budget": 1.0,
        "objective": {"family": "separable_concave", "weights": [1.0], "g": [0, 1, 2]},
    }
    path = write_payload(tmp_path, payload)
    out = tmp_path / "verify.json"
    code = cli.main(["verify", "--instance", str(path), "--seed", "3", "--rounds", "100",
                     "--runs", "20000", "--order-checks", "2", "--out", str(out)])
    assert code == cli.EXIT_CHECK_FAILED
    report = json.loads(out.read_text())
    assert "large_policy_floor" in report["failed_checks"]


def test_verify_oversized_oracle_rows_skipped_not_failed(tmp_path):
    path = write_payload(tmp_path, harness.generate_instance(6, 2, 1.0, seed=15))
    cfg = harness.ExperimentConfig(instance=str(path), seed=4, rounds=60, runs=5000,
                                   order_checks=2)
    report = harness.run_verify(cfg)
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["fractional_vs_adaptive_oracle"]["status"] == "skipped"
    assert by_name["combined_policy_guarantee"]["status"] == "skipped"
    assert by_name["split_superadditivity"]["status"] == "pass"
    assert report["status"] == "pass"


def test_verify_random_order_mode_skips_exact_comparison(tmp_path):
    path = str(harness.reference_suite_paths()[6])
    cfg = harness.ExperimentConfig(instance=path, seed=13, rounds=80, runs=5000,
                                   order="random", order_checks=2)
    report = harness.run_verify(cfg)
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["simulation_vs_exact"]["status"] == "skipped"
    assert report["status"] == "pass"


def test_verify_byte_identical_reports(tmp_path):
    path = str(harness.reference_suite_paths()[2])
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
    path = write_payload(tmp_path, harness.generate_instance(3, 1, 1.0, seed=16))
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


def test_seed_is_mandatory(tmp_path):
    path = write_payload(tmp_path, harness.generate_instance(2, 1, 1.0, seed=17))
    with pytest.raises(SystemExit):
        cli.main(["optimize", "--instance", str(path)])


def test_stdout_report_when_no_out(tmp_path, capsys):
    path = write_payload(tmp_path, harness.generate_instance(1, 2, 1.0, seed=18))
    code = cli.main(["optimize", "--instance", str(path), "--seed", "1", "--rounds", "20"])
    assert code == 0
    body = capsys.readouterr().out
    assert json.loads(body)["command"] == "optimize"


# ---------------------------------------------------------------------------
# one draw plan per command


@pytest.mark.parametrize("order", ["identity", "random"])
def test_reports_do_not_depend_on_the_chunk_size(tmp_path, monkeypatch, order):
    """Nor on the value table: at chunk size 7 a second pass lowers the kernel's guard
    to 0, so run values come from ``value_many`` on the selection matrix instead."""
    runs = 45  # not a multiple of 7
    path = write_payload(tmp_path, harness.generate_instance(4, 2, 1.0, "nested_coverage",
                                                             seed=26))
    ref = str(harness.reference_suite_paths()[3])
    outputs = {}
    for chunk, table in ((1, True), (7, True), (runs, True), (4 * runs, True), (7, False)):
        monkeypatch.setattr(policies, "CHUNK_RUNS", chunk)
        monkeypatch.setattr(policies, "ENUM_GUARD", model.ENUM_GUARD if table else 0)
        key = chunk if table else "no table"
        sim, records, ver = (tmp_path / f"{chunk}.{table}.{name}"
                             for name in ("sim.json", "runs.jsonl", "verify.json"))
        assert cli.main(["simulate", "--instance", str(path), "--seed", "5", "--rounds", "30",
                         "--runs", str(runs), "--order", order, "--records", str(records),
                         "--out", str(sim)]) == 0
        assert cli.main(["verify", "--instance", ref, "--seed", "5", "--rounds", "30",
                         "--runs", str(runs), "--order", order, "--order-checks", "2",
                         "--out", str(ver)]) in (cli.EXIT_OK, cli.EXIT_CHECK_FAILED)
        outputs[key] = [p.read_bytes() for p in (sim, records, ver)]
    assert len(outputs[1][1].splitlines()) == 3 * runs
    for key in (7, runs, 4 * runs, "no table"):
        assert outputs[key] == outputs[1], key


def test_nan_in_solution_names_its_file_and_entry(tmp_path):
    inst_path = write_payload(tmp_path, harness.generate_instance(2, 2, 1.0, seed=27))
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
    path = write_payload(tmp_path, harness.generate_instance(2, 2, 1.0, seed=28))
    code = cli.main(["simulate", "--instance", str(path), "--seed", "1", "--runs", "500000",
                     flag, str(target(tmp_path))])
    assert code == cli.EXIT_INVALID
    assert str(target(tmp_path)) in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


def test_out_may_overwrite_the_solution_it_reads(tmp_path):
    inst_path = write_payload(tmp_path, harness.generate_instance(2, 2, 1.0, seed=29))
    opt = tmp_path / "opt.json"
    assert cli.main(["optimize", "--instance", str(inst_path), "--seed", "1", "--rounds", "20",
                     "--out", str(opt)]) == 0
    y = json.loads(opt.read_text())["solution"]["y"]
    assert cli.main(["simulate", "--instance", str(inst_path), "--seed", "1", "--runs", "10",
                     "--solution", str(opt), "--out", str(opt)]) == 0
    report = json.loads(opt.read_text())
    assert report["command"] == "simulate" and report["solution"]["y"] == y


def _worst_inclusion_gap_by_loop(device_sim, inst, y, runs) -> dict:
    """The pair-by-pair scan the array form replaced: first pair of least slack wins."""
    worst = {"pair": None, "gap": 0.0, "allowance": 0.0, "frequency": 0.0, "target": 0.0}
    best_slack = math.inf
    for i in range(inst.item_count):
        for s in range(1, inst.state_count + 1):
            if inst.cost[i, s - 1] > inst.budget / 2:
                continue
            target = float(y[i, s - 1]) / 4.0
            freq = device_sim.pair_inclusion_frequency(i, s)
            allowance = harness.SIGMA * math.sqrt(max(target * (1 - target), 0.0) / runs)
            gap = abs(freq - target)
            slack = allowance - gap
            if slack < best_slack:
                best_slack = slack
                worst = {"pair": [i, s], "gap": gap, "allowance": allowance,
                         "frequency": freq, "target": target}
    return worst


@settings(max_examples=150, deadline=None)
@given(data=st.data(), items=st.integers(1, 4), states=st.integers(1, 3),
       runs=st.integers(1, 12))
def test_worst_inclusion_gap_matches_the_pair_loop(data, items, states, runs):
    shape = (items, states)
    # mostly a few distinct values, so ties in slack are common
    y = np.array(data.draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.0, 1.0),
                                    min_size=items * states, max_size=items * states)),
                 dtype=float).reshape(shape)
    cost = np.array(data.draw(st.lists(st.sampled_from([0.1, 0.5, 0.7]),
                                       min_size=items * states, max_size=items * states)),
                    dtype=float).reshape(shape)
    counts = np.array(data.draw(st.lists(st.integers(0, runs), min_size=items * (states + 1),
                                         max_size=items * (states + 1))),
                      dtype=np.int64).reshape(items, states + 1)
    inst = SimpleNamespace(item_count=items, state_count=states, cost=cost, budget=1.0)
    sim = policies.PolicySimulation("small", runs, np.zeros(runs), counts, None, True)
    got = harness._worst_inclusion_gap(sim, inst, y, runs)
    assert got == _worst_inclusion_gap_by_loop(sim, inst, y, runs)

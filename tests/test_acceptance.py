"""Acceptance battery.

Each test prints one PASS/FAIL line for its criterion before asserting,
with every tolerance pinned here: exact checks at 1e-12, the fractional
bound at an absolute 0.02, stochastic bounds at four standard errors,
and the inner-LP comparison at 1e-2 against a resolution-1e-3 grid.
"""

import math
import time

import numpy as np
import pytest

from stocan import cli, extension, harness, model, optimizer, oracle, policies
from stocan.rng import substream

MASTER_SEED = 20260810
RUNS = 100_000
ROUNDS = 200
RATIO = 1.0 - 1.0 / math.e
GUARANTEE = RATIO / 16.0
FAMS = harness.FAMILIES


def announce(number, label, ok, detail):
    print(f"\nACCEPTANCE {number} ({label}): {'PASS' if ok else 'FAIL'} — {detail}")


@pytest.fixture(scope="module")
def suite():
    """Bundled reference instances with their optimized solutions."""
    entries = []
    for path in harness.reference_suite_paths():
        inst, objective = model.load_instance(path)
        y = optimizer.continuous_greedy(
            inst, objective, optimizer.GreedyConfig(rounds=ROUNDS))
        y_small, y_large = optimizer.split_solution(y, inst)
        ext = extension.FactoredExtension(objective)
        entries.append({
            "name": path.name,
            "inst": inst,
            "objective": objective,
            "y": y,
            "H_y": ext.H(y),
            "H_small": ext.H(y_small),
            "H_large": ext.H(y_large),
            "opt": oracle.optimal_policy_value(inst, objective).value,
        })
    assert len(entries) == 20
    return entries


@pytest.fixture(scope="module")
def simulations(suite):
    """One seeded campaign per policy per instance, paired by state stream."""
    sims = []
    for entry in suite:
        sims.append({
            kind: policies.simulate_policy(
                kind, entry["inst"], entry["objective"], entry["y"], RUNS,
                seed=MASTER_SEED)
            for kind in policies.KINDS
        })
    return sims


def test_criterion_1_split_superadditivity():
    t0 = time.time()
    sizes = [(i, s) for i in range(1, 6) for s in range(1, 4)]
    worst = math.inf
    count = 0
    for k in range(50):
        items, states = sizes[k % len(sizes)]
        inst, objective = model.instance_from_dict(
            harness.generate_instance(items, states, 1.0, FAMS[k % 3], seed=5000 + k))
        y = optimizer.continuous_greedy(inst, objective, optimizer.GreedyConfig(rounds=64))
        y_small, y_large = optimizer.split_solution(y, inst)
        ext = extension.FactoredExtension(objective)
        slack = ext.H(y_small) + ext.H(y_large) - ext.H(y)
        worst = min(worst, slack)
        count += 1
    ok = worst >= -1e-12
    announce(1, "split superadditivity, exact",
             ok, f"{count} instances (I<=5, S<=3), min slack {worst:.3g}, "
                 f"tolerance 1e-12, {time.time() - t0:.1f}s")
    assert ok


def test_criterion_2_fractional_solution_vs_adaptive_oracle(suite):
    t0 = time.time()
    margins = [e["H_y"] - (RATIO * e["opt"] - 0.02) for e in suite]
    ok = all(m >= 0 for m in margins)
    announce(2, "continuous greedy vs adaptive optimum",
             ok, f"20 instances (I<=3, S<=2), T={ROUNDS}, exact marginals, "
                 f"min margin {min(margins):.4f} at tolerance 0.02, {time.time() - t0:.1f}s")
    assert ok


def test_criterion_3_combined_policy_guarantee(suite, simulations):
    t0 = time.time()
    margins = []
    for entry, sims in zip(suite, simulations):
        sim = sims["stocan"]
        margins.append(sim.mean - (GUARANTEE * entry["opt"] - 4 * sim.stderr))
    ok = all(m >= 0 for m in margins)
    announce(3, "combined policy achieves (1-1/e)/16 of the optimum",
             ok, f"20 instances x {RUNS} runs, min margin {min(margins):.4f} "
                 f"at 4 standard errors, {time.time() - t0:.1f}s")
    assert ok


def test_criterion_4_policy_floors(suite, simulations):
    t0 = time.time()
    worst = math.inf
    for entry, sims in zip(suite, simulations):
        small, large = sims["small"], sims["large"]
        worst = min(worst,
                    small.mean - (entry["H_small"] / 8 - 4 * small.stderr),
                    large.mean - (entry["H_large"] / 8 - 4 * large.stderr))
    ok = worst >= 0
    announce(4, "small/large policies floor at an eighth of their H",
             ok, f"20 instances x {RUNS} runs per policy, min margin {worst:.4f} "
                 f"at 4 standard errors, {time.time() - t0:.1f}s")
    assert ok


def test_criterion_5_hard_feasibility(suite, simulations):
    total_runs = 0
    violations = 0
    max_large = 0
    for entry, sims in zip(suite, simulations):
        budget = entry["inst"].budget
        for kind, sim in sims.items():
            total_runs += sim.runs
            violations += sim.budget_violations
            assert np.all(sim.total_costs <= budget)  # exact, no tolerance
        max_large = max(max_large, int(sims["large"].selection_sizes.max(initial=0)))
        stocan = sims["stocan"]
        large_branch = ~stocan.branch_small
        if np.any(large_branch):
            max_large = max(max_large,
                            int(stocan.selection_sizes[large_branch].max(initial=0)))
    ok = total_runs >= 1_000_000 and violations == 0 and max_large <= 1
    announce(5, "zero budget violations, large policy selects at most one",
             ok, f"{total_runs} total runs, {violations} violations, "
                 f"max large-policy selection {max_large}")
    assert ok


def test_criterion_6_order_independence(suite):
    t0 = time.time()
    worst = math.inf
    checked = 0
    for entry in suite:
        I = entry["inst"].item_count
        for k in range(10):
            perm = substream(MASTER_SEED, 17, k).permutation(I)
            sim = policies.simulate_policy("stocan", entry["inst"], entry["objective"],
                                           entry["y"], RUNS, order=perm,
                                           seed=MASTER_SEED + k)
            worst = min(worst, sim.mean - (GUARANTEE * entry["opt"] - 4 * sim.stderr))
            checked += 1
        # fresh-random-per-run arrivals satisfy the same bound
        fresh = policies.simulate_policy("stocan", entry["inst"], entry["objective"],
                                         entry["y"], RUNS, order="random",
                                         seed=MASTER_SEED)
        worst = min(worst, fresh.mean - (GUARANTEE * entry["opt"] - 4 * fresh.stderr))
        checked += 1
    ok = worst >= 0
    announce(6, "combined-policy bound at random arrival orders",
             ok, f"{checked} campaigns (10 fixed orders + fresh-per-run, 20 instances, "
                 f"{RUNS} runs each), min margin {worst:.4f}, {time.time() - t0:.1f}s")
    assert ok


def test_criterion_7_extension_oracles():
    t0 = time.time()
    rng = substream(MASTER_SEED, 23)
    shapes = [(1, 2), (2, 2), (3, 2), (2, 3), (1, 6), (4, 2), (3, 3), (2, 5), (4, 3), (6, 2)]
    # two independent exact evaluators agree
    max_dev = 0.0
    for k in range(100):
        items, states = shapes[k % len(shapes)]
        _, f = model.instance_from_dict(
            harness.generate_instance(items, states, 1.0, FAMS[k % 3], seed=6000 + k))
        x = rng.random((items, states))
        dev = abs(extension.exact_H_bruteforce(x, f) - extension.FactoredExtension(f).H(x))
        max_dev = max(max_dev, dev)
    agree = max_dev <= 1e-12
    # the Monte Carlo estimator tracks the exact value
    est_ok = True
    for k in range(50):
        items, states = shapes[k % 4]
        _, f = model.instance_from_dict(
            harness.generate_instance(items, states, 1.0, FAMS[k % 3], seed=6500 + k))
        x = rng.random((items, states))
        exact = extension.FactoredExtension(f).H(x)
        est, err = extension.estimate_H(x, f, 100_000, seed=6600 + k)
        est_ok = est_ok and (abs(est - exact) <= 4 * err)
    # multilinearity and concavity along nonnegative directions
    multi_dev = 0.0
    concavity_dev = -math.inf
    for k in range(40):
        items, states = shapes[k % 4]
        _, f = model.instance_from_dict(
            harness.generate_instance(items, states, 1.0, FAMS[k % 3], seed=6700 + k))
        ext = extension.FactoredExtension(f)
        x = rng.random((items, states))
        i, s = int(rng.integers(items)), int(rng.integers(states))
        lam = float(rng.random())
        x0, x1, xl = x.copy(), x.copy(), x.copy()
        x0[i, s], x1[i, s], xl[i, s] = 0.0, 1.0, lam
        multi_dev = max(multi_dev,
                        abs(ext.H(xl) - ((1 - lam) * ext.H(x0) + lam * ext.H(x1))))
        base = rng.random((items, states)) * 0.4
        d = rng.random((items, states))
        concavity_dev = max(concavity_dev,
                            ext.H(base) - 2 * ext.H(base + 0.05 * d) + ext.H(base + 0.1 * d))
    multi_ok = multi_dev <= 1e-12
    concave_ok = concavity_dev <= 1e-9
    ok = agree and est_ok and multi_ok and concave_ok
    announce(7, "extension evaluators cross-validate",
             ok, f"factored vs brute max |dev| {max_dev:.2g} (100 pts, tol 1e-12); "
                 f"estimator within 4 stderr: {est_ok} (50 pts x 1e5 samples); "
                 f"multilinearity dev {multi_dev:.2g} (tol 1e-12); "
                 f"concavity second difference {concavity_dev:.2g} (tol 1e-9); "
                 f"{time.time() - t0:.1f}s")
    assert ok


def test_criterion_8_inner_lp_exactness():
    t0 = time.time()
    rng = substream(MASTER_SEED, 29)
    shapes = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (2, 3), (3, 2)]
    worst_gap = math.inf
    largest_gap = -math.inf
    constraint_ok = True
    for k in range(200):
        items, states = shapes[k % len(shapes)]
        pairs = items * states
        if pairs <= 3:
            caps = np.stack([rng.dirichlet(np.ones(states)) for _ in range(items)])
        else:
            # small caps keep the resolution-1e-3 grid enumerable
            caps = np.stack([rng.dirichlet(np.ones(states)) for _ in range(items)]) * 0.012
        costs = rng.uniform(0.2, 1.5, size=(items, states))
        omega = rng.uniform(-0.2, 1.0, size=(items, states))
        budget = float(rng.uniform(0.3, 0.9) * np.sum(caps * costs)) + 1e-9
        x = optimizer.density_greedy(omega, caps, costs, budget)
        constraint_ok = constraint_ok and bool(
            np.all(x >= -1e-9) and np.all(x <= caps + 1e-9)
            and float(np.sum(x * costs)) <= budget + 1e-9)
        value = float(np.sum(omega * x))
        grid = optimizer.grid_search_lp_value(omega, caps, costs, budget, resolution=1e-3)
        worst_gap = min(worst_gap, value - grid)
        largest_gap = max(largest_gap, value - grid)
    # the greedy value dominates every grid point, and the grid comes within
    # 1e-2 of it, so the two agree to the stated tolerance on both sides
    ok = worst_gap >= -1e-2 and largest_gap <= 1e-2 and constraint_ok
    announce(8, "density-greedy LP vs exhaustive grid",
             ok, f"200 random LPs (I*S<=6), resolution 1e-3, value - grid in "
                 f"[{worst_gap:.3g}, {largest_gap:.3g}] at tolerance 1e-2, "
                 f"constraints at 1e-9: {constraint_ok}, {time.time() - t0:.1f}s")
    assert ok


def test_criterion_9_unbudgeted_small_policy_device(suite):
    t0 = time.time()
    freq_ok = True
    worst_value_margin = math.inf
    for entry in suite:
        inst, objective, y = entry["inst"], entry["objective"], entry["y"]
        sim = policies.simulate_policy("small", inst, objective, y, RUNS,
                                       seed=MASTER_SEED, ignore_budget=True)
        for i in range(inst.item_count):
            for s in range(1, inst.state_count + 1):
                if inst.cost[i, s - 1] > inst.budget / 2:
                    continue
                target = float(y[i, s - 1]) / 4
                stderr = math.sqrt(target * (1 - target) / RUNS)
                gap = abs(sim.pair_inclusion_frequency(i, s) - target)
                freq_ok = freq_ok and gap <= 4 * stderr
        worst_value_margin = min(
            worst_value_margin,
            sim.mean - (entry["H_small"] / 4 - 4 * sim.stderr))
    ok = freq_ok and worst_value_margin >= 0
    announce(9, "unbudgeted small policy matches its analysis device",
             ok, f"per-pair inclusion at y/4 within 4 stderr: {freq_ok}; "
                 f"min value margin vs H(y_small)/4: {worst_value_margin:.4f}; "
                 f"{time.time() - t0:.1f}s")
    assert ok


def test_criterion_10_verify_determinism(suite, tmp_path):
    t0 = time.time()
    identical = True
    for idx in (0, 4, 11):
        path = str(harness.reference_suite_paths()[idx])
        bodies = []
        for attempt in range(2):
            out = tmp_path / f"verify_{idx}_{attempt}.json"
            code = cli.main(["verify", "--instance", path, "--seed", str(MASTER_SEED),
                             "--rounds", "100", "--runs", "5000", "--order-checks", "2",
                             "--out", str(out)])
            assert code == 0
            bodies.append(out.read_bytes())
        identical = identical and bodies[0] == bodies[1]
    announce(10, "verify reports are byte-identical for a fixed seed",
             identical, f"3 instances x 2 runs each, {time.time() - t0:.1f}s")
    assert identical


def test_bundled_suite_verifies_clean(tmp_path):
    """The shipped reference suite passes the full battery end to end."""
    t0 = time.time()
    failures = []
    for path in harness.reference_suite_paths():
        cfg = harness.ExperimentConfig(instance=str(path), seed=MASTER_SEED,
                                       rounds=ROUNDS, runs=20_000, order_checks=3)
        report = harness.run_verify(cfg)
        if report["status"] != "pass":
            failures.append((path.name, report["failed_checks"]))
    print(f"\nbundled suite: {20 - len(failures)}/20 instances verify clean "
          f"({time.time() - t0:.1f}s)")
    assert not failures

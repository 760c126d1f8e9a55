"""The benchmark's workloads: inputs, the commands of one pass, and their checks.

A pass is one round of the same commands; every run repeats whole
passes. Each command counts as one operation. ``work`` is the amount of
the workload's unit of work a command does (greedy rounds, policy runs
or verified instances).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from stocan import model, oracle

import checks
from inputs import make_instance, rng_for, write_instance

MC_SAMPLES = 16000  # draws for the benchmark's own estimate of H(y)


@dataclass
class Command:
    label: str
    args: list  # stocan CLI arguments
    outputs: list  # files the command writes; a rerun must reproduce them byte for byte
    work: int
    instance: Path | None = None


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _generated(ctx, tag: int, specs) -> list:
    """Write one instance per ``(family, items, states)`` spec; returns the paths."""
    return [write_instance(ctx.work / f"{family}_{items}x{states}.json",
                           make_instance(rng_for(ctx.seed, tag, k), items, states, family))
            for k, (family, items, states) in enumerate(specs)]


def _solve(ctx, instance: Path, rounds: int) -> Path:
    """Write y for ``instance`` with ``stocan optimize`` (untimed preparation)."""
    out = ctx.work / f"{instance.stem}.y.json"
    result = ctx.run(["-m", "stocan.cli", "optimize", "--instance", str(instance),
                      "--seed", str(ctx.seed), "--rounds", str(rounds), "--out", str(out)],
                     ctx.work / f"{instance.stem}.y.log")
    if result.code != 0:
        raise RuntimeError(f"preparing y for {instance.name} exited {result.code}")
    return out


class OptimizeExact:
    """``stocan optimize --marginals exact`` on one mid-size instance per family."""

    tag = 1
    unit = "greedy_rounds"
    # family, items, states, greedy rounds
    SPECS = (("nested_coverage", 9, 3, 6), ("concave_over_modular", 12, 2, 2),
             ("separable_concave", 19, 1, 1))

    def prepare(self, ctx) -> list:
        self.instances = _generated(ctx, self.tag, [s[:3] for s in self.SPECS])
        return self.instances

    def commands(self, ctx, pass_dir: Path) -> list:
        cmds = []
        for path, (*_, rounds) in zip(self.instances, self.SPECS):
            out = pass_dir / f"{path.stem}.opt.json"
            cmds.append(Command(
                f"optimize {path.stem}",
                ["optimize", "--instance", str(path), "--seed", str(ctx.seed),
                 "--rounds", str(rounds), "--marginals", "exact", "--out", str(out)],
                [out], work=rounds, instance=path))
        return cmds

    def check(self, ctx, cmd: Command) -> None:
        payload = _read_json(cmd.instance)
        _, objective = model.instance_from_dict(payload)
        solution = _read_json(cmd.outputs[0])["solution"]
        checks.check_solution(solution, payload)
        checks.check_split_superadditivity(solution["H"])
        checks.check_H_estimate(solution["y"], solution["H"]["y"], objective,
                                rng_for(ctx.seed, 50, objective.item_count), MC_SAMPLES)


class SimulateCampaign:
    """``stocan simulate --solution``: two vectorized campaigns outside the
    exact-policy guard, and one ``--records`` campaign inside it, whose runs
    take the scalar walk and are written to JSONL."""

    tag = 2
    unit = "policy_runs"
    SPECS = (("separable_concave", 12, 2), ("nested_coverage", 9, 3))
    RUNS = 500_000
    PREP_ROUNDS = 2
    RECORDS_TAG = 3
    RECORDS_SPEC = ("concave_over_modular", 8, 2)
    RECORDS_RUNS = 2000
    RECORDS_PREP_ROUNDS = 20

    def prepare(self, ctx) -> list:
        self.instances = _generated(ctx, self.tag, self.SPECS)
        self.solutions = [_solve(ctx, path, self.PREP_ROUNDS) for path in self.instances]
        self.records_instance, = _generated(ctx, self.RECORDS_TAG, [self.RECORDS_SPEC])
        self.records_solution = _solve(ctx, self.records_instance, self.RECORDS_PREP_ROUNDS)
        return [*self.instances, self.records_instance]

    def commands(self, ctx, pass_dir: Path) -> list:
        cmds = []
        for path, y in zip(self.instances, self.solutions):
            out = pass_dir / f"{path.stem}.sim.json"
            cmds.append(Command(
                f"simulate {path.stem}",
                ["simulate", "--instance", str(path), "--seed", str(ctx.seed),
                 "--runs", str(self.RUNS), "--solution", str(y), "--out", str(out)],
                [out], work=3 * self.RUNS, instance=path))
        path = self.records_instance
        out, records = pass_dir / f"{path.stem}.sim.json", pass_dir / f"{path.stem}.records.jsonl"
        cmds.append(Command(
            f"simulate --records {path.stem}",
            ["simulate", "--instance", str(path), "--seed", str(ctx.seed),
             "--runs", str(self.RECORDS_RUNS), "--solution", str(self.records_solution),
             "--records", str(records), "--out", str(out)],
            [out, records], work=3 * self.RECORDS_RUNS, instance=path))
        return cmds

    def check(self, ctx, cmd: Command) -> None:
        payload = _read_json(cmd.instance)
        _, objective = model.instance_from_dict(payload)
        report = _read_json(cmd.outputs[0])
        if cmd.instance == self.records_instance:
            if report["budget_violations"] != 0:
                raise checks.CheckFailed(f"{report['budget_violations']} budget violations")
            lines = cmd.outputs[1].read_text(encoding="utf-8").splitlines()
            checks.check_records(lines, payload, objective, self.RECORDS_RUNS,
                                 report["exact"]["stocan"])
            return
        solution = report["solution"]
        y_file = self.solutions[self.instances.index(cmd.instance)]
        given = _read_json(y_file)["solution"]["y"]
        if solution["y"] != given:
            raise checks.CheckFailed("report's y differs from the --solution file's y")
        checks.check_solution(solution, payload)
        checks.check_campaign(report, self.RUNS)
        checks.check_H_estimate(solution["y"], solution["H"]["y"], objective,
                                rng_for(ctx.seed, 51, objective.item_count), MC_SAMPLES)


class VerifyReference:
    """``stocan verify`` with default flags on every bundled reference instance."""

    unit = "verified_instances"

    def prepare(self, ctx) -> list:
        self.instances = sorted((ctx.root / "src" / "stocan" / "data" / "reference").glob("ref_*.json"))
        if not self.instances:
            raise RuntimeError("no bundled reference instances under src/stocan/data/reference")
        return self.instances

    def commands(self, ctx, pass_dir: Path) -> list:
        cmds = []
        for path in self.instances:
            out = pass_dir / f"{path.stem}.verify.json"
            cmds.append(Command(f"verify {path.stem}",
                                ["verify", "--instance", str(path), "--seed", str(ctx.seed),
                                 "--out", str(out)],
                                [out], work=1, instance=path))
        return cmds

    def check(self, ctx, cmd: Command) -> None:
        report = _read_json(cmd.outputs[0])
        checks.check_verify(report)
        inst, objective = model.load_instance(cmd.instance)
        checks.check_oracle_order(report, oracle.exhaustive_nonadaptive_value(inst, objective))


WORKLOADS = {
    "optimize_exact": OptimizeExact,
    "simulate_campaign": SimulateCampaign,
    "verify_reference": VerifyReference,
}

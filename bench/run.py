"""Benchmark of stocan as its users run it.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload NAME --seed N --write-inputs DIR

Run from the root of a source checkout. Each command of a workload is a
fresh process (``python -m stocan.cli ...`` with ``PYTHONPATH=src``), run
one at a time with numpy's BLAS threads capped at the number of usable
cores. A run prepares the workload's inputs from ``--seed``, then
repeats whole passes of the workload's commands for ``--seconds``,
set-ups included (three set-ups run before each of the first three
passes), checks every output, and prints as its last line one JSON
object: ``correct``, ``attempted``, ``failed`` and the end-to-end
metrics (``--trace 0``) or the per-layer metrics from spans
(``--trace 1``). The line before it holds the run's metadata.
``--write-inputs`` only writes the generated instance files.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS_PER_PASS = 3  # set-ups before each of the first SETUP_PASSES untraced passes
SETUP_PASSES = 3
CHILD_TIMEOUT = 150.0  # seconds before a command is killed and counted as failed
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class Result:
    wall: float
    code: int
    rss_mb: float
    exit_wall: float  # wall-clock time at which the child was seen to exit


class Context:
    """Where a run works, and how it starts and times its child processes."""

    def __init__(self, root: Path, work: Path, seed: int):
        self.root, self.work, self.seed = root, work, seed
        self.cores = len(os.sched_getaffinity(0))
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        env.update({var: str(self.cores) for var in BLAS_VARS})
        self.env = env

    def run(self, args, log: Path) -> Result:
        """Run ``python ARGS`` in the checkout root; wall time and peak RSS of the child."""
        env = dict(self.env, BENCH_SPAWN_WALL=repr(time.time()))
        lock = threading.Lock()
        exited = False

        def kill():
            with lock:
                if not exited:
                    proc.kill()

        with open(log, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=self.root, env=env,
                                    stdout=out, stderr=subprocess.STDOUT)
            timer = threading.Timer(CHILD_TIMEOUT, kill)
            timer.start()
            try:
                # wait without reaping, so the timer can never signal a reused pid
                os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
                wall = time.perf_counter() - start
                exit_wall = time.time()
            except BaseException:
                proc.kill()
                raise
            finally:
                with lock:
                    exited = True
                timer.cancel()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
        return Result(wall, proc.returncode, usage.ru_maxrss / 1024.0, exit_wall)


def _child_args(cmd, traced: bool, spans: Path) -> list:
    if traced:
        return [str(BENCH / "child.py"), "--spans", str(spans), "cli", *cmd.args]
    return ["-m", "stocan.cli", *cmd.args]


def _git_sha(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _check_pass(workload, ctx, cmds, results, first) -> list:
    """One message per failed command of a pass.

    With ``first`` None (pass 0) every output gets the workload's full
    checks. Otherwise ``first`` holds pass 0's commands, and each command
    must reproduce its namesake's outputs byte for byte: a same-seed
    rerun of every command.
    """
    errors = []
    for j, (cmd, res) in enumerate(zip(cmds, results)):
        if res.code != 0:
            errors.append(f"{cmd.label}: exit code {res.code}")
            continue
        try:
            if first is None:
                workload.check(ctx, cmd)
            else:
                for old, new in zip(first[j].outputs, cmd.outputs):
                    checks.check_identical(old.read_bytes(), new.read_bytes(),
                                           f"{cmd.label} vs pass 0")
        except checks.CheckFailed as exc:
            errors.append(f"{cmd.label}: {exc}")
        except (KeyError, TypeError, ValueError, IndexError, OSError) as exc:
            errors.append(f"{cmd.label}: malformed output: {exc!r}")
    return errors


def run(workload_name: str, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    import numpy as np
    from tracing import load_spans, per_layer_metrics
    from workloads import WORKLOADS

    ctx = Context(ROOT, work, seed)
    workload = WORKLOADS[workload_name]()
    setup_paths = workload.prepare(ctx)

    # Set-ups are spread over the start of the run, so that they sample
    # more than one state of a shared host. A traced run reports no
    # set-up time and runs none.
    setups = []

    def set_up():
        for _ in range(SETUPS_PER_PASS):
            res = ctx.run([str(BENCH / "child.py"), "setup", *map(str, setup_paths)],
                          work / f"setup{len(setups)}.log")
            if res.code != 0:
                raise RuntimeError(f"set-up exited {res.code}; see the log in {work}")
            setups.append(res.wall)

    # Passes repeat while the next one, at the mean pass time so far,
    # still fits in ``seconds`` with the set-ups; an untraced run makes at
    # least two, so that every command is rerun with the same seed and its
    # outputs compared byte for byte. A traced run also runs each command
    # untraced, right before or after its traced twin (alternately), so
    # the tracing overhead is measured on the same minute of a shared
    # host, and the twins' outputs must be byte-identical.
    min_passes = 1 if traced else 2
    passes, plain_passes, span_files = [], [], []
    measured = 0.0
    while (len(passes) < min_passes
           or sum(setups) + measured * (len(passes) + 1) / len(passes) <= seconds):
        index = len(passes)
        if not traced and index < SETUP_PASSES:
            set_up()
        pass_dir = work / f"pass{index}"
        pass_dir.mkdir()
        cmds, results = workload.commands(ctx, pass_dir), []
        if traced:
            plain_dir = pass_dir / "plain"
            plain_dir.mkdir()
            plain_cmds, plain_results = workload.commands(ctx, plain_dir), []
        for j, cmd in enumerate(cmds):
            spans = pass_dir / f"spans{j}.json"
            plain_first = traced and (index + j) % 2 == 1
            if plain_first:
                plain_results.append(ctx.run(_child_args(plain_cmds[j], False, spans),
                                             plain_dir / f"cmd{j}.log"))
            res = ctx.run(_child_args(cmd, traced, spans), pass_dir / f"cmd{j}.log")
            results.append(res)
            if traced and spans.exists():
                span_files.append((spans, res.exit_wall))
            if traced and not plain_first:
                plain_results.append(ctx.run(_child_args(plain_cmds[j], False, spans),
                                             plain_dir / f"cmd{j}.log"))
        passes.append((cmds, results))
        measured += sum(r.wall for r in results)
        if traced:
            plain_passes.append((plain_cmds, plain_results))
            measured += sum(r.wall for r in plain_results)

    errors = []
    for index, (cmds, results) in enumerate(passes + plain_passes):
        errors += _check_pass(workload, ctx, cmds, results, passes[0][0] if index else None)
    attempted, failed = sum(len(cmds) for cmds, _ in passes + plain_passes), len(errors)

    walls = [sum(r.wall for r in results) for _, results in passes]
    rate = sum(c.work for c in passes[0][0]) / statistics.fmean(walls)
    plain_walls = [sum(r.wall for r in results) for _, results in plain_passes]
    if traced:
        docs = [load_spans(path, exit_wall) for path, exit_wall in span_files]
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit)
                   in per_layer_metrics(docs, len(passes), walls, plain_walls).items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.fmean(walls), "unit": "s"},
            "peak_rss_mb": {"value": max(r.rss_mb for _, rs in passes for r in rs), "unit": "MB"},
            "work_per_s": {"value": rate, "unit": "1/s"},
        }
    meta = {
        "workload": workload_name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "work_unit": workload.unit, f"{workload.unit}_per_s": rate,
        "passes": len(passes), "pass_walls_s": walls, "setup_walls_s": setups,
        "untraced_twin_pass_walls_s": plain_walls if traced else None,
        "cores": ctx.cores, "blas_threads": ctx.cores, "python": platform.python_version(),
        "numpy": np.__version__, "git_sha": _git_sha(ROOT), "errors": errors[:20],
    }
    return {"meta": meta, "result": {"correct": failed == 0, "attempted": attempted,
                                     "failed": failed, "metrics": metrics}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-inputs", metavar="DIR", default=None)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "stocan" / "cli.py").is_file():
        print(f"error: no stocan sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.write_inputs:
        out = Path(args.write_inputs).resolve()
        out.mkdir(parents=True, exist_ok=True)
        for path in WORKLOADS[args.workload]().prepare(Context(ROOT, out, args.seed)):
            print(path)
        return 0

    scratch = BENCH / "_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=scratch))
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except Exception:
        traceback.print_exc()
        print(f"error: the run could not complete; inputs and logs kept in {work}",
              file=sys.stderr)
        return 1
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"meta": out["meta"]}))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

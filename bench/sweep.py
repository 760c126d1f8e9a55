"""Run the benchmark over several seeds and summarize the runs.

    python3 bench/sweep.py --out DIR [--workloads a,b] [--seeds 1-10] [--trace 0|1]
    python3 bench/sweep.py --summary DIR

Every run lasts ``run_seconds`` from ``BENCHMARK.json``, so sweeps are
comparable. Each run's standard output is kept as
``DIR/<workload>.s<seed>.t<trace>.out``. The summary prints, per
workload and metric, the median and quartiles
(``statistics.quantiles(values, n=4)``) and the spread ``(q3 - q1) /
median``. It marks every end-to-end spread wider than a third of its
bound in ``BENCHMARK.json``. It also prints each workload's share of
failed operations. For traced runs it prints the median tracing
overhead (``trace.overhead``, measured in each run against untraced
twins of its commands) and checks the accounting: the time per pass
that no span, start-up, span dump or process exit covers
(``trace.outside_s``) must be at most 1% of the traced pass
(``trace.wall_s``), medians over the runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
UNCOVERED_SHARE = 0.01  # largest share of a traced pass that may fall outside every span


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in text.split(",")]


def sweep(out: Path, workloads, seeds, trace: int, seconds: int) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for workload in workloads:
        for seed in seeds:
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            (out / f"{workload}.s{seed}.t{trace}.out").write_text(done.stdout, encoding="utf-8")
            last = done.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{workload} seed {seed} trace {trace}: exit {done.returncode} {last[0][:160]}",
                  file=sys.stderr)
            if done.returncode:
                print(done.stderr[-2000:], file=sys.stderr)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(out: Path) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = defaultdict(list)  # (workload, trace) -> [(meta, result)]
    for path in sorted(out.glob("*.out")):
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        if len(lines) < 2:
            print(f"{path.name}: no result", file=sys.stderr)
            continue
        meta, result = json.loads(lines[-2])["meta"], json.loads(lines[-1])
        runs[meta["workload"], meta["trace"]].append((meta, result))

    for (workload, trace), group in sorted(runs.items()):
        attempted = sum(r["attempted"] for _, r in group)
        failed = sum(r["failed"] for _, r in group)
        shares = sorted({r["failed"] / r["attempted"] for _, r in group})
        print(f"\n{workload} trace={trace}: {len(group)} runs, seeds "
              f"{sorted(m['seed'] for m, _ in group)}, failed {failed}/{attempted} "
              f"(per-run shares {shares}), all correct: {all(r['correct'] for _, r in group)}")
        print(f"  {'metric':50s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
        for name in group[0][1]["metrics"]:
            values = [r["metrics"][name]["value"] for _, r in group]
            q1, med, q3 = _quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            flag = ""
            if name in bounds:
                flag = "ok" if spread < bounds[name] / 3 else f"WIDE (bound {bounds[name]})"
            print(f"  {name:50s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {flag}")
        if trace == 1:
            def median(name):
                return statistics.median(r["metrics"][name]["value"] for _, r in group)

            print(f"  tracing overhead: {100 * median('trace.overhead'):+.1f}% "
                  f"against the untraced twins")
            uncovered, wall = median("trace.outside_s"), median("trace.wall_s")
            verdict = "ok" if uncovered <= UNCOVERED_SHARE * wall else "FAILS"
            print(f"  accounting: {uncovered:.4g} s per pass outside every span, start-up, "
                  f"dump and exit = {100 * uncovered / wall:.2f}% of {wall:.4g} s "
                  f"(at most {100 * UNCOVERED_SHARE:g}%): {verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, help="directory for run outputs")
    parser.add_argument("--summary", type=Path, help="only summarize this directory")
    parser.add_argument("--workloads", default=None, help="comma list (default: all)")
    parser.add_argument("--seeds", default="1-10", help="range lo-hi or comma list")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.summary:
        summary(args.summary)
        return 0
    if not args.out:
        parser.error("give --out DIR to run, or --summary DIR")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    sweep(args.out, workloads, _seeds(args.seeds), args.trace, spec["run_seconds"])
    summary(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

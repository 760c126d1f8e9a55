"""Command-line harness.

Subcommands::

    stocan gen       --items I --states S --seed N --out PATH [--family F] [--elements E]
    stocan optimize  --instance PATH --seed N [--rounds T] [--marginals M] [--samples K] [--out PATH]
    stocan simulate  (optimize's flags) [--runs N] [--order O] [--solution PATH] [--records PATH]
    stocan verify    (optimize's flags) [--runs N] [--order O] [--order-checks K]

``gen`` writes an instance file; the others print their JSON report, or
write it to ``--out`` and print a summary.

Exit codes: 0 success, 1 verification-check failure, 2 input or
validation error, 3 enumeration-guard (capacity) error or out of memory.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields

import numpy as np

from .errors import CapacityError, StocanError
from .harness import ExperimentConfig, generate_instance, run_optimize, run_simulate, run_verify, write_report
from .model import FAMILIES

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_CAPACITY = 3


def _parse_order(text: str):
    if text in ("identity", "random"):
        return text
    if text.startswith("perm:"):
        try:
            return [int(v) for v in text[len("perm:"):].split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad permutation spec {text!r}")
    raise argparse.ArgumentTypeError(
        f"order must be 'identity', 'random' or 'perm:<comma-list>' (got {text!r})"
    )


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--instance", required=True, help="instance JSON file")
    p.add_argument("--seed", required=True, type=int, help="master seed (mandatory)")
    p.add_argument("--rounds", type=int, default=ExperimentConfig.rounds,
                   help="continuous-greedy rounds T")
    p.add_argument("--samples", type=int, default=ExperimentConfig.samples,
                   help="Monte Carlo samples for sampled marginals / H estimates")
    p.add_argument("--marginals", choices=("exact", "sampled"), default=ExperimentConfig.marginals)
    p.add_argument("--out", default=None, help="write the JSON report here")


def _campaign_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--runs", type=int, default=ExperimentConfig.runs,
                   help="simulation runs per policy")
    p.add_argument("--order", type=_parse_order, default=ExperimentConfig.order,
                   help="arrival order: identity | random | perm:<comma-list> (0-based)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stocan",
        description="Budgeted stochastic probing: optimize, simulate, and verify guarantees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random valid instance file")
    gen.add_argument("--items", required=True, type=int)
    gen.add_argument("--states", required=True, type=int)
    gen.add_argument("--family", choices=FAMILIES, default="separable_concave")
    gen.add_argument("--elements", type=int, default=6,
                     help="universe size for nested_coverage objectives")
    gen.add_argument("--seed", required=True, type=int)
    gen.add_argument("--out", required=True)

    opt = sub.add_parser("optimize", help="run continuous greedy and report y with H values")
    _common_flags(opt)

    sim = sub.add_parser("simulate", help="simulate all policies on one instance")
    _common_flags(sim)
    _campaign_flags(sim)
    sim.add_argument("--records", default=None, help="also write one JSON run record per line")
    sim.add_argument("--solution", default=None, help="reuse y from a prior optimize report")

    ver = sub.add_parser("verify", help="run the full guarantee battery")
    _common_flags(ver)
    _campaign_flags(ver)
    ver.add_argument("--order-checks", type=int, default=ExperimentConfig.order_checks,
                     help="arrival orders the robustness check evaluates exactly: every "
                          "permutation if there are at most this many, else this many random ones")

    return parser


def _config(args: argparse.Namespace) -> ExperimentConfig:
    return ExperimentConfig(**{f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
                               if hasattr(args, f.name)})


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # a float overflow becomes inf, and inf * 0 or inf - inf becomes NaN, which
    # validation or the report writer rejects by name; numpy's warning would add
    # lines to the one-line error on stderr
    with np.errstate(over="ignore", invalid="ignore"):
        return _run(args)


def _run(args: argparse.Namespace) -> int:
    try:
        if args.command == "gen":
            write_report(generate_instance(args.items, args.states, args.family, args.seed,
                                           args.elements), args.out)
            print(f"wrote {args.out}")
            return EXIT_OK
        cfg = _config(args)
        if args.command == "optimize":
            report = run_optimize(cfg)
        elif args.command == "simulate":
            report = run_simulate(cfg)
        else:
            report = run_verify(cfg)
        body = write_report(report, cfg.out)
        if cfg.out:
            _summary(report)
            print(f"report written to {cfg.out}")
        else:
            print(body)
        if args.command == "verify" and report["status"] != "pass":
            return EXIT_CHECK_FAILED
        return EXIT_OK
    except (CapacityError, MemoryError) as exc:  # a run too large for memory is not a failed check
        print(f"capacity error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_CAPACITY
    except (StocanError, OSError) as exc:  # invalid input, or a path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def _summary(report: dict) -> None:
    if "checks" in report:
        for check in report["checks"]:
            name = check["name"]
            status = check["status"].upper()
            if check["status"] == "skipped":
                print(f"  {name}: SKIPPED ({check['skip_reason']})")
            else:
                print(f"  {name}: {status} (lhs={check['lhs']:.6g}, rhs={check['rhs']:.6g}, "
                      f"margin={check['margin']:.3g})")
    if "policies" in report:
        for kind, stats in report["policies"].items():
            err = stats.get("stderr")
            err_text = f" +/- {err:.4g}" if err is not None else ""
            print(f"  {kind}: mean={stats['mean']:.6g}{err_text} over {stats['runs']} runs")


if __name__ == "__main__":
    sys.exit(main())

"""Child processes of the benchmark, started with ``PYTHONPATH=src``.

    python bench/child.py [--spans PATH] cli ARGS...          # stocan's CLI, for traced runs
    python bench/child.py [--spans PATH] setup INSTANCE...    # one set-up of a workload

With ``--spans`` the package's layer functions are wrapped before the
entry point runs, and the spans are written to PATH when it returns.
The parent passes its wall-clock time at spawn in ``BENCH_SPAWN_WALL``,
so the spans file also records how long the process took to start.
"""

from __future__ import annotations

import os
import sys
import time

from stocan import cli, extension, model
from stocan.errors import CapacityError

from tracing import Tracer


def setup(paths) -> int:
    """Load and validate each instance and build its exact evaluator if it fits."""
    for path in paths:
        _, objective = model.load_instance(path)
        try:
            extension.FactoredExtension(objective)
        except CapacityError:
            pass
    return 0


def main(argv) -> int:
    tracer = None
    spans = None
    if argv[:1] == ["--spans"]:
        spans, argv = argv[1], argv[2:]
        tracer = Tracer()
        tracer.install()
    command, args = argv[0], argv[1:]
    entry_wall = time.time()
    if command == "cli":
        code = cli.main(args)
    elif command == "setup":
        code = setup(args)
    else:
        raise SystemExit(f"unknown child command {command!r}")
    if tracer is not None:
        tracer.dump(spans, float(os.environ["BENCH_SPAWN_WALL"]), entry_wall)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Spans around the program's layer boundaries, and per-layer metrics from them.

A :class:`Tracer` replaces public functions of the ``stocan`` modules with
wrappers that record one span per call: name, start, end, the index of
the enclosing span, and a work count (rows, runs, records or rounds)
where the call has one. Each wrapper is installed at the name its
callers resolve at call time: ``harness`` imported ``continuous_greedy``
by name, ``cli`` imported the ``run_*`` commands and ``write_report`` by
name, and ``extension`` and ``policies`` imported
``enumerate_state_vectors`` and ``sample_states`` by name. Spans stay in
memory and are written out once, when the traced process ends, followed
by how long writing them took and the wall-clock time it ended; the
parent adds the time it saw the process exit.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans. The layer is
the first component of the span name and matches a module of the
package (``cli``, ``harness``, ``optimizer``, ``extension``, ``model``,
``policies``, ``oracle``).
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict

LAYERS = ("cli", "harness", "optimizer", "extension", "model", "policies", "oracle")


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    """Records spans for the wrappers it installs; one per traced process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, units]
        self._stack = []

    def wrap(self, name, fn, units=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if units is not None:
                span[4] = int(units(args, kwargs, result))
            return result

        return traced

    def patch(self, owner, attr, name, units=None):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), units))

    def install(self):
        """Wrap the package's public layer functions at their call sites."""
        from stocan import cli, extension, harness, model, optimizer, oracle, policies

        self.patch(cli, "main", "cli.main")
        for command in ("run_optimize", "run_simulate", "run_verify", "write_report"):
            self.patch(cli, command, f"harness.{command}")
        self.patch(harness, "continuous_greedy", "optimizer.continuous_greedy",
                   lambda a, k, r: _arg(a, k, 2, "config").rounds)
        self.patch(optimizer, "density_greedy", "optimizer.density_greedy")
        ext = extension.FactoredExtension
        self.patch(ext, "__init__", "extension.build")
        self.patch(ext, "H", "extension.H")
        self.patch(ext, "marginals", "extension.marginals")
        for owner in (extension, model):
            self.patch(owner, "enumerate_state_vectors", "model.enumerate_state_vectors")
        for cls in (model.SeparableConcave, model.NestedCoverage, model.ConcaveOverModular):
            self.patch(cls, "value_many", f"model.value_many.{cls.family}",
                       lambda a, k, r: len(_arg(a, k, 1, "u")))
        self.patch(policies, "sample_states", "model.sample_states",
                   lambda a, k, r: _arg(a, k, 2, "n"))
        self.patch(model, "instance_from_dict", "model.load_instance")
        for fn in ("simulate_policy", "scalar_runs"):
            self.patch(policies, fn, f"policies.{fn}", lambda a, k, r: _arg(a, k, 4, "runs"))
        self.patch(policies, "acceptance_probabilities", "policies.acceptance_probabilities")
        self.patch(policies, "exact_policy_value", "policies.exact_policy_value")
        self.patch(policies, "write_records", "policies.write_records", lambda a, k, r: r)
        self.patch(oracle, "optimal_policy_value", "oracle.optimal_policy_value")

    def dump(self, path, spawn_wall: float, entry_wall: float) -> None:
        """Write the spans, then on a second line when and how long writing them took."""
        start = time.perf_counter()
        doc = {"startup_s": entry_wall - spawn_wall, "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
            fh.flush()
            end = {"dump_s": time.perf_counter() - start, "dump_end_wall": time.time()}
            fh.write(json.dumps(end) + "\n")


def load_spans(path, exit_wall: float) -> dict:
    """One traced process's spans file, with ``exit_s``: from the dump's end to the exit.

    ``exit_wall`` is the wall-clock time at which the parent saw the
    process exit.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.loads(fh.readline())
        doc.update(json.loads(fh.readline()))
    doc["exit_s"] = exit_wall - doc["dump_end_wall"]
    return doc


class Aggregate:
    """Totals over the span files of one traced run."""

    def __init__(self, docs):
        self.count = defaultdict(int)
        self.total = defaultdict(float)
        self.units = defaultdict(int)
        self.self_time = defaultdict(float)
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.startups = []
        self.dump_total = self.exit_total = self.root_total = 0.0
        for doc in docs:
            self.startups.append(doc["startup_s"])
            self.dump_total += doc["dump_s"]
            self.exit_total += doc["exit_s"]
            spans = doc["spans"]
            child = [0.0] * len(spans)
            for name, start, end, parent, _ in spans:
                if parent >= 0:
                    child[parent] += end - start
                else:
                    self.root_total += end - start
            for (name, start, end, _, units), inner in zip(spans, child):
                own = end - start - inner
                self.count[name] += 1
                self.total[name] += end - start
                self.units[name] += units
                self.self_time[name] += own
                self.layer_self[name.split(".", 1)[0]] += own

    def mean(self, name, scale):
        n = self.count[name]
        return self.total[name] / n * scale if n else 0.0

    def per_unit(self, name, scale):
        n = self.units[name]
        return self.total[name] / n * scale if n else 0.0


def _campaigns(a: Aggregate) -> int:
    return sum(a.count[f"policies.{fn}"]
               for fn in ("simulate_policy", "scalar_runs", "exact_policy_value"))


# name -> (unit, value from (aggregate, passes)); the order is BENCHMARK.json's
PER_LAYER = {
    "extension.marginals_ms": ("ms", lambda a, p: a.mean("extension.marginals", 1e3)),
    "extension.marginals_calls": ("count", lambda a, p: a.count["extension.marginals"] / p),
    "extension.build_ms": ("ms", lambda a, p: a.mean("extension.build", 1e3)),
    "extension.H_ms": ("ms", lambda a, p: a.mean("extension.H", 1e3)),
    "model.enumerate_state_vectors_ms": (
        "ms", lambda a, p: a.mean("model.enumerate_state_vectors", 1e3)),
    "optimizer.density_greedy_us": ("us", lambda a, p: a.mean("optimizer.density_greedy", 1e6)),
    "optimizer.density_greedy_calls": (
        "count", lambda a, p: a.count["optimizer.density_greedy"] / p),
    "optimizer.greedy_round_self_ms": (
        "ms", lambda a, p: (a.self_time["optimizer.continuous_greedy"]
                            / a.units["optimizer.continuous_greedy"] * 1e3)
        if a.units["optimizer.continuous_greedy"] else 0.0),
    "policies.simulate_policy_ns_per_run": (
        "ns", lambda a, p: a.per_unit("policies.simulate_policy", 1e9)),
    "policies.campaign_runs": ("count", lambda a, p: a.units["policies.simulate_policy"] / p),
    "policies.scalar_run_us": ("us", lambda a, p: a.per_unit("policies.scalar_runs", 1e6)),
    "policies.acceptance_probabilities_calls": (
        "count", lambda a, p: a.count["policies.acceptance_probabilities"] / p),
    "policies.acceptance_probabilities_per_campaign": (
        "ratio", lambda a, p: a.count["policies.acceptance_probabilities"] / _campaigns(a)
        if _campaigns(a) else 0.0),
    "policies.write_records_ns_per_record": (
        "ns", lambda a, p: a.per_unit("policies.write_records", 1e9)),
    "policies.exact_policy_value_ms": (
        "ms", lambda a, p: a.mean("policies.exact_policy_value", 1e3)),
    "oracle.optimal_policy_value_ms": (
        "ms", lambda a, p: a.mean("oracle.optimal_policy_value", 1e3)),
    "model.value_many.separable_concave.ns_per_row": (
        "ns", lambda a, p: a.per_unit("model.value_many.separable_concave", 1e9)),
    "model.value_many.nested_coverage.ns_per_row": (
        "ns", lambda a, p: a.per_unit("model.value_many.nested_coverage", 1e9)),
    "model.value_many.concave_over_modular.ns_per_row": (
        "ns", lambda a, p: a.per_unit("model.value_many.concave_over_modular", 1e9)),
    "model.sample_states_ns_per_row": ("ns", lambda a, p: a.per_unit("model.sample_states", 1e9)),
    "model.load_instance_ms": ("ms", lambda a, p: a.mean("model.load_instance", 1e3)),
    "harness.write_report_ms": ("ms", lambda a, p: a.mean("harness.write_report", 1e3)),
    "cli.startup_ms": ("ms", lambda a, p: statistics.fmean(a.startups) * 1e3
                       if a.startups else 0.0),
    **{f"{layer}.self_s": ("s", lambda a, p, layer=layer: a.layer_self[layer] / p)
       for layer in LAYERS},
}


def per_layer_metrics(docs, passes: int, pass_walls, plain_walls) -> dict:
    """Every per-layer metric of a traced run, as ``{name: (value, unit)}``.

    ``pass_walls`` are the traced passes' times and ``plain_walls`` those
    of their untraced twins. Counts and self times are per pass.
    ``trace.dump_s`` is the time spent writing spans, timed in the child;
    ``trace.exit_s`` runs from the end of that write to the parent seeing
    the process exit. ``trace.outside_s`` is what no span, start-up, dump
    or exit covers: code outside the wrapped functions, such as work the
    CLI does before or after ``cli.main``.
    """
    agg = Aggregate(docs)
    out = {name: (fn(agg, passes), unit) for name, (unit, fn) in PER_LAYER.items()}
    wall = sum(pass_walls)
    covered = sum(agg.startups) + agg.root_total + agg.dump_total + agg.exit_total
    out["trace.wall_s"] = (statistics.median(pass_walls), "s")
    out["trace.overhead"] = (wall / sum(plain_walls) - 1, "ratio")
    out["trace.outside_s"] = ((wall - covered) / passes, "s")
    out["trace.dump_s"] = (agg.dump_total / passes, "s")
    out["trace.exit_s"] = (agg.exit_total / passes, "s")
    return out

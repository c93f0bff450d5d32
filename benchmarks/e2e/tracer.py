"""Span tracer for the end-to-end benchmark, installed from outside ``src/``.

The traced round wraps the public entry points of each layer (class
attributes, module functions, generator methods and scheduled event
callbacks) with timing closures.  A span is ``(id, parent id, name id,
start ns, end ns, units)``; the parent is whatever span was open on the
in-memory stack when this one started.  Spans stay in memory until the
round ends.  A layer's self time is its spans' duration minus the part
their direct children cover, so the layers' self times plus the
unattributed remainder sum to the round's wall time.
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
from time import perf_counter_ns

import numpy as np

LAYERS = (
    "traffic",
    "simulation",
    "routing",
    "microservices",
    "telemetry",
    "tracing",
    "topology",
    "bifrost",
    "obs",
    "exec",
    "fenrir",
    "fleet",
)


def _len_arg(index):
    return lambda args, result: len(args[index])


def _result(args, result):
    return result or 0


#: (module, owner class or None, attribute, span name, how, units).
#: ``how`` is "call" (plain callable), "iter" (returns an iterator; one
#: span per ``next``), "classmethod", or "push" (wrap the callback
#: argument so the event runs under a ``<layer>.event`` span).  ``units``
#: maps (args, result) to the work items one call carried (default 1).
WRAPS = (
    ("repro.traffic.batch", "BatchWorkloadGenerator", "poisson",
     "traffic.generate", "iter", lambda args, item: len(item)),
    ("repro.traffic.workload", "WorkloadGenerator", "poisson",
     "traffic.generate", "iter", None),
    ("repro.simulation.batch", None, "run_batches",
     "simulation.kernel", "call", None),
    ("repro.simulation.engine", "SimulationEngine", "run_until",
     "simulation.event_loop", "call", _result),
    ("repro.simulation.engine", "EventQueue", "push", "", "push", None),
    ("repro.routing.assignment", "StickyAssigner", "assign",
     "routing.assign", "call", None),
    ("repro.routing.assignment", "StickyAssigner", "assign_many",
     "routing.assign_many", "call", _len_arg(1)),
    ("repro.routing.proxy", "VersionRouter", "route",
     "routing.route", "call", None),
    ("repro.microservices.runtime", "Runtime", "execute",
     "microservices.execute", "call", None),
    ("repro.telemetry.store", "MetricStore", "record",
     "telemetry.record", "call", None),
    ("repro.telemetry.store", "MetricStore", "extend_columns",
     "telemetry.extend", "call", _len_arg(4)),
    ("repro.telemetry.store", "MetricStore", "aggregate",
     "telemetry.aggregate", "call", None),
    ("repro.telemetry.store", "MetricStore", "values_in_window",
     "telemetry.window", "call", None),
    ("repro.telemetry.store", "MetricStore", "snapshot",
     "telemetry.snapshot", "call", None),
    ("repro.tracing.collector", "TraceCollector", "record",
     "tracing.collect", "call", None),
    ("repro.tracing.collector", "TraceCollector", "record_all",
     "tracing.collect", "call", _len_arg(1)),
    ("repro.tracing.collector", "TraceCollector", "record_trace",
     "tracing.collect", "call", _len_arg(2)),
    ("repro.topology.streaming", "StreamingGraphBuilder", "on_trace",
     "topology.fold", "call", None),
    ("repro.topology.streaming", "LiveHealthMonitor", "publish",
     "topology.publish", "call", None),
    ("repro.bifrost.checks", "CheckEvaluator", "evaluate",
     "bifrost.check_eval", "call", None),
    ("repro.bifrost.journal", "Journal", "append",
     "bifrost.journal_append", "call", None),
    ("repro.bifrost.recovery", "RecoveryManager", "recover",
     "bifrost.recover", "call", None),
    ("repro.obs.observer", "Observer", "emit", "obs.emit", "call", None),
    ("repro.obs.provenance", "ProvenanceTracker", "record",
     "obs.provenance_live", "call", None),
    ("repro.obs.provenance", None, "build_provenance",
     "obs.provenance_fold", "call", None),
    ("repro.obs.timeline", None, "reconstruct_timelines",
     "obs.timeline_fold", "call", None),
    ("repro.exec.sim", "SimBackend", "execute", "exec.record", "call", None),
    ("repro.exec.recording", "Recording", "save", "exec.save", "call", None),
    ("repro.exec.recording", "Recording", "load",
     "exec.load", "classmethod", None),
    ("repro.exec.replay", "ReplayBackend", "execute",
     "exec.replay", "call", None),
    ("repro.exec.replay", None, "diff_replay", "exec.diff", "call", None),
    ("repro.fenrir.base", "BudgetedEvaluator", "evaluate",
     "fenrir.evaluate", "call", None),
    ("repro.fenrir.base", "BudgetedEvaluator", "evaluate_population",
     "fenrir.evaluate", "call", None),
    ("repro.fenrir.genetic", "GeneticAlgorithm", "optimize",
     "fenrir.search", "call", None),
    ("repro.fenrir.reevaluation", None, "reevaluate",
     "fenrir.reevaluate", "call", None),
    ("repro.fenrir.reevaluation", None, "build_reevaluation_from_fleet",
     "fenrir.replan_from_fleet", "call", None),
    ("repro.fleet.orchestrator", "FleetOrchestrator", "__init__",
     "fleet.build", "call", None),
    ("repro.fleet.orchestrator", "FleetOrchestrator", "advance_slot",
     "fleet.slot", "call", None),
    ("repro.fleet.admission", "AdmissionController", "decide",
     "fleet.admission", "call", None),
    ("repro.fleet.traffic", "SlotTrafficFeed", "feed",
     "fleet.feed", "call", _result),
    ("repro.fleet.recovery", None, "recover_fleet",
     "fleet.recover", "call", None),
)


class Tracer:
    """Records spans of one traced round and aggregates them by name."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple] = []
        self._stack: list[int] = [-1]
        self._next_id = itertools.count().__next__
        self._patched: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn, units=None):
        """Time every call of *fn* as one span named *name*."""
        nid = self.name_id(name)
        next_id, stack, record = self._next_id, self._stack, self.spans.append
        push, pop, now = stack.append, stack.pop, perf_counter_ns

        if units is None:

            def traced(*args, **kwargs):
                sid = next_id()
                parent = stack[-1]
                push(sid)
                start = now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = now()
                    pop()
                    record((sid, parent, nid, start, end, 1))

        else:

            def traced(*args, **kwargs):
                sid = next_id()
                parent = stack[-1]
                push(sid)
                result = None
                start = now()
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    end = now()
                    pop()
                    record((sid, parent, nid, start, end, units(args, result)))

        return traced

    def wrap_iterator(self, name: str, fn, units=None):
        """Time each ``next()`` of the iterator *fn* returns as one span."""
        nid = self.name_id(name)
        next_id, stack, record = self._next_id, self._stack, self.spans.append
        now = perf_counter_ns

        def traced(*args, **kwargs):
            inner = iter(fn(*args, **kwargs))
            while True:
                sid = next_id()
                parent = stack[-1]
                stack.append(sid)
                start = now()
                try:
                    item = next(inner)
                except StopIteration:
                    stack.pop()
                    record((sid, parent, nid, start, now(), 0))
                    return
                end = now()
                stack.pop()
                record(
                    (sid, parent, nid, start, end,
                     1 if units is None else units(args, item))
                )
                yield item

        return traced

    def wrap_push(self, fn):
        """Run every scheduled callback under a ``<layer>.event`` span.

        The layer is the package that defined the callback, so engine
        ticks, fault activations and alert ticks are charged to their
        owner and not to the event loop that merely pops them.
        """
        cache: dict[str, str] = {}

        def traced(queue, time, callback, *rest, **kwargs):
            module = getattr(callback, "__module__", None) or ""
            name = cache.get(module)
            if name is None:
                parts = module.split(".")
                layer = parts[1] if len(parts) > 1 and parts[0] == "repro" else ""
                name = cache[module] = (
                    f"{layer}.event" if layer in LAYERS else "simulation.event"
                )
            return fn(queue, time, self.wrap(name, callback), *rest, **kwargs)

        return traced

    def install(self) -> None:
        """Patch every entry point in :data:`WRAPS` (and each module
        namespace a wrapped function was imported into)."""
        for module_name, owner, attr, name, how, units in WRAPS:
            module = importlib.import_module(module_name)
            target = module if owner is None else getattr(module, owner)
            original = target.__dict__[attr]
            if how == "iter":
                replacement = self.wrap_iterator(name, original, units)
            elif how == "push":
                replacement = self.wrap_push(original)
            elif how == "classmethod":
                replacement = classmethod(
                    self.wrap(name, original.__func__, units)
                )
            else:
                replacement = self.wrap(name, original, units)
            self._patch(target, attr, original, replacement)
            if owner is None:
                for other in list(sys.modules.values()):
                    if (
                        other is not module
                        and getattr(other, "__name__", "").startswith("repro")
                        and other.__dict__.get(attr) is original
                    ):
                        self._patch(other, attr, original, replacement)

    def _patch(self, target, attr, original, replacement) -> None:
        setattr(target, attr, replacement)
        self._patched.append((target, attr, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    # -- aggregation -------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, units, total ns and self ns."""
        if not self.spans:
            return {}
        table = np.array(self.spans, dtype=np.int64)
        sid, parent, nid = table[:, 0], table[:, 1], table[:, 2]
        duration = (table[:, 4] - table[:, 3]).astype(np.float64)
        count = int(sid.max()) + 1
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=count
        )
        self_ns = duration - covered[sid]
        names = len(self.names)
        calls = np.bincount(nid, minlength=names)
        units = np.bincount(nid, weights=table[:, 5], minlength=names)
        total = np.bincount(nid, weights=duration, minlength=names)
        own = np.bincount(nid, weights=self_ns, minlength=names)
        return {
            name: {
                "calls": int(calls[i]),
                "units": int(units[i]),
                "total_ns": float(total[i]),
                "self_ns": float(own[i]),
            }
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def write_jsonl(self, path: str, run_id: str) -> int:
        """Write the spans (start order) as one JSON object per line."""
        names = self.names
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"run": run_id, "spans": len(self.spans)}) + "\n"
            )
            for sid, parent, nid, start, end, units in sorted(self.spans):
                name = names[nid]
                handle.write(
                    f'{{"id":{sid},"parent":{parent if parent >= 0 else "null"},'
                    f'"name":"{name}","layer":"{name.split(".", 1)[0]}",'
                    f'"start_ns":{start},"end_ns":{end},"units":{units}}}\n'
                )
        return len(self.spans)

"""Streaming topology pipeline: live graphs, diffs, and health scores.

Chapter 5's health assessment is framed in the paper as *analysis of
running experiments*, yet the batch pipeline (collect → rebuild → diff →
rank) only answers after the fact.  This module turns it into a
streaming observability layer:

* :class:`StreamingGraphBuilder` subscribes to a
  :class:`~repro.tracing.collector.TraceCollector` and folds every
  completed trace into an :class:`InteractionGraph` incrementally.  It
  consumes the same :func:`~repro.topology.builder.trace_observations`
  extractor as the batch builder, so its cumulative graph is identical
  to ``build_interaction_graph`` over the same traces *by construction*
  (see ``docs/STREAMING_HEALTH.md`` for the argument, and the property
  test that pins it).
* :class:`GraphWindowRing` keeps a bounded ring of per-window graphs on
  the simulation clock plus an incrementally maintained merge, giving
  the diff a recency view instead of an ever-growing cumulative one.
* :class:`LiveTopologyDiff` pins a baseline graph, precomputes its diff
  indexes once, and refreshes a :class:`TopologyDiff` lazily (guarded by
  the builder's version counter) through the same
  :func:`~repro.topology.diff.diff_from_indexes` core that
  ``diff_graphs`` delegates to.
* :class:`HealthScorer` / :class:`LiveHealthMonitor` derive per-service
  and overall health in [0, 1] from error-rate deltas, response-time
  ratios, and the ranking heuristics' suspicion scores, publishing them
  through :mod:`repro.telemetry` as ``health.*`` metrics that Bifrost
  ``health`` checks gate on.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import reduce
from math import isclose
from dataclasses import dataclass, field
from operator import add
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import ValidationError
from repro.topology.builder import Observation, trace_observations
from repro.topology.diff import (
    TopologyDiff,
    diff_from_indexes,
    edges_by_service_endpoint,
    versions_by_service_endpoint,
)
from repro.topology.graph import InteractionGraph, NodeKey
from repro.topology.heuristics.base import normalized
from repro.topology.heuristics.hybrid import HybridHeuristic
from repro.obs.events import TOPOLOGY_HEALTH
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.tracing.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.store import MetricStore
    from repro.tracing.collector import TraceCollector

#: Pseudo-version under which live health metrics are recorded.  Health
#: describes the *current mixture* of versions serving traffic, not one
#: deployment, so it gets its own version label in the metric store.
HEALTH_VERSION = "live"

#: Metric name health checks read (per service, and for the overall
#: score under :data:`OVERALL_SERVICE`).
HEALTH_METRIC = "health.score"

#: Pseudo-service carrying the application-wide (minimum) health score.
OVERALL_SERVICE = "topology"


# ---------------------------------------------------------------------------
# graph helpers
# ---------------------------------------------------------------------------


def merge_graph_into(target: InteractionGraph, source: InteractionGraph) -> None:
    """Fold *source*'s nodes, edges, and aggregate stats into *target*."""
    for key in source.nodes:
        stats = source.node_stats(key)
        into = target.add_node(key)
        into.calls += stats.calls
        into.errors += stats.errors
        into.total_response_ms += stats.total_response_ms
    for caller, callee, stats in source.edges():
        into = target.add_edge(caller, callee)
        into.calls += stats.calls
        into.errors += stats.errors
        into.total_response_ms += stats.total_response_ms


def add_columns(graph: InteractionGraph, keys: list, hops) -> None:
    """Fold *hops* — ``(callers, callees, durations, errors)`` columns;
    callers and callees index *keys*, -1 is no caller — into *graph* as
    ``observe_call`` one hop at a time does: the same records in the same
    order, each total grown by the same ``operator.add`` sequence (not
    ``sum``, which compensates from Python 3.12, nor pairwise ``np.sum``)."""
    callers, callees, durations, errors = hops
    width = len(keys)
    pairs = (callers + 1) * width + callees
    nodes, edges = {}, {}
    for pair in dict.fromkeys(pairs.tolist()):
        caller, callee = divmod(pair, width)
        nodes[callee], edges[pair] = graph.records(
            keys[caller - 1] if caller else None, keys[callee]
        )
    for groups, records in ((callees, nodes), (pairs, edges)):
        for group, stats in records.items():
            if stats is not None:
                taken = groups == group
                stats.calls += int(np.count_nonzero(taken))
                stats.errors += int(np.count_nonzero(errors & taken))
                stats.total_response_ms = reduce(
                    add, durations[taken].tolist(), stats.total_response_ms
                )


def _stats_equal(sa, sb, rel_tol: float) -> bool:
    return (
        sa.calls == sb.calls
        and sa.errors == sb.errors
        and isclose(
            sa.total_response_ms,
            sb.total_response_ms,
            rel_tol=rel_tol,
            abs_tol=1e-9 if rel_tol else 0.0,
        )
    )


def graphs_equal(
    a: InteractionGraph, b: InteractionGraph, rel_tol: float = 1e-9
) -> bool:
    """Structural + statistical equality, independent of insertion order.

    Compares node sets, edge sets, and every node's / edge's call count,
    error count, and total response time — the full observable state the
    heuristics consume.  Call and error counts must match exactly;
    response-time totals are compared with *rel_tol* because streaming
    and batch builders accumulate the same float terms in different
    orders, and float addition is not associative.  ``rel_tol=0`` is
    exact: the 1e-9 ms absolute slack applies only with a tolerance.
    """
    if set(a.nodes) != set(b.nodes):
        return False
    for key in a.nodes:
        if not _stats_equal(a.node_stats(key), b.node_stats(key), rel_tol):
            return False
    edges_a = {(c, e): s for c, e, s in a.edges()}
    edges_b = {(c, e): s for c, e, s in b.edges()}
    if set(edges_a) != set(edges_b):
        return False
    for key, sa in edges_a.items():
        if not _stats_equal(sa, edges_b[key], rel_tol):
            return False
    return True


# ---------------------------------------------------------------------------
# windowed snapshots
# ---------------------------------------------------------------------------


class GraphWindowRing:
    """A bounded ring of per-window interaction graphs on the sim clock.

    Observations land in the window ``floor(start / window_seconds)``;
    when more than *capacity* windows are live the oldest expires.  The
    merge of all live windows is maintained incrementally and only
    rebuilt after an expiry (stats cannot be subtracted).  Observations
    for already-expired windows are dropped and counted.
    """

    def __init__(self, window_seconds: float, capacity: int = 8) -> None:
        if window_seconds <= 0:
            raise ValidationError("window_seconds must be positive")
        if capacity <= 0:
            raise ValidationError("window capacity must be positive")
        self.window_seconds = window_seconds
        self.capacity = capacity
        self._windows: OrderedDict[int, InteractionGraph] = OrderedDict()
        self._merged = InteractionGraph("windows-merged")
        self._merged_dirty = False
        self._expired_through = float("-inf")
        self.late_observations_dropped = 0
        self.expired_windows = 0

    def index_of(self, timestamp: float) -> int:
        """The window index a timestamp falls into."""
        return int(timestamp // self.window_seconds)

    def observe(self, obs: Observation) -> None:
        """Fold one observation into its window (and the merge)."""
        caller, callee, duration_ms, error, start = obs
        idx = self.index_of(start)
        if idx <= self._expired_through:
            self.late_observations_dropped += 1
            return
        window = self._windows.get(idx)
        if window is None:
            window = InteractionGraph(f"window-{idx}")
            self._windows[idx] = window
        window.observe_call(caller, callee, duration_ms, error)
        if not self._merged_dirty:
            self._merged.observe_call(caller, callee, duration_ms, error)
        while len(self._windows) > self.capacity:
            self._expire(min(self._windows))

    def observe_columns(self, keys: list, hops, starts) -> None:
        """Fold *hops* (see :func:`add_columns`) starting at *starts* as
        :meth:`observe` one at a time does: a window creation that expires
        a window is a cut.  ``np.floor_divide`` is Python's float ``//``
        (numpy's ``npy_divmod`` is CPython's algorithm)."""
        indexes = np.floor_divide(starts, self.window_seconds).astype(np.int64)
        lo = 0
        while lo < len(indexes):
            rest = indexes[lo:]
            late = rest <= self._expired_through
            cut = len(rest)
            for at in np.flatnonzero(~(late | np.isin(rest, list(self._windows)))).tolist():
                idx = int(rest[at])
                if idx not in self._windows:
                    self._windows[idx] = InteractionGraph(f"window-{idx}")
                    if len(self._windows) > self.capacity:
                        cut = at + 1
                        break
            self.late_observations_dropped += int(np.count_nonzero(late[:cut]))
            kept = np.flatnonzero(~late[:cut]) + lo
            for idx in dict.fromkeys(indexes[kept].tolist()):
                at = kept[indexes[kept] == idx]
                add_columns(self._windows[idx], keys, [column[at] for column in hops])
            if len(kept) and not self._merged_dirty:
                add_columns(self._merged, keys, [column[kept] for column in hops])
            if len(self._windows) > self.capacity:
                self._expire(min(self._windows))
            lo += cut

    def _expire(self, idx: int) -> None:
        del self._windows[idx]
        self._expired_through = max(self._expired_through, idx)
        self.expired_windows += 1
        self._merged_dirty = True

    def window(self, idx: int) -> InteractionGraph | None:
        """The graph of one live window (None if absent or expired)."""
        return self._windows.get(idx)

    def merged(self) -> InteractionGraph:
        """The merge of all live windows (rebuilt only after expiry)."""
        if self._merged_dirty:
            self._merged = InteractionGraph("windows-merged")
            for idx in sorted(self._windows):
                merge_graph_into(self._merged, self._windows[idx])
            self._merged_dirty = False
        return self._merged


# ---------------------------------------------------------------------------
# streaming builder
# ---------------------------------------------------------------------------


class StreamingGraphBuilder:
    """Maintains an interaction graph incrementally from a trace stream.

    Attach to a collector with :meth:`attach`; the collector hands over
    every trace whole, once, and each is folded into :attr:`graph` by
    applying its observations in the batch builder's order, so the
    cumulative graph equals the batch builder's output over the same
    traces.  The batch kernel's columnar slice hands its hops to
    :meth:`on_columns` instead, with no trace at all.

    An optional :class:`GraphWindowRing` additionally buckets the same
    observations by span start time for recency-scoped diffing.
    """

    def __init__(
        self,
        window_seconds: float | None = None,
        window_capacity: int = 8,
        observer: Observer | None = None,
    ) -> None:
        self.graph = InteractionGraph("streaming")
        self.observer = observer or NULL_OBSERVER
        self.windows = (
            GraphWindowRing(window_seconds, window_capacity)
            if window_seconds is not None
            else None
        )
        self._version = 0
        self._trace_count = 0
        self._watchers: list[tuple[Callable[[float], bool], Callable[[float], object]]] = []

    @property
    def version(self) -> int:
        """Monotonic mutation counter; bumps whenever the graph changes."""
        return self._version

    @property
    def trace_count(self) -> int:
        """Number of traces folded in so far."""
        return self._trace_count

    def attach(self, collector: "TraceCollector") -> "StreamingGraphBuilder":
        """Subscribe to *collector*'s trace stream, and offer it the
        column entry point :meth:`on_columns`."""
        collector.subscribe(self.on_trace, self.on_columns)
        return self

    def watch(self, due: Callable[[float], bool], act: Callable[[float], object]) -> None:
        """After each fold of a trace whose root ends at *end*, call
        ``act(end)`` if ``due(end)``.  Both read only *end*, so
        :meth:`on_columns` can cut its block after every due row."""
        self._watchers.append((due, act))

    def on_trace(self, trace: Trace) -> None:
        """Fold one complete trace into the graph."""
        if self.observer.enabled:
            with self.observer.timed("topology_fold_seconds"):
                self._fold(trace)
            return
        self._fold(trace)

    def _fold(self, trace: Trace) -> None:
        """The fold itself, see :meth:`on_trace`: the trace's observations
        in walk order, as the batch builder applies them."""
        observe, windows = self.graph.observe_call, self.windows
        for obs in trace_observations(trace):
            caller, callee, duration_ms, error, _ = obs
            observe(caller, callee, duration_ms, error)
            if windows is not None:
                windows.observe(obs)
        self._trace_count += 1
        self._version += 1
        end = trace.root.end
        for due, act in self._watchers:
            if due(end):
                act(end)

    def on_columns(self, keys, rows, hops, starts, ends, ranks) -> None:
        """Fold a sub-block of the columnar slice, one trace per row (the
        layout is :attr:`TraceCollector.column_subscribers`'s; the graph
        folds in walk order, so *ranks* go unread).  Rows fold
        in segments that end at each row a watcher is due after, so it
        acts on the state the span path leaves after that row's trace;
        ``topology_fold_seconds`` times each segment."""
        keys = [NodeKey(*key) for key in keys]
        lo, last = 0, len(ends) - 1
        for row, end in enumerate(ends.tolist()):
            acting = [act for due, act in self._watchers if due(end)]
            if not acting and row < last:
                continue
            with self.observer.timed("topology_fold_seconds"):
                a, b = np.searchsorted(rows, (lo, row + 1)).tolist()
                segment = [column[a:b] for column in hops]
                add_columns(self.graph, keys, segment)
                if self.windows is not None:
                    self.windows.observe_columns(keys, segment, starts[a:b])
            self._trace_count += row + 1 - lo
            self._version += row + 1 - lo
            lo = row + 1
            for act in acting:
                act(end)


# ---------------------------------------------------------------------------
# incremental diff against a pinned baseline
# ---------------------------------------------------------------------------


class LiveTopologyDiff:
    """A :class:`TopologyDiff` kept current against a pinned baseline.

    The baseline graph and its diff indexes (version sets and edge
    instances per (service, endpoint)) are computed once at pin time;
    each refresh only re-derives the experimental side from the live
    graph, through the same :func:`diff_from_indexes` core that
    ``diff_graphs`` uses — so a live diff is bit-identical to a batch
    diff of the same two graphs.  Refreshes are lazy, guarded by the
    builder's version counter: arbitrarily many reads between trace
    arrivals cost one diff.  The live side is the window merge (recency
    view) when the builder has a ring, its cumulative graph otherwise.
    """

    def __init__(
        self, baseline: InteractionGraph, builder: StreamingGraphBuilder
    ) -> None:
        self._baseline = baseline
        self._base_nodes = versions_by_service_endpoint(baseline)
        self._base_edges = edges_by_service_endpoint(baseline)
        self._builder = builder
        self._cached: TopologyDiff | None = None
        self._cached_version = -1
        self.refreshes = 0

    @property
    def baseline(self) -> InteractionGraph:
        """The pinned baseline graph."""
        return self._baseline

    def _live_graph(self) -> InteractionGraph:
        if self._builder.windows is not None:
            return self._builder.windows.merged()
        return self._builder.graph

    def current(self) -> TopologyDiff:
        """The up-to-date diff (recomputed only if the graph changed)."""
        version = self._builder.version
        if self._cached is None or version != self._cached_version:
            with self._builder.observer.timed("topology_diff_seconds"):
                self._cached = diff_from_indexes(
                    self._baseline,
                    self._live_graph(),
                    self._base_nodes,
                    self._base_edges,
                )
            self._cached_version = version
            self.refreshes += 1
        return self._cached


# ---------------------------------------------------------------------------
# health scoring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HealthReport:
    """Health scores derived from one diff refresh."""

    services: dict[str, float] = field(default_factory=dict)
    overall: float = 1.0
    components: dict[str, dict[str, float]] = field(default_factory=dict)

    def describe(self) -> str:
        """One line per service plus the overall score."""
        lines = [
            f"  {service}: {score:.3f}"
            for service, score in sorted(self.services.items())
        ]
        return "\n".join([f"overall health: {self.overall:.3f}"] + lines)


#: An error-rate increase of this much (absolute) exhausts the error
#: component; a response-time ratio of +100% exhausts the RT component.
ERROR_FULL_SCALE = 0.5
RT_FULL_SCALE = 1.0
#: Component weights of the health score (they sum to 1).
ERROR_WEIGHT = 0.45
RT_WEIGHT = 0.35
SUSPICION_WEIGHT = 0.20


def _per_service(graph: InteractionGraph) -> dict[str, tuple[int, int, float]]:
    """(calls, errors, total_response_ms) aggregated per service."""
    out: dict[str, tuple[int, int, float]] = {}
    for key in graph.nodes:
        stats = graph.node_stats(key)
        calls, errors, total = out.get(key.service, (0, 0, 0.0))
        out[key.service] = (
            calls + stats.calls,
            errors + stats.errors,
            total + stats.total_response_ms,
        )
    return out


class HealthScorer:
    """Derives per-service health in [0, 1] from a topology diff.

    Three penalty components per service, each clipped to [0, 1]:

    * **error**: the increase of the service's error rate over baseline,
      scaled by :data:`ERROR_FULL_SCALE`;
    * **response_time**: the relative mean-response-time degradation
      over baseline, scaled by :data:`RT_FULL_SCALE`;
    * **suspicion**: the service's strongest normalized heuristic score
      among the diff's identified changes anchored at it, *scaled by the
      observed severity* (the error + RT penalties).  Heuristic scores
      are relative — some change always ranks first, even in a perfectly
      healthy rollout — so they attribute blame when something misbehaves
      rather than flat-penalizing every change.

    ``health = 1 - clip(weighted penalty sum)``, weighted by
    :data:`ERROR_WEIGHT`, :data:`RT_WEIGHT` and :data:`SUSPICION_WEIGHT`;
    the overall score is the minimum across services (an experiment is as
    healthy as its sickest service).  The suspicion scores are the
    ``HY-abs`` hybrid heuristic's.
    """

    def __init__(self) -> None:
        self.heuristic = HybridHeuristic()

    def report(self, diff: TopologyDiff) -> HealthReport:
        """Score every service of the diff's experimental graph."""
        base = _per_service(diff.baseline)
        live = _per_service(diff.experimental)
        suspicion_by_service: dict[str, float] = {}
        if diff.changes:
            for change, score in normalized(self.heuristic.scores(diff)).items():
                service = change.anchor.service
                suspicion_by_service[service] = max(
                    suspicion_by_service.get(service, 0.0), score
                )

        services: dict[str, float] = {}
        components: dict[str, dict[str, float]] = {}
        for service, (calls, errors, total) in sorted(live.items()):
            if calls == 0:
                continue
            error_rate = errors / calls
            mean_rt = total / calls
            b_calls, b_errors, b_total = base.get(service, (0, 0, 0.0))
            base_error_rate = b_errors / b_calls if b_calls else 0.0
            error_delta = max(0.0, error_rate - base_error_rate)
            if b_calls and b_total > 0:
                base_rt = b_total / b_calls
                rt_ratio = max(0.0, (mean_rt - base_rt) / base_rt)
            else:
                rt_ratio = 0.0
            error_penalty = min(1.0, error_delta / ERROR_FULL_SCALE)
            rt_penalty = min(1.0, rt_ratio / RT_FULL_SCALE)
            severity = min(1.0, error_penalty + rt_penalty)
            suspicion = suspicion_by_service.get(service, 0.0) * severity
            penalty = (
                ERROR_WEIGHT * error_penalty
                + RT_WEIGHT * rt_penalty
                + SUSPICION_WEIGHT * suspicion
            )
            services[service] = max(0.0, 1.0 - min(1.0, penalty))
            components[service] = {
                "error_delta": error_delta,
                "rt_ratio": rt_ratio,
                "suspicion": suspicion,
            }
        overall = min(services.values()) if services else 1.0
        return HealthReport(services=services, overall=overall, components=components)


class LiveHealthMonitor:
    """Publishes live health scores into a :class:`MetricStore`.

    Watches a :class:`StreamingGraphBuilder`; whenever a trace is
    folded in and at least *publish_interval* simulated seconds passed
    since the last publication (:meth:`due`), it refreshes the live diff, scores it,
    and records ``health.score`` per service under version
    :data:`HEALTH_VERSION` plus the overall score under service
    :data:`OVERALL_SERVICE` — exactly where Bifrost ``health`` checks
    look.
    """

    def __init__(
        self,
        builder: StreamingGraphBuilder,
        baseline: InteractionGraph,
        store: "MetricStore",
        publish_interval: float = 5.0,
        scorer: HealthScorer | None = None,
    ) -> None:
        if publish_interval < 0:
            raise ValidationError("publish_interval must be >= 0")
        self.live = LiveTopologyDiff(baseline, builder)
        self.scorer = scorer or HealthScorer()
        self.obs = builder.observer
        self._store = store
        self._interval = publish_interval
        self._last_publish: float | None = None
        self.publishes = 0
        self.last_report: HealthReport | None = None
        builder.watch(self.due, self.publish)

    def due(self, timestamp: float) -> bool:
        """Whether a fold of a trace ending at *timestamp* publishes: the
        first one does, then one *publish_interval* after the last."""
        return (
            self._last_publish is None
            or timestamp - self._last_publish >= self._interval
        )

    def publish(self, timestamp: float) -> HealthReport:
        """Force one score computation + publication at *timestamp*."""
        diff = self.live.current()
        with self.obs.timed("topology_rank_seconds"):
            report = self.scorer.report(diff)
        for service, score in sorted(report.services.items()):
            self._store.record(
                service, HEALTH_VERSION, HEALTH_METRIC, timestamp, score
            )
        self._store.record(
            OVERALL_SERVICE, HEALTH_VERSION, HEALTH_METRIC, timestamp, report.overall
        )
        self._last_publish = timestamp
        self.publishes += 1
        self.last_report = report
        if self.obs.enabled:
            self.obs.emit(
                TOPOLOGY_HEALTH,
                timestamp,
                overall=report.overall,
                services=dict(sorted(report.services.items())),
            )
            metrics = self.obs.metrics
            metrics.counter("topology_health_publishes_total").increment()
            metrics.gauge("topology_health_overall").set(report.overall)
            for service, score in report.services.items():
                metrics.gauge("topology_health", service=service).set(score)
        return report

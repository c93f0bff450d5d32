"""Unit tests for the streaming topology pipeline (repro.topology.streaming)."""

import pytest

from repro.errors import ValidationError
from repro.telemetry.store import MetricStore
from repro.topology.builder import (
    Observation,
    build_interaction_graph,
    trace_observations,
)
from repro.topology.diff import diff_graphs
from repro.topology.graph import InteractionGraph, NodeKey
from repro.topology.streaming import (
    HEALTH_METRIC,
    HEALTH_VERSION,
    OVERALL_SERVICE,
    GraphWindowRing,
    HealthScorer,
    LiveHealthMonitor,
    LiveTopologyDiff,
    StreamingGraphBuilder,
    graphs_equal,
    merge_graph_into,
)
from repro.tracing.collector import TraceCollector
from repro.tracing.span import Span


def make_span(
    span_id,
    trace_id="t1",
    parent_id=None,
    service="frontend",
    version="1.0.0",
    endpoint="home",
    start=0.0,
    duration_ms=10.0,
    error=False,
    tags=None,
) -> Span:
    return Span(
        span_id=span_id,
        trace_id=trace_id,
        parent_id=parent_id,
        service=service,
        version=version,
        endpoint=endpoint,
        start=start,
        duration_ms=duration_ms,
        error=error,
        tags=tags or {},
    )


def trace_spans(trace_id, start=0.0, error=False):
    """A two-span frontend→backend trace starting at *start*."""
    return [
        make_span(f"{trace_id}-root", trace_id=trace_id, start=start),
        make_span(
            f"{trace_id}-child",
            trace_id=trace_id,
            parent_id=f"{trace_id}-root",
            service="backend",
            endpoint="api",
            start=start + 0.001,
            error=error,
        ),
    ]


def obs(start=0.0, duration_ms=10.0, error=False, callee_service="backend"):
    return Observation(
        NodeKey("frontend", "1.0.0", "home"),
        NodeKey(callee_service, "1.0.0", "api"),
        duration_ms,
        error,
        start,
    )


class TestGraphHelpers:
    def make_graph(self, latency=10.0, error=False):
        graph = InteractionGraph()
        graph.observe_call(
            None, NodeKey("a", "1.0.0", "ep"), latency, error
        )
        graph.observe_call(
            NodeKey("a", "1.0.0", "ep"), NodeKey("b", "1.0.0", "ep"), latency, error
        )
        return graph

    def test_merge_doubles_stats(self):
        graph = self.make_graph()
        merged = InteractionGraph()
        merge_graph_into(merged, graph)
        merge_graph_into(merged, graph)
        assert merged.node_stats(NodeKey("a", "1.0.0", "ep")).calls == 2
        assert not graphs_equal(merged, graph)

    def test_copy_is_independent(self):
        graph = self.make_graph()
        clone = InteractionGraph("clone")
        merge_graph_into(clone, graph)
        clone.observe_call(None, NodeKey("a", "1.0.0", "ep"), 5.0, False)
        assert graph.node_stats(NodeKey("a", "1.0.0", "ep")).calls == 1
        assert clone.node_stats(NodeKey("a", "1.0.0", "ep")).calls == 2

    def test_graphs_equal_detects_stat_differences(self):
        assert graphs_equal(self.make_graph(), self.make_graph())
        assert not graphs_equal(self.make_graph(), self.make_graph(latency=11.0))
        assert not graphs_equal(self.make_graph(), self.make_graph(error=True))

    def test_zero_tolerance_is_exact(self):
        """Totals 1e-12 ms apart differ at ``rel_tol=0`` and are equal at
        the default tolerance."""
        key = NodeKey("a", "1.0.0", "ep")
        graphs = []
        for total in (1.0, 1.0 + 1e-12):
            graph = InteractionGraph()
            graph.observe_call(None, key, total, False)
            graphs.append(graph)
        assert not graphs_equal(*graphs, rel_tol=0)
        assert graphs_equal(*graphs)

    def test_graphs_equal_detects_shape_differences(self):
        graph = self.make_graph()
        bigger = self.make_graph()
        bigger.observe_call(
            NodeKey("b", "1.0.0", "ep"), NodeKey("c", "1.0.0", "ep"), 1.0, False
        )
        assert not graphs_equal(graph, bigger)
        assert not graphs_equal(bigger, graph)


class TestGraphWindowRing:
    def test_assigns_half_open_windows(self):
        ring = GraphWindowRing(window_seconds=10.0)
        assert ring.index_of(0.0) == 0
        assert ring.index_of(9.999) == 0
        assert ring.index_of(10.0) == 1  # boundary goes to the next window

    def test_observations_bucket_by_start(self):
        ring = GraphWindowRing(window_seconds=10.0)
        ring.observe(obs(start=1.0))
        ring.observe(obs(start=15.0))
        assert sorted(ring._windows) == [0, 1]
        assert ring.window(0).node_stats(NodeKey("backend", "1.0.0", "api")).calls == 1

    def test_merged_equals_sum_of_windows(self):
        ring = GraphWindowRing(window_seconds=10.0)
        for start in (1.0, 5.0, 15.0, 25.0):
            ring.observe(obs(start=start))
        expected = InteractionGraph()
        for idx in sorted(ring._windows):
            merge_graph_into(expected, ring.window(idx))
        assert graphs_equal(ring.merged(), expected)

    def test_capacity_expires_oldest_window(self):
        ring = GraphWindowRing(window_seconds=10.0, capacity=2)
        for start in (1.0, 11.0, 21.0):
            ring.observe(obs(start=start))
        assert sorted(ring._windows) == [1, 2]
        assert ring.expired_windows == 1
        # merged() rebuilds without the expired window.
        assert ring.merged().node_stats(NodeKey("backend", "1.0.0", "api")).calls == 2

    def test_late_observation_for_expired_window_dropped(self):
        ring = GraphWindowRing(window_seconds=10.0, capacity=2)
        for start in (1.0, 11.0, 21.0):
            ring.observe(obs(start=start))
        ring.observe(obs(start=2.0))  # window 0 already expired
        assert ring.late_observations_dropped == 1
        assert ring.merged().node_stats(NodeKey("backend", "1.0.0", "api")).calls == 2

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValidationError):
            GraphWindowRing(window_seconds=0.0)
        with pytest.raises(ValidationError):
            GraphWindowRing(window_seconds=1.0, capacity=0)


class TestStreamingGraphBuilder:
    def test_matches_batch_builder(self):
        collector = TraceCollector()
        builder = StreamingGraphBuilder().attach(collector)
        for i in range(5):
            collector.record_all(
                trace_spans(f"t{i}", start=float(i), error=(i == 3))
            )
        batch = build_interaction_graph(collector.traces())
        assert graphs_equal(builder.graph, batch)
        assert builder.trace_count == 5

    def test_version_bumps_only_on_change(self):
        collector = TraceCollector()
        builder = StreamingGraphBuilder().attach(collector)
        collector.record_all(trace_spans("t1"))
        version = builder.version
        LiveTopologyDiff(InteractionGraph("baseline"), builder).current()
        assert builder.version == version  # a read changes nothing
        collector.record_all(trace_spans("t2", start=1.0))
        assert builder.version == version + 1

    def test_watchers_act_after_the_fold_of_their_trace(self):
        collector = TraceCollector()
        builder = StreamingGraphBuilder().attach(collector)
        asked, acted = [], []
        builder.watch(
            lambda end: asked.append(end) or end > 1.5,
            lambda end: acted.append((end, builder.trace_count)),
        )
        collector.record_all(trace_spans("t1"))
        collector.record_all(trace_spans("t2", start=2.0))
        # Each root ends 10 ms after its start; only t2 is due.
        assert asked == [0.01, 2.01]
        assert acted == [(2.01, 2)]

    def test_window_ring_wired_through(self):
        collector = TraceCollector()
        builder = StreamingGraphBuilder(window_seconds=10.0).attach(collector)
        collector.record_all(trace_spans("t1", start=1.0))
        collector.record_all(trace_spans("t2", start=15.0))
        assert sorted(builder.windows._windows) == [0, 1]
        assert graphs_equal(builder.windows.merged(), builder.graph)


class TestLiveTopologyDiff:
    def baseline_and_builder(self):
        baseline_collector = TraceCollector()
        for i in range(3):
            baseline_collector.record_all(trace_spans(f"b{i}", start=float(i)))
        baseline = build_interaction_graph(
            baseline_collector.traces(), name="baseline"
        )
        collector = TraceCollector()
        builder = StreamingGraphBuilder().attach(collector)
        return baseline, builder, collector

    def test_matches_batch_diff(self):
        baseline, builder, collector = self.baseline_and_builder()
        live = LiveTopologyDiff(baseline, builder)
        collector.record_all(trace_spans("t1"))
        collector.record_all(
            [
                make_span("r", trace_id="t2", start=2.0),
                make_span(
                    "c",
                    trace_id="t2",
                    parent_id="r",
                    service="backend",
                    version="2.0.0",
                    endpoint="api",
                    start=2.001,
                ),
            ]
        )
        batch = diff_graphs(baseline, builder.graph)
        current = live.current()
        assert {c.identity for c in current.changes} == {
            c.identity for c in batch.changes
        }
        assert [c.type for c in current.changes] == [c.type for c in batch.changes]

    def test_refresh_is_lazy(self):
        baseline, builder, collector = self.baseline_and_builder()
        live = LiveTopologyDiff(baseline, builder)
        collector.record_all(trace_spans("t1"))
        first = live.current()
        assert live.current() is first  # no new traces -> cached object
        assert live.refreshes == 1
        collector.record_all(trace_spans("t2", start=1.0))
        assert live.current() is not first
        assert live.refreshes == 2

    def test_windowed_diff_uses_window_merge(self):
        baseline = InteractionGraph("baseline")
        collector = TraceCollector()
        builder = StreamingGraphBuilder(
            window_seconds=10.0, window_capacity=1
        ).attach(collector)
        live = LiveTopologyDiff(baseline, builder)
        collector.record_all(trace_spans("t1", start=1.0))
        collector.record_all(trace_spans("t2", start=15.0))  # expires window 0
        diff = live.current()
        root = NodeKey("frontend", "1.0.0", "home")
        assert diff.experimental.node_stats(root).calls == 1  # recency view


class TestHealthScorer:
    def traffic_graph(self, error_rate=0.0, latency=10.0, calls=50):
        graph = InteractionGraph()
        root = NodeKey("frontend", "1.0.0", "home")
        callee = NodeKey("backend", "1.0.0", "api")
        for i in range(calls):
            graph.observe_call(None, root, 2.0, False)
            graph.observe_call(
                root, callee, latency, error=(i < error_rate * calls)
            )
        return graph

    def test_identical_graphs_are_perfectly_healthy(self):
        base = self.traffic_graph()
        report = HealthScorer().report(diff_graphs(base, self.traffic_graph()))
        assert report.overall == pytest.approx(1.0)
        assert all(s == pytest.approx(1.0) for s in report.services.values())

    def test_error_injection_lowers_the_faulty_service(self):
        base = self.traffic_graph()
        sick = self.traffic_graph(error_rate=0.5)
        report = HealthScorer().report(diff_graphs(base, sick))
        assert report.services["backend"] < 0.7
        assert report.services["frontend"] == pytest.approx(1.0)

    def test_latency_regression_lowers_score(self):
        base = self.traffic_graph(latency=10.0)
        slow = self.traffic_graph(latency=25.0)
        report = HealthScorer().report(diff_graphs(base, slow))
        assert report.services["backend"] < 0.7
        assert report.components["backend"]["rt_ratio"] == pytest.approx(1.5)

    def test_overall_is_minimum_across_services(self):
        base = self.traffic_graph()
        sick = self.traffic_graph(error_rate=0.4)
        report = HealthScorer().report(diff_graphs(base, sick))
        assert report.overall == pytest.approx(min(report.services.values()))

    def test_empty_live_graph_reports_healthy(self):
        base = self.traffic_graph()
        report = HealthScorer().report(diff_graphs(base, InteractionGraph()))
        assert report.overall == 1.0
        assert report.services == {}

    def test_describe_mentions_every_service(self):
        base = self.traffic_graph()
        report = HealthScorer().report(diff_graphs(base, self.traffic_graph()))
        text = report.describe()
        assert "overall health" in text
        assert "backend" in text and "frontend" in text


class TestLiveHealthMonitor:
    def setup_monitor(self, publish_interval=5.0):
        baseline_collector = TraceCollector()
        for i in range(3):
            baseline_collector.record_all(trace_spans(f"b{i}", start=float(i)))
        baseline = build_interaction_graph(
            baseline_collector.traces(), name="baseline"
        )
        collector = TraceCollector()
        builder = StreamingGraphBuilder().attach(collector)
        store = MetricStore()
        monitor = LiveHealthMonitor(
            builder, baseline, store, publish_interval=publish_interval
        )
        return monitor, collector, store

    def test_publishes_per_service_and_overall(self):
        monitor, collector, store = self.setup_monitor(publish_interval=0.0)
        collector.record_all(trace_spans("t1", start=10.0))
        assert monitor.publishes == 1
        for service in ("frontend", "backend", OVERALL_SERVICE):
            values = store.values_in_window(
                service, HEALTH_VERSION, HEALTH_METRIC, 0.0, 100.0
            )
            assert len(values) == 1
            assert 0.0 <= values[0] <= 1.0

    def test_throttles_by_publish_interval(self):
        monitor, collector, _store = self.setup_monitor(publish_interval=5.0)
        collector.record_all(trace_spans("t1", start=10.0))
        collector.record_all(trace_spans("t2", start=11.0))  # within interval
        collector.record_all(trace_spans("t3", start=16.0))  # past interval
        assert monitor.publishes == 2

    def test_faulty_traffic_publishes_degraded_score(self):
        monitor, collector, store = self.setup_monitor(publish_interval=0.0)
        for i in range(10):
            collector.record_all(
                trace_spans(f"t{i}", start=10.0 + i, error=True)
            )
        values = store.values_in_window(
            "backend", HEALTH_VERSION, HEALTH_METRIC, 0.0, 100.0
        )
        assert min(values) < 0.8
        assert monitor.last_report is not None
        assert monitor.last_report.services["backend"] < 0.8

    def test_negative_interval_rejected(self):
        with pytest.raises(ValidationError):
            LiveHealthMonitor(
                StreamingGraphBuilder(),
                InteractionGraph(),
                MetricStore(),
                publish_interval=-1.0,
            )


def exact(graph):
    """A graph's nodes and edges with their stats records, for ``==``."""
    return (
        {key: graph.node_stats(key) for key in graph.nodes},
        {(caller, callee): stats for caller, callee, stats in graph.edges()},
    )


def random_trace(trace_id, start, rng):
    """frontend → (backend → db, cache, backend): two calls per trace reach
    one backend node, so the order within a trace reaches the totals."""
    version = rng.choice(["1.0.0", "2.0.0"])

    def span(name, parent, service, version, endpoint, offset):
        return make_span(
            f"{trace_id}-{name}",
            trace_id=trace_id,
            parent_id=None if parent is None else f"{trace_id}-{parent}",
            service=service,
            version=version,
            endpoint=endpoint,
            start=start + offset,
            duration_ms=rng.uniform(0.1, 50.0),
            error=rng.random() < 0.2,
        )

    return [
        span("db", "backend", "db", "1.0.0", "query", 0.002),
        span("backend", "root", "backend", version, "api", 0.001),
        span("cache", "root", "cache", "1.0.0", "get", 0.003),
        span("again", "root", "backend", version, "api", 0.004),
        span("root", None, "frontend", "1.0.0", "home", 0.0),
    ]


class TestExactFold:
    """The fold applies each trace's observations in the batch builder's
    order, so every float total is the batch builder's bit for bit."""

    def test_stream_equals_batch_exactly(self):
        import random

        rng = random.Random(5)
        collector = TraceCollector()
        builder = StreamingGraphBuilder(window_seconds=5.0, window_capacity=100)
        builder.attach(collector)
        for i in range(40):
            collector.record_trace(f"t{i}", random_trace(f"t{i}", 0.5 * i, rng))
        assert builder.trace_count == 40
        batch = build_interaction_graph(collector.traces())
        assert exact(builder.graph) == exact(batch)
        assert graphs_equal(builder.graph, batch, rel_tol=0)
        ring = builder.windows
        assert ring.expired_windows == 0
        assert exact(ring.merged()) == exact(batch)
        for idx in sorted(ring._windows):
            expected = InteractionGraph()
            for trace in collector.traces():
                for o in trace_observations(trace):
                    if ring.index_of(o.start) == idx:
                        expected.observe_call(o.caller, o.callee, o.duration_ms, o.error)
            assert exact(ring.window(idx)) == exact(expected)

    def test_observe_call_updates_the_records_the_graph_hands_out(self):
        caller = NodeKey("frontend", "1.0.0", "home")
        callee = NodeKey("backend", "1.0.0", "api")
        graph = InteractionGraph()
        graph.observe_call(caller, callee, 5.0, False)
        node, edge = graph.add_node(callee), graph.add_edge(caller, callee)
        assert (node.calls, edge.calls) == (1, 1)
        other = InteractionGraph()
        other.observe_call(caller, callee, 7.0, True)
        merge_graph_into(graph, other)
        assert graph.add_node(callee) is node and graph.add_edge(caller, callee) is edge
        graph.observe_call(caller, callee, 1.0, False)
        graph.observe_call(None, caller, 2.0, True)
        assert (node.calls, node.errors, node.total_response_ms) == (3, 1, 13.0)
        assert (edge.calls, edge.errors, edge.total_response_ms) == (3, 1, 13.0)
        assert graph.node_stats(caller).calls == 1  # calling it counts on the callee
        # Records made first by add_edge are the ones observe_call updates.
        fresh = InteractionGraph()
        made = fresh.add_edge(caller, callee)
        fresh.observe_call(caller, callee, 4.0, False)
        assert made.calls == 1 and fresh.node_stats(callee).calls == 1

"""Unit tests for interaction graphs and the trace-based builder."""

import pytest

from repro.errors import TopologyError
from repro.topology.builder import build_interaction_graph
from repro.topology.graph import InteractionGraph, NodeKey
from repro.tracing.trace import Trace
from tests.unit.test_tracing import make_span


def key(service, version="1.0.0", endpoint="ep") -> NodeKey:
    return NodeKey(service, version, endpoint)


class TestInteractionGraph:
    def test_observe_call_creates_nodes_and_edges(self):
        graph = InteractionGraph()
        graph.observe_call(key("a"), key("b"), 10.0, False)
        assert graph.has_node(key("a"))
        assert graph.has_edge(key("a"), key("b"))
        assert graph.node_count == 2
        assert len(list(graph.edges())) == 1

    def test_entry_call_has_no_edge(self):
        graph = InteractionGraph()
        graph.observe_call(None, key("a"), 10.0, False)
        assert graph.node_count == 1
        assert not list(graph.edges())

    def test_stats_accumulate(self):
        graph = InteractionGraph()
        graph.observe_call(None, key("a"), 10.0, False)
        graph.observe_call(None, key("a"), 30.0, True)
        stats = graph.node_stats(key("a"))
        assert stats.calls == 2
        assert stats.mean_response_ms == 20.0
        assert stats.error_rate == 0.5

    def test_edge_stats(self):
        graph = InteractionGraph()
        graph.observe_call(key("a"), key("b"), 10.0, False)
        graph.observe_call(key("a"), key("b"), 20.0, False)
        assert graph.edge_stats(key("a"), key("b")).mean_response_ms == 15.0

    def test_successors_and_predecessors(self):
        graph = InteractionGraph()
        graph.observe_call(key("a"), key("b"), 1.0, False)
        graph.observe_call(key("a"), key("c"), 1.0, False)
        assert set(graph.successors(key("a"))) == {key("b"), key("c")}
        assert graph.predecessors(key("b")) == [key("a")]

    def test_roots(self):
        graph = InteractionGraph()
        graph.observe_call(key("a"), key("b"), 1.0, False)
        assert graph.roots() == [key("a")]

    def test_unknown_node_raises(self):
        with pytest.raises(TopologyError):
            InteractionGraph().node_stats(key("ghost"))

    def test_unknown_edge_raises(self):
        graph = InteractionGraph()
        graph.add_node(key("a"))
        with pytest.raises(TopologyError):
            graph.edge_stats(key("a"), key("b"))


class TestBuilder:
    def make_trace(self, shadow=False) -> Trace:
        root = make_span("root", service="frontend", endpoint="home")
        tags = {"shadow": "true"} if shadow else {}
        child = make_span(
            "child",
            parent_id="root",
            service="backend",
            endpoint="api",
            duration_ms=25.0,
            tags=tags,
        )
        return Trace("t1", [root, child])

    def test_builds_edges_from_parenthood(self):
        graph = build_interaction_graph([self.make_trace()])
        caller = NodeKey("frontend", "1.0.0", "home")
        callee = NodeKey("backend", "1.0.0", "api")
        assert graph.has_edge(caller, callee)
        assert graph.edge_stats(caller, callee).mean_response_ms == 25.0

    def test_shadow_spans_included_by_default(self):
        graph = build_interaction_graph([self.make_trace(shadow=True)])
        assert graph.has_node(NodeKey("backend", "1.0.0", "api"))

    def test_aggregates_across_traces(self):
        traces = []
        for i in range(3):
            root = make_span(f"r{i}", trace_id=f"t{i}")
            traces.append(Trace(f"t{i}", [root]))
        graph = build_interaction_graph(traces)
        assert graph.node_stats(NodeKey("frontend", "1.0.0", "home")).calls == 3

"""Unit tests for the service-level aggregation extension."""

import pytest

from repro.topology.aggregate import SERVICE_LEVEL_ENDPOINT, aggregate_to_service_level
from repro.topology.diff import diff_graphs
from repro.topology.generator import mutate_graph, random_interaction_graph
from repro.topology.graph import InteractionGraph, NodeKey


class TestServiceLevelAggregation:
    def make_graph(self) -> InteractionGraph:
        graph = InteractionGraph("g")
        a1 = NodeKey("a", "1.0", "ep0")
        a2 = NodeKey("a", "1.0", "ep1")
        b = NodeKey("b", "1.0", "ep0")
        graph.observe_call(None, a1, 10.0, False)
        graph.observe_call(None, a2, 30.0, True)
        graph.observe_call(a1, b, 5.0, False)
        graph.observe_call(a2, b, 15.0, False)
        graph.observe_call(a1, a2, 30.0, False)  # intra-service call
        return graph

    def test_nodes_collapse(self):
        aggregated = aggregate_to_service_level(self.make_graph())
        assert aggregated.node_count == 2
        assert all(
            key.endpoint == SERVICE_LEVEL_ENDPOINT for key in aggregated.nodes
        )

    def test_stats_sum_call_weighted(self):
        aggregated = aggregate_to_service_level(self.make_graph())
        stats = aggregated.node_stats(NodeKey("a", "1.0", "*"))
        assert stats.calls == 3  # a1 x1 + a2 x2 (entry + intra call)
        assert stats.errors == 1

    def test_parallel_edges_merge(self):
        aggregated = aggregate_to_service_level(self.make_graph())
        edge = aggregated.edge_stats(
            NodeKey("a", "1.0", "*"), NodeKey("b", "1.0", "*")
        )
        assert edge.calls == 2
        assert edge.total_response_ms == pytest.approx(20.0)

    def test_self_edges_dropped(self):
        aggregated = aggregate_to_service_level(self.make_graph())
        a = NodeKey("a", "1.0", "*")
        assert not aggregated.has_edge(a, a)

    def test_diff_works_at_service_level(self):
        base = random_interaction_graph(200, branching=3, seed=1)
        variant = mutate_graph(base, changes=10, seed=2)
        fine = diff_graphs(base, variant)
        coarse = diff_graphs(
            aggregate_to_service_level(base),
            aggregate_to_service_level(variant),
        )
        # Coarser granularity yields at most as many changes.
        assert len(coarse.changes) <= len(fine.changes)
        assert coarse.changes  # but the mutations remain visible

    def test_aggregation_shrinks_graph(self):
        base = random_interaction_graph(300, branching=3, seed=3,
                                        endpoints_per_service=10)
        aggregated = aggregate_to_service_level(base)
        assert aggregated.node_count == 30

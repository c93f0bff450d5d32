"""Property-based tests on interaction graphs, diffs, and rankings."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology.builder import build_interaction_graph
from repro.topology.diff import DiffStatus, diff_graphs
from repro.topology.generator import mutate_graph, random_interaction_graph
from repro.topology.heuristics.hybrid import all_heuristic_variants
from repro.topology.ranking import evaluate_ranking, rank_changes
from repro.topology.streaming import LiveTopologyDiff, StreamingGraphBuilder, graphs_equal
from repro.tracing.collector import TraceCollector
from repro.tracing.span import Span

graph_params = st.tuples(
    st.integers(min_value=2, max_value=120),   # endpoints
    st.integers(min_value=1, max_value=6),     # branching
    st.integers(min_value=0, max_value=500),   # seed
)


class TestGraphInvariants:
    @settings(max_examples=40, deadline=None)
    @given(graph_params)
    def test_generated_graph_is_consistent(self, params):
        n, branching, seed = params
        graph = random_interaction_graph(n, branching=branching, seed=seed)
        assert graph.node_count == n
        for caller, callee, stats in graph.edges():
            assert graph.has_node(caller)
            assert graph.has_node(callee)
            assert callee in graph.successors(caller)
            assert caller in graph.predecessors(callee)
            assert stats.calls > 0

    @settings(max_examples=40, deadline=None)
    @given(graph_params)
    def test_tree_has_single_root(self, params):
        n, branching, seed = params
        graph = random_interaction_graph(n, branching=branching, seed=seed)
        assert len(graph.roots()) == 1


class TestDiffInvariants:
    @settings(max_examples=40, deadline=None)
    @given(graph_params)
    def test_self_diff_is_empty(self, params):
        n, branching, seed = params
        graph = random_interaction_graph(n, branching=branching, seed=seed)
        diff = diff_graphs(graph, graph)
        assert diff.changes == []
        assert all(
            entry.status is DiffStatus.UNCHANGED
            for entry in diff.entries.values()
        )

    @settings(max_examples=30, deadline=None)
    @given(graph_params, st.integers(min_value=1, max_value=20))
    def test_diff_is_antisymmetric_on_adds_removes(self, params, changes):
        n, branching, seed = params
        base = random_interaction_graph(n, branching=branching, seed=seed)
        variant = mutate_graph(base, changes=changes, seed=seed + 1)
        forward = diff_graphs(base, variant).summary()
        backward = diff_graphs(variant, base).summary()
        assert forward["added"] == backward["removed"]
        assert forward["removed"] == backward["added"]
        assert forward["updated"] == backward["updated"]

    @settings(max_examples=30, deadline=None)
    @given(graph_params, st.integers(min_value=0, max_value=20))
    def test_entries_cover_union_of_service_endpoints(self, params, changes):
        n, branching, seed = params
        base = random_interaction_graph(n, branching=branching, seed=seed)
        variant = mutate_graph(base, changes=changes, seed=seed + 1)
        diff = diff_graphs(base, variant)
        union = {(n.service, n.endpoint) for graph in (base, variant) for n in graph.nodes}
        assert set(diff.entries) == union


class TestRankingInvariants:
    @settings(max_examples=20, deadline=None)
    @given(graph_params, st.integers(min_value=1, max_value=15))
    def test_rankings_are_permutations_of_changes(self, params, changes):
        n, branching, seed = params
        base = random_interaction_graph(n, branching=branching, seed=seed)
        variant = mutate_graph(base, changes=changes, seed=seed + 1)
        diff = diff_graphs(base, variant)
        for heuristic in all_heuristic_variants().values():
            ranking = rank_changes(diff, heuristic)
            assert sorted(r.change.describe() for r in ranking) == sorted(
                c.describe() for c in diff.changes
            )
            scores = [r.score for r in ranking]
            assert scores == sorted(scores, reverse=True)

    @settings(max_examples=20, deadline=None)
    @given(graph_params, st.integers(min_value=1, max_value=10))
    def test_ndcg_bounded_for_any_relevance(self, params, changes):
        n, branching, seed = params
        base = random_interaction_graph(n, branching=branching, seed=seed)
        variant = mutate_graph(base, changes=changes, seed=seed + 1)
        diff = diff_graphs(base, variant)
        ranking = rank_changes(diff, all_heuristic_variants()["HY-abs"])
        relevance = {
            change.identity: float(i % 4) for i, change in enumerate(diff.changes)
        }
        score = evaluate_ranking(ranking, relevance, k=5)
        assert 0.0 <= score <= 1.0 + 1e-9


@st.composite
def shuffled_trace_stream(draw):
    """Random trace forest delivered as whole traces in a shuffled order.

    Each trace is a random tree (every non-root span parents onto an
    earlier span) whose spans arrive in a shuffled order too.
    """
    services = ["frontend", "auth", "catalog", "db"]
    traces = []
    for t in range(draw(st.integers(min_value=1, max_value=5))):
        spans = []
        for s in range(draw(st.integers(min_value=1, max_value=7))):
            spans.append(
                Span(
                    span_id=f"t{t}-s{s}",
                    trace_id=f"t{t}",
                    parent_id=(
                        None
                        if s == 0
                        else f"t{t}-s{draw(st.integers(min_value=0, max_value=s - 1))}"
                    ),
                    service=draw(st.sampled_from(services)),
                    version=draw(st.sampled_from(["1.0.0", "2.0.0"])),
                    endpoint=draw(st.sampled_from(["home", "api", "query"])),
                    start=draw(
                        st.floats(
                            min_value=0.0,
                            max_value=500.0,
                            allow_nan=False,
                            allow_infinity=False,
                        )
                    ),
                    duration_ms=draw(
                        st.floats(
                            min_value=0.0,
                            max_value=80.0,
                            allow_nan=False,
                            allow_infinity=False,
                        )
                    ),
                    error=draw(st.booleans()),
                    tags={"shadow": "true"} if draw(st.booleans()) else {},
                )
            )
        traces.append((f"t{t}", draw(st.permutations(spans))))
    return draw(st.permutations(traces))


class TestStreamingEqualsBatch:
    """The exactness guarantee: a StreamingGraphBuilder fed a trace
    stream produces the same graph — node set, edge set, call
    counts, error counts, response-time totals — as
    ``build_interaction_graph`` over the assembled traces."""

    @settings(max_examples=40, deadline=None)
    @given(shuffled_trace_stream())
    def test_streaming_graph_equals_batch_graph(self, stream):
        collector = TraceCollector()
        builder = StreamingGraphBuilder().attach(collector)
        for trace_id, spans in stream:
            collector.record_trace(trace_id, spans)
        batch = build_interaction_graph(collector.traces())
        assert graphs_equal(builder.graph, batch)

    @settings(max_examples=25, deadline=None)
    @given(shuffled_trace_stream(), graph_params)
    def test_live_diff_equals_batch_diff(self, stream, params):
        n, branching, seed = params
        baseline = random_interaction_graph(n, branching=branching, seed=seed)
        collector = TraceCollector()
        builder = StreamingGraphBuilder().attach(collector)
        live = LiveTopologyDiff(baseline, builder)
        for trace_id, spans in stream:
            collector.record_trace(trace_id, spans)
        batch = diff_graphs(baseline, builder.graph)
        current = live.current()
        assert [c.identity for c in current.changes] == [
            c.identity for c in batch.changes
        ]
        assert current.summary() == batch.summary()

"""Property: the columnar slice feeds live health as the general hop does.

With the streaming builder the only trace subscriber, the columnar slice
records no trace and hands the builder its columns
(``StreamingGraphBuilder.on_columns``).  Its oracle is the general hop,
which a no-op span subscriber selects for every slice: it builds and
records every span, and the builder folds each trace.  The builder's
graph, every live window and the window merge must equal the oracle's
at ``rel_tol=0`` and in insertion order (``_per_service`` adds node
totals in node order, which sets the ``health.score`` bits), and so
must ``version``, ``trace_count``, the next trace id, the publishes and
the store.  Windows are drawn small enough to be created, expired and
to drop late observations inside one sub-block.

Topologies draw a latency family per service, so every plan is accepted;
calls are probabilistic, catalog and pricing are routed (pricing behind a
group audience) and inventory optionally as well.  Dark launches
(``test_columnar_slice.SHADOWS``) add ``shadow``-tagged spans to the
oracle: the fold follows ``Trace.walk``, which puts a duplicate before
its primary's children unless they start at the same instant.
"""

import functools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.microservices.kernel import columns
from repro.simulation.latency import (
    ConstantLatency,
    LoadSensitiveLatency,
    LogNormalLatency,
    ParetoLatency,
)
from repro.topology.builder import build_interaction_graph
from repro.topology.streaming import graphs_equal
from repro.traffic.batch import BatchWorkloadGenerator
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator
from tests.property.test_batch_equivalence import build_strategy
from tests.property.test_columnar_slice import (
    RATE,
    SHADOWS,
    UNTIL,
    build_app,
    build_bifrost,
    dark_launch,
    plain_app,
)

DURATION = 8.0

#: Latency models by draw kind, the load-sensitive one last: the versions
#: of one call site share a kind.
FAMILIES = {
    "const": [
        ConstantLatency,
        lambda ms: LogNormalLatency(ms, 0.0),
        # A 0 ms primary starts its children at its own instant.
        lambda ms: ConstantLatency(0.0),
        lambda ms: LoadSensitiveLatency(ConstantLatency(ms)),
    ],
    "normal": [
        lambda ms: LogNormalLatency(ms, 0.3),
        lambda ms: LoadSensitiveLatency(LogNormalLatency(ms, 0.3), 0.8),
    ],
    "pareto": [
        lambda ms: ParetoLatency.from_median(ms, 1.8),
        lambda ms: LoadSensitiveLatency(ParetoLatency(ms, 2.5)),
    ],
}
#: inventory is called from frontend and from catalog: one load deque at
#: two call sites, so its models must not read the load.
LOAD_FREE = {kind: models[:-1] for kind, models in FAMILIES.items()}


def family(models: dict):
    """A strategy for ``(kind, two model indices)`` within *models*."""
    return st.sampled_from(sorted(models)).flatmap(
        lambda kind: st.tuples(
            st.just(kind),
            st.integers(0, len(models[kind]) - 1),
            st.integers(0, len(models[kind]) - 1),
        )
    )


def traced_run(
    app, *, spans: bool, route_inventory, faults, seed, sub_block, window=(3.0, 8), shadow=None
):
    """One ``run_batches`` replay with live health on (*window* is its
    ``(window_seconds, window_capacity)``) and, with *spans*, a no-op
    span subscriber, which puts every slice on the general hop; returns
    the middleware and every ``record_trace`` call as ``(trace id,
    spans)``."""
    population = UserPopulation(300, DEFAULT_GROUPS, seed=1)
    bifrost = build_bifrost(app, 0.3, faults, route_inventory, shadow)
    calls = []
    record = bifrost.collector.record_trace

    def recorded(trace_id, spans):
        calls.append((trace_id, list(spans)))
        record(trace_id, spans)

    bifrost.collector.record_trace = recorded
    if spans:
        bifrost.collector.subscribe(lambda trace: None)
    bifrost.enable_live_health(
        baseline=baseline(),
        window_seconds=window[0],
        window_capacity=window[1],
        publish_interval=1.0,
    )
    bifrost.submit(build_strategy(0.3, dark_launch(shadow)), at=1.0)
    generator = BatchWorkloadGenerator(population, entry="frontend.index", seed=seed)
    plan = columns.plan
    hops = []

    def counted(self, entry):
        positions = plan(self, entry)
        hops.append(positions is not None)
        return positions

    with mock.patch.object(columns, "plan", counted), mock.patch.object(
        columns, "_SUB_BLOCK", sub_block
    ):
        result = bifrost.run_batches(generator.poisson(RATE, DURATION), until=UNTIL)
    # The general hop plans no slice.
    assert result.fast_slices and hops == ([] if spans else [True] * result.fast_slices)
    return bifrost, calls


def assert_same_graph(a, b) -> None:
    """Equal records (exact floats) in the same insertion order."""
    assert a == b and graphs_equal(a, b, rel_tol=0)
    assert a.nodes == b.nodes
    assert [(c, e) for c, e, _ in a.edges()] == [(c, e) for c, e, _ in b.edges()]


def assert_same_fold(app_factory, **options):
    """The builder-only column fold against the general hop with spans;
    returns the column side's window ring and the oracle's
    ``record_trace`` calls."""
    columnar, calls = traced_run(app_factory(), spans=False, **options)
    general, oracle_calls = traced_run(app_factory(), spans=True, **options)
    assert not calls and len(columnar.collector) == 0
    ours, oracle = columnar.streaming_builder, general.streaming_builder
    assert_same_graph(ours.graph, oracle.graph)
    ring, oracle_ring = ours.windows, oracle.windows
    assert sorted(ring._windows) == sorted(oracle_ring._windows)
    for idx in sorted(ring._windows):
        assert_same_graph(ring.window(idx), oracle_ring.window(idx))
    assert (ring.expired_windows, ring.late_observations_dropped) == (
        oracle_ring.expired_windows,
        oracle_ring.late_observations_dropped,
    )
    assert_same_graph(ring.merged(), oracle_ring.merged())
    assert (ours.version, ours.trace_count) == (oracle.version, oracle.trace_count)
    assert columnar.runtime.next_trace_id() == general.runtime.next_trace_id()
    assert columnar.live_health.publishes == general.live_health.publishes > 0
    assert columnar.store.snapshot() == general.store.snapshot()
    return ring, oracle_calls


@functools.cache
def baseline():
    """A scalar replay's graph of the fixed topology."""
    bifrost = build_bifrost(plain_app(), 0.3, False)
    population = UserPopulation(300, DEFAULT_GROUPS, seed=1)
    bifrost.run(WorkloadGenerator(population, entry="frontend.index", seed=99).poisson(RATE, 4.0))
    return build_interaction_graph(bifrost.collector.traces(), name="baseline")


class TestSpansFromColumns:
    @settings(max_examples=20, deadline=None)
    @given(
        frontend=family(FAMILIES),
        catalog=family(FAMILIES),
        inventory=family(LOAD_FREE),
        pricing=family(FAMILIES),
        call_probability=st.sampled_from([1.0, 0.6, 0.05]),
        parallel=st.booleans(),
        route_inventory=st.sampled_from([False, True, "audience"]),
        faults=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
        sub_block=st.sampled_from([columns._SUB_BLOCK, 7, 1]),
        window=st.sampled_from([(3.0, 8), (0.25, 2), (0.05, 1)]),
        shadow=st.sampled_from(SHADOWS),
    )
    def test_record_trace_calls_match_the_general_hop(
        self,
        frontend,
        catalog,
        inventory,
        pricing,
        call_probability,
        parallel,
        route_inventory,
        faults,
        seed,
        sub_block,
        window,
        shadow,
    ):
        def model(drawn, which, ms, families=FAMILIES):
            kind, first, second = drawn
            return families[kind][first if which == 0 else second](ms)

        def app():
            return build_app(
                dict(
                    frontend=model(frontend, 0, 20.0),
                    catalog_stable=model(catalog, 0, 15.0),
                    catalog_canary=model(catalog, 1, 13.0),
                    inventory=model(inventory, 0, 4.0, LOAD_FREE),
                    inventory_variant=model(inventory, 1, 3.0, LOAD_FREE),
                    pricing=model(pricing, 0, 6.0),
                    pricing_variant=model(pricing, 1, 5.0),
                ),
                call_probability,
                parallel,
            )

        options = dict(
            route_inventory=route_inventory,
            faults=faults,
            seed=seed,
            sub_block=sub_block,
            shadow=shadow,
        )
        assert_same_fold(app, window=window, **options)

    def test_plain_topology_across_sub_blocks(self):
        """The fixed topology, split into sub-blocks of 50 rows."""
        assert_same_fold(
            plain_app, route_inventory="audience", faults=True, seed=3, sub_block=50
        )

    def test_windows_expire_and_drop_inside_one_sub_block(self):
        """Default sub-blocks, so each slice is one sub-block: window
        creations, expiries and late drops are cuts inside it."""
        ring, _ = assert_same_fold(
            plain_app,
            route_inventory="audience",
            faults=True,
            seed=3,
            sub_block=columns._SUB_BLOCK,
            window=(0.05, 1),
        )
        assert ring.expired_windows > 10 and ring.late_observations_dropped > 0


class TestDarkLaunchSpans:
    """Duplicates in the fold, with a fixed topology."""

    @pytest.mark.parametrize("shadow", SHADOWS[1:])
    def test_dark_launches_stream_and_fold(self, shadow):
        """The fold of every duplicate across sub-blocks of 7 rows, against
        an oracle whose span stream carries them."""
        app = lambda: plain_app(1.0, inventory_variant=LogNormalLatency(3.0, 0.2))  # noqa: E731
        options = dict(route_inventory=False, faults=False, seed=3, sub_block=7, shadow=shadow)
        _, calls = assert_same_fold(app, **options)
        assert any(span.tags.get("shadow") == "true" for _, spans in calls for span in spans)

    def test_a_zero_latency_primary_keeps_its_children_first(self):
        """catalog 1.0.0 takes 0 ms, so its inventory call starts with it and
        ``Trace.walk``'s stable sort keeps that call before the duplicate,
        which it follows in span order; with a latency it comes after."""

        def app():
            return plain_app(
                1.0,
                catalog_stable=ConstantLatency(0.0),
                catalog_canary=ConstantLatency(3.0),
                inventory=LogNormalLatency(4.0, 0.2),
            )

        options = dict(
            route_inventory=False,
            faults=False,
            seed=3,
            sub_block=columns._SUB_BLOCK,
            shadow="all",
        )
        _, calls = assert_same_fold(app, **options)
        # Primaries whose call and duplicate both start with them.
        ties = [
            span
            for _, spans in calls
            for span in spans
            if span.service == "catalog"
            and [child.start for child in spans if child.parent_id == span.span_id]
            == [span.start, span.start]
        ]
        assert ties and {span.version for span in ties} == {"1.0.0"}

"""Property: spans built from the columnar slice equal the general hop's.

With a trace subscriber attached, a slice the plan accepts runs as columns
and builds its spans from the columns afterwards
(``RequestKernel._record_traces``).  The same slice with the general hop
forced — ``RequestKernel._plan`` patched to refuse every slice — must hand
the collector the same ``record_trace`` calls: trace ids, span ids
(allocation order), parent ids, tags, starts, durations, errors and list
order.  The streaming builder's graphs and the published ``health.score``
series must match too.  Topologies draw a latency family per service, so
every plan is accepted; calls are probabilistic, catalog and pricing are
routed (pricing behind a group audience) and inventory optionally as well.
"""

import functools
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import batch as kernel_module
from repro.simulation.latency import (
    ConstantLatency,
    LoadSensitiveLatency,
    LogNormalLatency,
    ParetoLatency,
)
from repro.topology.builder import build_interaction_graph
from repro.topology.streaming import HEALTH_METRIC
from repro.traffic.batch import BatchWorkloadGenerator
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator
from tests.property.test_batch_equivalence import build_strategy
from tests.property.test_columnar_slice import (
    RATE,
    UNTIL,
    build_app,
    build_bifrost,
    plain_app,
)

DURATION = 8.0

#: Latency models by draw kind, the load-sensitive one last: the versions
#: of one call site share a kind.
FAMILIES = {
    "const": [
        ConstantLatency,
        lambda ms: LogNormalLatency(ms, 0.0),
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


def traced_run(app, *, general: bool, route_inventory, faults, seed, sub_block):
    """One ``run_batches`` replay with live health on; returns the
    middleware and every ``record_trace`` call as ``(trace id, spans)``."""
    population = UserPopulation(300, DEFAULT_GROUPS, seed=1)
    bifrost = build_bifrost(app, 0.3, faults, route_inventory)
    calls = []
    record = bifrost.collector.record_trace

    def recorded(trace_id, spans):
        calls.append((trace_id, list(spans)))
        record(trace_id, spans)

    bifrost.collector.record_trace = recorded
    bifrost.enable_live_health(
        baseline=baseline(), window_seconds=3.0, publish_interval=1.0
    )
    bifrost.submit(build_strategy(0.3), at=1.0)
    generator = BatchWorkloadGenerator(population, entry="frontend.index", seed=seed)
    plan = kernel_module.RequestKernel._plan
    hops = []

    def counted(self, entry):
        positions = None if general else plan(self, entry)
        hops.append(positions is not None)
        return positions

    with mock.patch.object(kernel_module.RequestKernel, "_plan", counted), mock.patch.object(
        kernel_module, "_SUB_BLOCK", sub_block
    ):
        bifrost.run_batches(generator.poisson(RATE, DURATION), until=UNTIL)
    assert hops and set(hops) == {not general}
    return bifrost, calls


def normalized(calls):
    """The calls with span ids as allocation ranks: the counter is
    process-global, so only the order the ids were taken in is compared."""
    first = min(int(span.span_id[1:], 16) for _, spans in calls for span in spans)

    def rank(span_id):
        return None if span_id is None else int(span_id[1:], 16) - first

    return [
        (
            trace_id,
            [
                (
                    rank(span.span_id),
                    span.trace_id,
                    rank(span.parent_id),
                    span.service,
                    span.version,
                    span.endpoint,
                    span.start,
                    span.duration_ms,
                    span.error,
                    dict(span.tags),
                )
                for span in spans
            ],
        )
        for trace_id, spans in calls
    ]


def assert_same_stream(app_factory, **options) -> None:
    columnar, columnar_calls = traced_run(app_factory(), general=False, **options)
    general, general_calls = traced_run(app_factory(), general=True, **options)
    assert columnar_calls
    assert normalized(columnar_calls) == normalized(general_calls)
    assert columnar.streaming_builder.graph == general.streaming_builder.graph
    assert (
        columnar.streaming_builder.windows.merged()
        == general.streaming_builder.windows.merged()
    )
    health = [key for key in general.store.keys() if key.metric == HEALTH_METRIC]
    assert health and columnar.live_health.publishes == general.live_health.publishes
    assert columnar.store.snapshot() == general.store.snapshot()


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
        sub_block=st.sampled_from([kernel_module._SUB_BLOCK, 7, 1]),
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

        assert_same_stream(
            app,
            route_inventory=route_inventory,
            faults=faults,
            seed=seed,
            sub_block=sub_block,
        )

    def test_plain_topology_across_sub_blocks(self):
        """The fixed topology, split into sub-blocks of 50 rows."""
        assert_same_stream(
            plain_app, route_inventory="audience", faults=True, seed=3, sub_block=50
        )

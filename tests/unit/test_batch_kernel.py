"""Unit tests for the batch execution kernel's building blocks.

The scalar-vs-batch *equivalence* is covered by
``tests/property/test_batch_equivalence.py``; here we pin the individual
pieces: the columnar append paths, bulk trace ingestion, hop selection,
and trace-id bookkeeping — plus every scalar golden case driven through
``run_batches``.
"""

import random

import pytest

from repro.bifrost import Bifrost
from repro.errors import StatisticsError
from repro.microservices.faults import (
    ErrorBurst,
    FaultCampaign,
    FaultInjector,
    LatencySpike,
    NetworkState,
)
from repro.microservices.service import EndpointSpec, ServiceVersion
from repro.routing.rules import AudienceFilter, ExperimentRoute, Variant
from repro.simulation.batch import (
    _N_ERROR_RATE,
    _N_NEEDS_LOAD,
    _N_SAMPLE,
    RequestKernel,
    run_batches,
)
from repro.simulation.latency import ConstantLatency
from repro.stats.timeseries import TimeSeries
from repro.telemetry.store import MetricStore
from repro.tracing.collector import TraceCollector
from repro.tracing.span import Span, next_span_id
from repro.traffic.batch import BatchWorkloadGenerator
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator

from repro.topology.scenarios import sample_application
from tests.integration.test_scalar_golden import CASES, _ParityRouter
from tests.property.test_batch_equivalence import (
    UNTIL,
    Hostile,
    assert_equivalent,
    build_app,
    build_bifrost,
    dump_traces,
    make_workload,
    run_batch,
)


class TestExtendColumns:
    def _reference(self, samples):
        series = TimeSeries("ref")
        for ts, value in samples:
            series.append(ts, value)
        return list(series)

    def test_equivalent_to_appends(self):
        rng = random.Random(7)
        for _ in range(20):
            samples = [
                (round(rng.uniform(0, 50), 3), float(i)) for i in range(40)
            ]
            series = TimeSeries("col")
            series.extend_columns(
                [ts for ts, _ in samples], [v for _, v in samples]
            )
            assert list(series) == self._reference(samples)

    def test_out_of_order_prefix_against_existing_samples(self):
        """New chunk partially predating the existing tail: the prefix
        must insertion-sort, the rest bulk-append."""
        series = TimeSeries("col")
        series.append(10.0, 1.0)
        series.append(20.0, 2.0)
        series.extend_columns([5.0, 15.0, 25.0], [3.0, 4.0, 5.0])
        assert list(series) == self._reference(
            [(10.0, 1.0), (20.0, 2.0), (5.0, 3.0), (15.0, 4.0), (25.0, 5.0)]
        )

    def test_stable_for_equal_timestamps(self):
        series = TimeSeries("col")
        series.extend_columns([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        assert series.values == [1.0, 2.0, 3.0]

    def test_rejects_mismatched_columns(self):
        with pytest.raises(StatisticsError):
            TimeSeries("col").extend_columns([1.0, 2.0], [1.0])

    def test_empty_columns_are_a_no_op(self):
        series = TimeSeries("col")
        series.extend_columns([], [])
        assert len(series) == 0

    def test_metric_store_columnar_matches_record(self):
        columnar, scalar = MetricStore(), MetricStore()
        samples = [(3.0, 1.0), (1.0, 2.0), (2.0, 3.0)]
        columnar.extend_columns(
            "svc", "1.0", "latency",
            [ts for ts, _ in samples], [v for _, v in samples],
        )
        for ts, value in samples:
            scalar.record("svc", "1.0", "latency", ts, value)
        assert columnar.snapshot() == scalar.snapshot()


def _make_trace(trace_id: str, n_spans: int = 2) -> list[Span]:
    root = Span(next_span_id(), trace_id, None, "svc", "1.0", "ep", 0.0, 5.0)
    spans = [root]
    for _ in range(n_spans - 1):
        spans.append(
            Span(
                next_span_id(), trace_id, root.span_id,
                "child", "1.0", "ep", 1.0, 2.0,
            )
        )
    return spans


class TestRecordTrace:
    def test_matches_record_all(self):
        bulk, scalar = TraceCollector(), TraceCollector()
        for trace_id in ("t1", "t2"):
            spans = _make_trace(trace_id)
            bulk.record_trace(trace_id, spans)
            scalar.record_all(spans)
        assert bulk.trace_ids == scalar.trace_ids
        for trace_id in bulk.trace_ids:
            assert bulk.trace(trace_id).spans == scalar.trace(trace_id).spans

    def test_capacity_eviction_and_tombstones(self):
        collector = TraceCollector(capacity=2)
        for trace_id in ("t1", "t2", "t3"):
            collector.record_trace(trace_id, _make_trace(trace_id))
        assert collector.trace_ids == ["t2", "t3"]
        assert collector.evicted_ids == ["t1"]
        # A late chunk for the evicted trace is dropped, not resurrected.
        collector.record_trace("t1", _make_trace("t1"))
        assert collector.trace_ids == ["t2", "t3"]
        assert collector.late_spans_dropped.value == 2

    def test_notifies_subscribers_once_per_trace(self):
        collector = TraceCollector()
        seen: list[str] = []
        collector.subscribe(lambda trace: seen.append(trace.trace_id))
        assert collector.has_subscribers
        collector.record_trace("t1", _make_trace("t1", n_spans=3))
        assert seen == ["t1"]

    def test_has_subscribers_defaults_false(self):
        assert not TraceCollector().has_subscribers


class _OpaqueGate:
    """A network gate the kernel cannot inspect (no ``partitions``),
    optionally fronting a real one."""

    def __init__(self, inner=None) -> None:
        self._inner = inner

    def is_partitioned(self, caller: str, callee: str) -> bool:
        return self._inner is not None and self._inner.is_partitioned(caller, callee)


def _both_paths(build, requests: int = 200):
    """Drive the same constant-rate workload through ``Bifrost.run`` and
    ``Bifrost.run_batches`` on two fresh *build()* middlewares."""
    scalar, batch = build(), build()
    population = UserPopulation(60, DEFAULT_GROUPS, seed=1)
    scalar.run(
        WorkloadGenerator(population, entry="frontend.index", seed=3).constant(
            0.05, requests
        )
    )
    result = batch.run_batches(
        BatchWorkloadGenerator(
            population, entry="frontend.index", seed=3
        ).constant(0.05, requests)
    )
    assert result.fast_requests == requests
    assert batch.store.snapshot() == scalar.store.snapshot()
    return scalar, batch


def _row_kernel(bifrost) -> RequestKernel:
    return RequestKernel(bifrost.runtime, UserPopulation(10, DEFAULT_GROUPS, seed=1))


class TestSliceBlockers:
    def test_default_bifrost_is_fast(self):
        """A default middleware's rows compile its routes and run the
        plain hop."""
        kernel = _row_kernel(Bifrost(sample_application(), seed=1))
        assert not kernel._route_per_hop
        assert not kernel._general

    def test_fault_campaign_does_not_block(self):
        """Faults rewrite endpoint specs at engine events; a kernel built
        inside the window compiles the degraded spec, one built after it
        the pristine spec."""
        bifrost = Bifrost(sample_application(), seed=1)
        campaign = FaultCampaign(FaultInjector(bifrost.application))
        campaign.add(
            ErrorBurst("catalog", "1.0.0", "list", 0.5, start=5.0, end=10.0)
        )
        bifrost.install_campaign(campaign)
        population = UserPopulation(10, DEFAULT_GROUPS, seed=1)

        def compiled_error_rate():
            kernel = RequestKernel(bifrost.runtime, population)
            return kernel.entry_edge("catalog.list")[1][_N_ERROR_RATE]

        pristine = compiled_error_rate()
        bifrost.simulation.run_until(5.0)
        assert compiled_error_rate() == pristine + 0.5
        bifrost.simulation.run_until(10.0)
        assert compiled_error_rate() == pristine

    def test_scaled_latency_keeps_the_flattened_sampler(self):
        """A ``LatencySpike``d node compiles to inner sampler x factor:
        same draws as ``_ScaledLatency.sample``, and load-dependent only
        if the base model is."""
        bifrost = Bifrost(build_app(0.0, 1.0, False), seed=1)
        twin = Bifrost(build_app(0.0, 1.0, False), seed=1)
        for target in (bifrost, twin):
            campaign = FaultCampaign(FaultInjector(target.application))
            campaign.add(LatencySpike("catalog", "1.0.0", "search", 3.0, 0.0, 9.0))
            campaign.add(LatencySpike("frontend", "1.0.0", "index", 2.0, 0.0, 9.0))
            target.install_campaign(campaign)
            target.simulation.run_until(0.0)
        population = UserPopulation(10, DEFAULT_GROUPS, seed=1)
        kernel = RequestKernel(bifrost.runtime, population)
        catalog = kernel.entry_edge("catalog.search")[1]
        frontend = kernel.entry_edge("frontend.index")[1]
        assert catalog[_N_NEEDS_LOAD] is False  # LogNormal base
        assert frontend[_N_NEEDS_LOAD] is True  # LoadSensitive base
        for node, service, endpoint in (
            (catalog, "catalog", "search"),
            (frontend, "frontend", "index"),
        ):
            model = twin.application.resolve(service).endpoint(endpoint).latency
            assert [node[_N_SAMPLE](1.5) for _ in range(5)] == [
                model.sample(twin.runtime.rng, 1.5) for _ in range(5)
            ]

    def test_collector_subscribers_select_the_span_hop(self):
        """Subscribers make the kernel build and feed every trace; without
        one it retains no traces (clean and hostile slices alike)."""
        seen: list[str] = []

        def build():
            bifrost = Bifrost(sample_application(), seed=1)
            bifrost.collector.subscribe(lambda trace: seen.append(trace.trace_id))
            return bifrost

        scalar, batch = _both_paths(build, requests=40)
        assert seen[:40] == seen[40:] == scalar.collector.trace_ids
        assert batch.collector.trace_ids == scalar.collector.trace_ids

        _, silent = _both_paths(lambda: Bifrost(sample_application(), seed=1), 40)
        assert len(silent.collector) == 0

    def test_shadow_routes_and_header_audiences_do_not_block(self):
        """Both compile into route records: a shadow selects the general
        hop, a header audience keeps the plain one."""
        bifrost = Bifrost(sample_application(), seed=1)
        bifrost.router.install(
            ExperimentRoute(
                experiment="shadow-exp",
                service="catalog",
                variants=(Variant("1.0.0", 1.0),),
                shadow_versions=("2.0.0",),
            )
        )
        kernel = _row_kernel(bifrost)
        assert not kernel._route_per_hop and kernel._general
        bifrost.router.uninstall("catalog")
        bifrost.router.install(
            ExperimentRoute(
                experiment="header-exp",
                service="catalog",
                variants=(Variant("1.0.0", 1.0),),
                audience=AudienceFilter(headers={"beta": "1"}),
            )
        )
        kernel = _row_kernel(bifrost)
        assert not kernel._route_per_hop and not kernel._general

    @pytest.mark.parametrize(
        "headers, expected_users",
        [
            ({"user-id": "u0000007"}, {"u0000007"}),
            ({"beta": "1"}, set()),
            ({"user-id": "u0000007", "beta": "1"}, set()),
        ],
    )
    def test_header_audience_is_decided_per_user(self, headers, expected_users):
        """A batch row's headers are exactly ``{"user-id": ...}``: a
        ``user-id`` filter admits that one user (shadows included), any
        other key admits nobody — and either way equals scalar."""

        def build():
            bifrost = Bifrost(build_app(0.0, 1.0, False), seed=1)
            bifrost.router.install(
                ExperimentRoute(
                    experiment="header-exp",
                    service="catalog",
                    variants=(Variant("2.0.0", 1.0),),
                    audience=AudienceFilter(headers=headers),
                    shadow_versions=("2.0.0",),
                )
            )
            return bifrost

        scalar, batch = _both_paths(build)
        assert batch.router.assigner("header-exp")._seen == expected_users
        assert scalar.router.assigner("header-exp")._seen == expected_users

    def test_partition_keeps_assignment_lazy(self):
        """inventory is "certainly" reached through catalog, but with the
        frontend|catalog link cut only the probabilistic direct call
        reaches it — bulk prefill would assign users scalar never saw."""

        def build():
            network = NetworkState()
            network.partition("frontend", "catalog")
            bifrost = Bifrost(build_app(0.0, 0.6, False), seed=1, network=network)
            bifrost.router.install(
                ExperimentRoute(
                    experiment="inventory-split",
                    service="inventory",
                    variants=(Variant("1.0.0", 0.5), Variant("2.0.0", 0.5)),
                )
            )
            return bifrost

        scalar, batch = _both_paths(build, requests=60)
        seen = batch.router.assigner("inventory-split")._seen
        assert seen == scalar.router.assigner("inventory-split")._seen
        assert 0 < len(seen) < 60

    def test_variant_without_the_endpoint_keeps_assignment_lazy(self):
        """catalog 3.0.0 lacks ``search`` and sits in a 0 % arm, so no
        request is routed there and the run equals scalar; certainty stops
        at catalog, so inventory (reached for sure only through it) is
        assigned lazily, user by user, like scalar."""

        def build():
            app = build_app(0.0, 0.6, False)
            app.deploy(
                ServiceVersion(
                    "catalog", "3.0.0", {"list": EndpointSpec("list", ConstantLatency(1.0))}
                )
            )
            bifrost = Bifrost(app, seed=1)
            for experiment, service, variants in (
                ("catalog-ramp", "catalog", (Variant("1.0.0", 1.0), Variant("3.0.0", 0.0))),
                ("inventory-split", "inventory", (Variant("1.0.0", 0.5), Variant("2.0.0", 0.5))),
            ):
                bifrost.router.install(ExperimentRoute(experiment, service, variants))
            return bifrost

        scalar, batch = _both_paths(build, requests=60)
        assert _row_kernel(batch)._certain_services("frontend.index") == {"frontend", "catalog"}
        for experiment in ("catalog-ramp", "inventory-split"):
            batch_assigner = batch.router.assigner(experiment)
            scalar_assigner = scalar.router.assigner(experiment)
            assert batch_assigner._seen == scalar_assigner._seen
            assert batch_assigner._counts == scalar_assigner._counts

    def test_custom_router_and_opaque_gate_run_on_the_kernel(self):
        """A router the kernel cannot compile is asked on every hop with
        the row's ``Request``, a gate without ``partitions`` is asked on
        every call: both on the kernel's general hop, equal to scalar."""

        def build():
            bifrost = Bifrost(build_app(0.0, 0.6, False), seed=1)
            network = NetworkState()
            network.partition("catalog", "inventory")
            bifrost.runtime.router = _ParityRouter()
            bifrost.runtime.network = _OpaqueGate(network)
            return bifrost

        scalar, batch = _both_paths(build)
        kernel = _row_kernel(batch)
        assert kernel._route_per_hop and kernel._general
        assert kernel._network is batch.runtime.network
        versions = {key.version for key in batch.store.keys() if key.service == "catalog"}
        assert versions == {"1.0.0", "2.0.0"}
        # No subscriber: the rows build no spans, though a router is asked.
        assert len(batch.collector) == 0


class TestHostileGuard:
    """Tier-1 guard: the four ``hostile_canary`` benchmark configurations
    (shadow route, fault campaign, retry + breaker, trace subscriber)
    run every request, and feed the subscriber and live health exactly
    when one is attached."""

    @pytest.mark.parametrize(
        "hostile",
        [
            Hostile(shadow="all"),
            Hostile(faults=True),
            Hostile(policy="retry", breaker=True),
            Hostile(subscriber=True, live_health=True),
        ],
        ids=["shadow", "faults", "resilience", "live_health"],
    )
    def test_hostile_configurations_never_fall_back(self, hostile):
        params = (0.02, 1.0, False, 0.1, 5, "constant")
        bifrost, _, seen, result = run_batch(params, hostile=hostile)
        assert result.requests == 480
        assert len(seen) == (result.requests if hostile.subscriber else 0)
        if hostile.live_health:
            assert bifrost.streaming_builder.trace_count == result.requests
            assert bifrost.live_health.publishes > 0


class TestTraceIdBookkeeping:
    def test_advance_skips_exactly_count_ids(self):
        bifrost = Bifrost(sample_application(), seed=1)
        runtime = bifrost.runtime
        first = runtime.next_trace_id()
        runtime.advance_trace_ids(3)
        after = runtime.next_trace_id()
        assert int(after[1:]) == int(first[1:]) + 4

    def test_advance_ignores_non_positive_counts(self):
        bifrost = Bifrost(sample_application(), seed=1)
        runtime = bifrost.runtime
        first = runtime.next_trace_id()
        runtime.advance_trace_ids(0)
        runtime.advance_trace_ids(-5)
        assert int(runtime.next_trace_id()[1:]) == int(first[1:]) + 1


class TestRunBatchesDriver:
    def test_empty_workload_with_until_advances_clock(self):
        bifrost = Bifrost(sample_application(), seed=1)
        result = run_batches(
            bifrost.simulation, bifrost.runtime, [], until=25.0
        )
        assert result.requests == 0
        assert bifrost.simulation.now == 25.0


class TestGoldenCasesOnTheKernel:
    """Every scalar golden case through ``run_batches``, with and without
    a trace subscriber, and three of them behind a gate the kernel cannot
    inspect: equal to scalar ``Bifrost.run`` (span for span while
    subscribed), every request on the kernel."""

    @staticmethod
    def build(name: str, opaque_gate: bool, subscriber: bool):
        params, hostile, extra = CASES[name]
        bifrost, execution, seen = build_bifrost(params, hostile)
        if extra is not None:
            extra(bifrost)
        if opaque_gate:
            bifrost.runtime.network = _OpaqueGate(bifrost.runtime.network)
        if subscriber:
            bifrost.collector.subscribe(
                lambda trace: seen.append((trace.trace_id, len(trace.spans)))
            )
        return bifrost, execution, seen

    @pytest.mark.parametrize("subscriber", [False, True], ids=["silent", "subscribed"])
    @pytest.mark.parametrize(
        "name, opaque_gate",
        [pytest.param(name, False, id=name) for name in sorted(CASES)]
        + [
            pytest.param(name, True, id=f"{name}+opaque-gate")
            for name in ("clean", "custom-router", "everything")
        ],
    )
    def test_run_batches_equals_scalar_run(self, name, opaque_gate, subscriber):
        params = CASES[name][0]
        population = UserPopulation(300, DEFAULT_GROUPS, seed=1)

        def workload(generator_class):
            generator = generator_class(population, entry="frontend.index", seed=params[4])
            return make_workload(generator, params[5])

        scalar = self.build(name, opaque_gate, subscriber)
        scalar[0].run(workload(WorkloadGenerator), until=UNTIL)
        batch = self.build(name, opaque_gate, subscriber)
        result = batch[0].run_batches(workload(BatchWorkloadGenerator), until=UNTIL)
        assert_equivalent(scalar, (*batch, result))
        if subscriber:
            assert dump_traces(batch[0].collector) == dump_traces(scalar[0].collector)

"""Unit tests for the batch execution kernel's building blocks.

The scalar-vs-batch *equivalence* is covered by
``tests/property/test_batch_equivalence.py``; here we pin the individual
pieces: the columnar append paths, bulk trace ingestion, hop selection,
and trace-id bookkeeping — plus every scalar golden case driven through
``run_batches``.
"""

import gc
import random
import time
from collections import deque

import numpy as np
import pytest

from repro.bifrost.middleware import Bifrost
from repro.errors import StatisticsError
from repro.microservices.faults import (
    ErrorBurst,
    FaultCampaign,
    FaultInjector,
    LatencySpike,
    NetworkState,
)
from repro.microservices.kernel import columns
from repro.microservices.kernel.columns import _arrive, _loads
from repro.microservices.kernel.core import RequestKernel
from repro.microservices.kernel.plan import plan
from repro.microservices.resilience import CallPolicy, ResilienceLayer
from repro.microservices.service import EndpointSpec, ServiceVersion
from repro.routing.rules import AudienceFilter, ExperimentRoute, Variant
from repro.simulation import batch as batch_module
from repro.simulation.batch import run_batches
from repro.simulation.latency import ConstantLatency
from repro.stats.timeseries import TimeSeries
from repro.telemetry.store import MetricStore
from repro.tracing.collector import TraceCollector
from repro.tracing.span import Span, next_span_id
from repro.traffic.batch import BatchWorkloadGenerator
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator

from repro.topology.builder import Observation
from repro.topology.scenarios import sample_application
from repro.topology.streaming import StreamingGraphBuilder
from repro.tracing.trace import Trace
from tests.integration.test_scalar_golden import CASES, _ParityRouter
from tests.property.test_batch_equivalence import (
    UNTIL,
    Hostile,
    assert_equivalent,
    build_app,
    build_bifrost,
    build_strategy,
    dump_traces,
    make_workload,
    run_batch,
)
from tests.property.test_columnar_slice import build_bifrost as build_columnar_bifrost
from tests.property.test_columnar_slice import plain_app


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


def _settled(assigner):
    """*assigner* with its pending bulk rows folded into the ledger."""
    assigner._settle()
    return assigner


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
            return kernel.entry_edge("catalog.list").node.error_rate

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
        catalog = kernel.entry_edge("catalog.search").node
        frontend = kernel.entry_edge("frontend.index").node
        assert catalog.needs_load is False  # LogNormal base
        assert frontend.needs_load is True  # LoadSensitive base
        for node, service, endpoint in (
            (catalog, "catalog", "search"),
            (frontend, "frontend", "index"),
        ):
            model = twin.application.resolve(service).endpoint(endpoint).latency
            assert [node.sample(1.5) for _ in range(5)] == [
                model.sample(twin.runtime.rng, 1.5) for _ in range(5)
            ]

    def test_the_plan_accepts_a_retried_entry(self):
        """No policy applies to the entry call (its caller is the user), so
        a policy on the entry's service leaves the slice on the plan."""
        resilience = ResilienceLayer()
        resilience.set_policy(CallPolicy(max_retries=1), "catalog")
        bifrost = Bifrost(build_app(0.0, 1.0, False), seed=1, resilience=resilience)
        population = UserPopulation(10, DEFAULT_GROUPS, seed=1)
        assert plan(RequestKernel(bifrost.runtime, population), "catalog.search") is not None

    def test_collector_subscribers_select_the_span_hop(self):
        """Subscribers make the kernel build and feed every trace; without
        one it retains no traces (clean and hostile slices alike)."""
        seen: list[str] = []

        def build():
            bifrost = Bifrost(sample_application(), seed=1)
            bifrost.collector.subscribe(lambda trace: seen.append(trace.trace_id))
            return bifrost

        scalar, batch = _both_paths(build, requests=40)
        ids = [trace.trace_id for trace in scalar.collector.traces()]
        assert seen[:40] == seen[40:] == ids
        assert [trace.trace_id for trace in batch.collector.traces()] == ids

        _, silent = _both_paths(lambda: Bifrost(sample_application(), seed=1), 40)
        assert len(silent.collector) == 0

    @pytest.mark.parametrize(
        "attach",
        [(), ("builder",), ("spans",), ("builder", "spans"), ("spans", "builder")],
        ids=["none", "builder", "spans", "builder_then_spans", "spans_then_builder"],
    )
    def test_subscriber_kinds_select_the_hop(self, attach):
        """Only a collector whose subscribers all have a column entry point
        (or that has none) keeps the columnar slice: a span-only
        subscriber, attached before or after the streaming builder, puts
        the rows on the general hop, which builds their spans."""
        bifrost = Bifrost(sample_application(), seed=1)
        for kind in attach:
            if kind == "builder":
                StreamingGraphBuilder().attach(bifrost.collector)
            else:
                bifrost.collector.subscribe(lambda trace: None)
        columnar = attach in ((), ("builder",))
        assert _row_kernel(bifrost)._general is not columnar
        assert bool(bifrost.collector.column_subscribers) is (attach == ("builder",))

    def test_shadow_routes_and_group_audiences_do_not_block(self):
        """Both compile into route records and keep the plain hop: a
        shadow becomes one more plan position, a group audience is
        decided per user."""
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
        assert not kernel._route_per_hop and not kernel._general
        bifrost.router.uninstall("catalog")
        bifrost.router.install(
            ExperimentRoute(
                experiment="group-exp",
                service="catalog",
                variants=(Variant("1.0.0", 1.0),),
                audience=AudienceFilter(groups=frozenset({DEFAULT_GROUPS[0].name})),
            )
        )
        kernel = _row_kernel(bifrost)
        assert not kernel._route_per_hop and not kernel._general

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
        seen = _settled(batch.router.assigner("inventory-split"))._seen
        assert seen == _settled(scalar.router.assigner("inventory-split"))._seen
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
        assert columns._certain_services(_row_kernel(batch), "frontend.index") == {
            "frontend", "catalog"
        }
        for experiment in ("catalog-ramp", "inventory-split"):
            batch_assigner = _settled(batch.router.assigner(experiment))
            scalar_assigner = _settled(scalar.router.assigner(experiment))
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
    (shadow route, fault campaign, retry + breaker, live health), a
    breaker storm (a failing canary behind the tight breaker) and a span
    subscriber run every request, and feed the subscriber and live health
    exactly when one is attached.  The plan accepts every slice but the
    span subscriber's, which all run the general hop; each case prints
    its slices per hop and the rows a breaker's cut sent to the general
    hop."""

    @pytest.mark.parametrize(
        "hostile, canary_error",
        [
            (Hostile(shadow="all"), 0.02),
            (Hostile(faults=True), 0.02),
            (Hostile(policy="retry", breaker=True), 0.02),
            (Hostile(live_health=True), 0.02),
            (Hostile(policy="retry", breaker=True), 0.4),
            (Hostile(subscriber=True), 0.02),
        ],
        ids=["shadow", "faults", "resilience", "live_health", "breaker_storm", "span_subscriber"],
    )
    def test_hostile_configurations_never_fall_back(
        self, hostile, canary_error, request, monkeypatch
    ):
        planned, columnar = columns.plan, []
        run_rows, general_rows = columns._run_rows, []

        def counted(kernel, entry):
            positions = planned(kernel, entry)
            columnar.append(positions is not None)
            return positions

        def rows(kernel, batch, lo, hi, now):
            general_rows.append(hi - lo)
            return run_rows(kernel, batch, lo, hi, now)

        monkeypatch.setattr(columns, "plan", counted)
        monkeypatch.setattr(columns, "_run_rows", rows)
        params = (canary_error, 1.0, False, 0.1, 5, "constant")
        bifrost, _, seen, result = run_batch(params, hostile=hostile)
        general = result.fast_slices - sum(columnar)
        cut = 0 if hostile.subscriber else sum(general_rows)
        print(
            f"\n{request.node.callspec.id}: {sum(columnar)} columnar, {general} general "
            f"slices; {cut} rows after a breaker cut on the general hop "
            f"({cut / result.requests:.1%})"
        )
        if hostile.subscriber:
            assert not any(columnar) and general == result.fast_slices > 0
        else:
            assert all(columnar) and general == 0 < len(columnar)
        assert result.requests == 480
        assert len(seen) == (result.requests if hostile.subscriber else 0)
        if canary_error == 0.4:
            assert bifrost.resilience.breaker_transitions() and 0 < cut < result.requests
        if hostile.live_health:
            assert bifrost.streaming_builder.trace_count == result.requests
            assert bifrost.live_health.publishes > 0
            assert len(bifrost.collector) == 0


class TestLiveHealthFootprint:
    """Live health on the columnar slice holds O(window) state: the
    collector keeps no trace and the builder no per-trace bookkeeping, so
    a run leaves no ``Span``, ``Trace`` or ``Observation`` alive and the
    objects alive after it do not grow with its length.  (At the
    span path's ≈ 17 tracked objects per row, the 2× run would add
    ≈ 50 000.)  Prints the cyclic GC's collection time per run."""

    #: Tracked objects the 2× run may add; it added 135 when measured
    #: (mostly tuples and dicts, ≈ 9 per extra health publish).
    SLACK = 500

    @staticmethod
    def spans_traces_observations() -> int:
        kinds = (Span, Trace, Observation)
        return sum(isinstance(o, kinds) for o in gc.get_objects())

    def run(self, seconds: float):
        gc.collect()
        before = self.spans_traces_observations()
        population = UserPopulation(2_000, DEFAULT_GROUPS, seed=1)
        bifrost = build_columnar_bifrost(plain_app(), 0.3, False, "audience")
        bifrost.enable_live_health(window_seconds=5.0, publish_interval=1.0)
        bifrost.submit(build_strategy(0.3), at=1.0)
        generator = BatchWorkloadGenerator(population, entry="frontend.index", seed=5)
        batches = list(generator.poisson(200.0, seconds))
        collected = []

        def timer(phase, info):
            collected.append(time.perf_counter())

        gc.collect()
        gc.callbacks.append(timer)
        try:
            result = bifrost.run_batches(batches, until=seconds + 1.0)
        finally:
            gc.callbacks.remove(timer)
        del batches
        gc.collect()
        objects = gc.get_objects()
        gc_ms = 1000.0 * sum(stop - start for start, stop in zip(collected[::2], collected[1::2]))
        print(
            f"\n{seconds:.0f} s: {result.requests} rows, {len(objects)} tracked objects, "
            f"{len(collected) // 2} collections in {gc_ms:.2f} ms"
        )
        assert bifrost.streaming_builder.trace_count == result.requests
        assert bifrost.live_health.publishes > 0
        assert len(bifrost.collector) == 0
        assert self.spans_traces_observations() == before
        return len(objects)

    def test_tracked_objects_do_not_grow_with_the_run(self):
        once = self.run(15.0)
        twice = self.run(30.0)
        assert abs(twice - once) <= self.SLACK


def replay_hops(arrivals, starts, window) -> list:
    """The general hop's load observation, one hop at a time: append,
    expire while the head is before the cutoff; each hop's deque length."""
    lengths = []
    for start in starts:
        arrivals.append(start)
        cutoff = start - window
        while arrivals[0] < cutoff:
            arrivals.popleft()
        lengths.append(len(arrivals))
    return lengths


def hop_starts(rng, clock: float, rows: int) -> list:
    """Rows' root starts in order, each followed by 0-2 child starts a
    little later, which may fall after the next rows' roots; some on a
    1 ms grid, so starts tie."""
    starts = []
    for _ in range(rows):
        clock += rng.expovariate(200.0)
        starts.append(clock)
        starts.extend(clock + rng.uniform(0.0, 0.05) for _ in range(rng.randint(0, 2)))
    if rng.random() < 0.3:
        starts = [round(start, 3) for start in starts]
    return starts


class TestLoadDeques:
    """``_loads`` (each hop's deque length, the deque untouched) and
    ``_arrive`` (the final contents) against the hop-by-hop replay,
    exactly, over non-monotone starts and random windows."""

    @pytest.mark.parametrize("seed", range(60))
    def test_lengths_and_contents_match_the_hop_by_hop_replay(self, seed):
        rng = random.Random(seed)
        window = rng.choice([1e-3, 0.02, 0.5, 10.0, rng.uniform(1e-3, 2.0)])
        reference: deque = deque()
        history = hop_starts(rng, 0.0, rng.randint(0, 400))
        replay_hops(reference, history, window)
        starts = hop_starts(rng, history[-1] if history else 0.0, rng.randint(1, 300))
        ours = deque(reference)
        lengths = _loads(ours, np.array(starts), window)
        assert list(ours) == list(reference)
        assert lengths.tolist() == replay_hops(reference, starts, window)
        _arrive(ours, starts, window)
        assert list(ours) == list(reference)

    def test_a_long_deque_that_expires_is_read_in_growing_heads(self):
        """Far more arrivals expire than the hops number: ``_loads`` reads
        the deque's head in doubling pieces until it covers them."""
        reference = deque(i / 1000.0 for i in range(5_000))
        starts = [10.0, 9.9995, 10.002]
        ours = deque(reference)
        assert _loads(ours, np.array(starts), 0.5).tolist() == replay_hops(
            reference, starts, 0.5
        )
        _arrive(ours, starts, 0.5)
        assert list(ours) == list(reference) == starts


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

    def test_the_middleware_calls_the_module_attribute(self, monkeypatch):
        """``Bifrost.run_batches`` looks ``run_batches`` up on its module
        per call, so a wrapper installed there after import (the
        benchmark tracer's kernel timer) sees every batch run."""
        calls = []

        def wrapped(*args, **kwargs):
            calls.append(args[1])
            return run_batches(*args, **kwargs)

        bifrost = Bifrost(sample_application(), seed=1)
        monkeypatch.setattr(batch_module, "run_batches", wrapped)
        result = bifrost.run_batches([], until=5.0)
        assert calls == [bifrost.runtime] and result.requests == 0


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

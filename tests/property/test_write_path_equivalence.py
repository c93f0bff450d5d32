"""Property: the buffered sample write path equals the per-sample one.

``Runtime.replay``, ``ReplayBackend.execute`` and ``SlotTrafficFeed.feed``
buffer span samples per (service, version) and land them with
``extend_columns``; they used to call ``MetricStore.record`` three times
per span.  The old loops live on here, verbatim, as oracles: for random
interleavings of requests and engine events — events at exactly a
request's timestamp, out-of-order span starts (children start after but
finish before their parent), shadow hops, retries, breakers, partitions —
both paths must leave a byte-equal ``MetricStore.snapshot()``, an equal
``run_digest``, and show every engine event the same store.

CI runs this file under ``PYTHONHASHSEED=0`` and ``=1``: the feed's
``sample_count`` sums group shares over a ``frozenset``.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bifrost.engine import BifrostEngine
from repro.bifrost.model import strategy_from_dict
from repro.exec import ExecutionRouter
from repro.exec.recording import run_digest
from repro.exec.replay import ReplayBackend
from repro.fenrir.model import ExperimentSpec, SchedulingProblem
from repro.fleet.traffic import SlotTrafficFeed
from repro.microservices.runtime import RequestOutcome
from repro.obs.observer import Observer
from repro.routing.proxy import VersionRouter
from repro.simulation.batch import RequestKernel
from repro.simulation.clock import SimulationClock
from repro.simulation.engine import SimulationEngine
from repro.simulation.rng import SeededRng
from repro.telemetry.store import MetricStore
from repro.tracing.trace import Trace
from repro.traffic.profile import DEFAULT_GROUPS, TrafficProfile, UserGroup
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator
from tests.property.test_batch_equivalence import (
    DURATION,
    UNTIL,
    Hostile,
    build_app,
    build_bifrost,
    build_strategy,
    make_workload,
)

# -- oracles: the per-sample loops, verbatim ----------------------------------


def observe_spans(store, spans):
    """``Monitor.observe_spans`` as it was: three ``record`` calls a span."""
    for span in spans:
        store.record(
            span.service, span.version, "response_time", span.start, span.duration_ms
        )
        store.record(
            span.service, span.version, "error", span.start, 1.0 if span.error else 0.0
        )
        store.record(span.service, span.version, "throughput", span.start, 1.0)


def reference_execute(runtime, request, kernel):
    """``Runtime.execute`` as it was: spans go straight to the store."""
    if request.timestamp > runtime.clock.now:
        runtime.clock.advance_to(request.timestamp)
    trace_id, spans, duration, error = kernel.execute_request(
        request, runtime.clock.now
    )
    runtime.collector.record_all(spans)
    observe_spans(runtime.monitor.store, spans)
    runtime.requests_executed += 1
    return RequestOutcome(request, Trace(trace_id, spans), duration, error)


def reference_replay(runtime, simulation, requests):
    """``Runtime.replay`` as it was: no buffer, no flush points."""
    kernel = None
    for request in requests:
        ran = simulation.run_until(max(request.timestamp, simulation.now))
        if ran or kernel is None:
            kernel = RequestKernel(runtime)
        yield reference_execute(runtime, request, kernel)


def reference_replay_backend(recording, application_factory):
    """``ReplayBackend.execute``'s stack and loop as they were."""
    simulation = SimulationEngine(SimulationClock())
    store = MetricStore()
    engine = BifrostEngine(
        simulation=simulation,
        application=application_factory(),
        router=VersionRouter(),
        store=store,
        observer=Observer(enabled=True),
    )
    engine.submit(strategy_from_dict(recording.strategy_doc), at=recording.submit_at)
    for request in recording.requests:
        simulation.run_until(max(request.timestamp, simulation.now))
        for span in request.spans:
            store.record(
                span.service, span.version, "response_time", span.start,
                span.duration_ms,
            )
            store.record(
                span.service, span.version, "error", span.start,
                1.0 if span.error else 0.0,
            )
            store.record(span.service, span.version, "throughput", span.start, 1.0)
    simulation.run_until(max(recording.end_time, simulation.now))
    return store, engine


def reference_feed(
    feed, store, name, slot, fraction, groups, service, stable, experimental,
    error_delta=0.0, latency_factor=1.0,
):
    """``SlotTrafficFeed.feed`` as it was; also returns the RNG it drew from."""
    count = feed.sample_count(slot, fraction, groups)
    if count == 0:
        return 0, None
    rng = SeededRng(feed.seed).fork(f"feed:{name}:{slot}")
    t0 = slot * feed.slot_seconds
    step = feed.slot_seconds / count
    exp_error = min(1.0, feed.base_error + error_delta)
    exp_latency = feed.base_latency_ms * latency_factor
    for i in range(count):
        at = t0 + (i + 0.5) * step
        for version, err_rate, latency in (
            (stable, feed.base_error, feed.base_latency_ms),
            (experimental, exp_error, exp_latency),
        ):
            errored = 1.0 if rng.uniform(0.0, 1.0) < err_rate else 0.0
            store.record(service, version, "error", at, errored)
            store.record(
                service,
                version,
                "response_time",
                at,
                max(1.0, rng.gauss(latency, latency * 0.1)),
            )
            store.record(service, version, "throughput", at, 1.0)
    return count, rng


# -- Runtime.replay -----------------------------------------------------------

HOSTILES = [
    Hostile(),
    Hostile(shadow="all"),
    Hostile(shadow="eu", policy="retry"),
    Hostile(policy="timeout", breaker=True),
    Hostile(policy="fallback", partition=True, faults=True),
    Hostile(shadow="all", policy="retry", breaker=True, subscriber=True),
]


def drive(params, hostile, probe_picks, between, replay):
    """One run; returns (bifrost, execution, what each probe event saw).

    Probes are engine events that read the store: some at exactly a
    request's timestamp (they must see every earlier request's samples
    and none of that request's), some between requests.
    """
    bifrost, execution, _ = build_bifrost(params, hostile)
    population = UserPopulation(300, DEFAULT_GROUPS, seed=1)
    generator = WorkloadGenerator(population, entry="frontend.index", seed=params[4])
    requests = list(make_workload(generator, params[5]))
    seen = []

    def probe():
        seen.append((bifrost.simulation.now, bifrost.store.snapshot()))

    times = [requests[pick % len(requests)].timestamp for pick in probe_picks]
    for at in times + list(between):
        bifrost.simulation.schedule_at(at, probe, "probe")
    outcomes = list(replay(bifrost.runtime, bifrost.simulation, requests))
    bifrost.simulation.run_until(UNTIL)
    assert len(outcomes) == len(requests)
    return bifrost, execution, seen


class TestRuntimeReplayEqualsPerSample:
    @settings(max_examples=12, deadline=None)
    @given(
        hostile=st.sampled_from(HOSTILES),
        canary_error=st.sampled_from([0.0, 0.4]),
        call_probability=st.sampled_from([1.0, 0.6]),
        parallel=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
        kind=st.sampled_from(["poisson", "heavy_tail", "constant"]),
        probe_picks=st.lists(st.integers(0, 10_000), max_size=6),
        between=st.lists(
            st.floats(min_value=0.0, max_value=DURATION), max_size=4
        ),
    )
    def test_store_digest_and_event_views_match(
        self, hostile, canary_error, call_probability, parallel, seed, kind,
        probe_picks, between,
    ):
        params = (canary_error, call_probability, parallel, 0.3, seed, kind)
        buffered = drive(
            params, hostile, probe_picks, between,
            lambda runtime, simulation, requests: runtime.replay(
                simulation, requests
            ),
        )
        reference = drive(params, hostile, probe_picks, between, reference_replay)
        assert buffered[0].store.snapshot() == reference[0].store.snapshot()
        assert run_digest(
            buffered[0].store, buffered[0].engine.executions
        ) == run_digest(reference[0].store, reference[0].engine.executions)
        assert buffered[2] == reference[2]
        assert buffered[1].outcome == reference[1].outcome
        assert buffered[0].resilience.events == reference[0].resilience.events


# -- ReplayBackend.execute ----------------------------------------------------


class TestReplayBackendEqualsPerSample:
    @settings(max_examples=8, deadline=None)
    @given(
        canary_error=st.sampled_from([0.0, 0.4]),
        call_probability=st.sampled_from([1.0, 0.6]),
        parallel=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
        # "constant" puts a request on every engine tick: arrivals every
        # 1/40 s from 0, ticks every 2 s from submit_at=1.0.
        kind=st.sampled_from(["poisson", "constant"]),
    )
    def test_replayed_store_and_digest_match(
        self, canary_error, call_probability, parallel, seed, kind
    ):
        def factory():
            return build_app(canary_error, call_probability, parallel)

        population = UserPopulation(300, DEFAULT_GROUPS, seed=1)
        generator = WorkloadGenerator(population, entry="frontend.index", seed=seed)
        recorded = ExecutionRouter(factory, seed=7).run(
            build_strategy(0.3),
            workload=make_workload(generator, kind),
            until=UNTIL,
            submit_at=1.0,
            record=True,
        )
        recording = recorded.recording
        replayed = ReplayBackend(factory).execute(recording)
        store, engine = reference_replay_backend(recording, factory)
        assert replayed.store.snapshot() == store.snapshot()
        assert replayed.digest == run_digest(store, engine.executions)
        assert replayed.digest == recording.digest


# -- SlotTrafficFeed.feed -----------------------------------------------------


def feed_problem(groups, horizon=8):
    profile = TrafficProfile([40_000.0 + 5_000.0 * s for s in range(horizon)], groups)
    spec = ExperimentSpec(
        name="exp",
        required_samples=100.0,
        min_traffic_fraction=0.01,
        max_traffic_fraction=1.0,
        max_duration_slots=horizon,
    )
    return SchedulingProblem(profile, [spec])


class TestFeedEqualsPerSample:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        # Out of order and with repeats: recovery re-feeds committed slots.
        slots=st.lists(st.integers(-1, 8), min_size=1, max_size=8),
        fraction=st.sampled_from([0.0005, 0.01, 0.05, 1.0]),
        two_groups=st.booleans(),
        error_delta=st.sampled_from([0.0, 0.3, 2.0]),
        latency_factor=st.sampled_from([1.0, 0.001, 1.7]),
        same_version=st.booleans(),
    )
    def test_store_count_and_rng_state_match(
        self, seed, slots, fraction, two_groups, error_delta, latency_factor,
        same_version,
    ):
        groups = (
            [UserGroup("a", 0.25), UserGroup("b", 0.75)]
            if two_groups
            else [UserGroup("a", 1.0)]
        )
        held = ("a", "b") if two_groups else ("a",)
        feed = SlotTrafficFeed(feed_problem(groups), seed, slot_seconds=30.0)
        experimental = "1.0.0" if same_version else "2.0.0"
        new_store, old_store = MetricStore(), MetricStore()
        forked = []
        fork = SeededRng.fork

        def capturing_fork(self, label):
            forked.append(fork(self, label))
            return forked[-1]

        with mock.patch.object(SeededRng, "fork", capturing_fork):
            for slot in slots:
                del forked[:]
                got = feed.feed(
                    new_store, "exp", slot, fraction, held, "svc", "1.0.0",
                    experimental, error_delta, latency_factor,
                )
                want, rng = reference_feed(
                    feed, old_store, "exp", slot, fraction, held, "svc", "1.0.0",
                    experimental, error_delta, latency_factor,
                )
                assert got == want
                if rng is None:
                    assert forked == []
                else:
                    # forked[0] is feed()'s stream, forked[1] the oracle's.
                    assert forked[0].raw.getstate() == rng.raw.getstate()
        assert new_store.snapshot() == old_store.snapshot()

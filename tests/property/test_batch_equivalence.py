"""Property: ``run_batches`` is bit-identical to request-by-request ``run``.

The contract of ``repro.simulation.batch`` is that running a workload
through ``Bifrost.run_batches`` produces *exactly* the state a
``Bifrost.run`` replay would: the same metric samples (every
timestamp and value, bit for bit), the same strategy transitions and
check evaluations, the same sticky-assignment state, the same promotion
or abort decision, the same clock.  Hypothesis drives randomized
topologies, canary fractions, arrival processes, and seeds through both
drivers and diffs the full observable state — including *hostile* runs
(shadow routes, retry/fallback policies, circuit breakers,
partitions, trace subscribers), which the kernel executes itself
instead of falling back.

Both drivers run the request kernel's hop, so this suite pins what still
differs between them — plain hop vs general hop, row vs ``Request``
resolution, lazy vs bulk assignment, ``record`` vs ``extend_columns``,
``record_all`` vs ``record_trace`` — and ``run_scalar`` below means
``Bifrost.run``.  The hop's absolute draw order is pinned by the golden
digests in ``tests/integration/test_scalar_golden.py``.
"""

from dataclasses import dataclass
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.microservices.kernel import columns
from repro.bifrost.middleware import Bifrost
from repro.bifrost.model import Check, Phase, PhaseType, Strategy
from repro.microservices.application import Application
from repro.microservices.faults import (
    ErrorBurst,
    FaultCampaign,
    FaultInjector,
    LatencySpike,
    NetworkState,
    Partition,
)
from repro.microservices.resilience import (
    BreakerConfig,
    BreakerState,
    CallPolicy,
    ResilienceLayer,
)
from repro.microservices.service import (
    DownstreamCall,
    EndpointSpec,
    ServiceVersion,
)
from repro.routing.rules import AudienceFilter, ExperimentRoute, Variant
from repro.simulation.latency import (
    ConstantLatency,
    LoadSensitiveLatency,
    LogNormalLatency,
)
from repro.traffic.batch import BatchWorkloadGenerator
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator

RATE = 40.0
DURATION = 12.0
UNTIL = 20.0


def build_app(
    canary_error: float, call_probability: float, parallel: bool
) -> Application:
    app = Application()
    app.deploy(
        ServiceVersion(
            "frontend",
            "1.0.0",
            {
                "index": EndpointSpec(
                    "index",
                    LoadSensitiveLatency(LogNormalLatency(20.0, 0.3)),
                    calls=(
                        DownstreamCall("catalog", "search"),
                        DownstreamCall(
                            "inventory", "check", probability=call_probability
                        ),
                    ),
                    parallel_calls=parallel,
                )
            },
            capacity_rps=100.0,
        )
    )
    app.deploy(
        ServiceVersion(
            "catalog",
            "1.0.0",
            {
                "search": EndpointSpec(
                    "search",
                    LogNormalLatency(15.0, 0.25),
                    error_rate=0.01,
                    calls=(DownstreamCall("inventory", "check"),),
                )
            },
            capacity_rps=100.0,
        )
    )
    app.deploy(
        ServiceVersion(
            "catalog",
            "2.0.0",
            {
                "search": EndpointSpec(
                    "search",
                    LogNormalLatency(13.0, 0.25),
                    error_rate=canary_error,
                    calls=(DownstreamCall("inventory", "check"),),
                )
            },
            capacity_rps=100.0,
        )
    )
    app.deploy(
        ServiceVersion(
            "inventory",
            "1.0.0",
            {"check": EndpointSpec("check", ConstantLatency(4.0))},
            capacity_rps=200.0,
        )
    )
    # Never routed to; only receives dark-launch duplicates.
    app.deploy(
        ServiceVersion(
            "inventory",
            "2.0.0",
            {"check": EndpointSpec("check", LogNormalLatency(5.0, 0.2))},
            capacity_rps=200.0,
        )
    )
    return app


CANARY_CHECK = Check(
    name="error-rate",
    service="catalog",
    version="2.0.0",
    metric="error",
    aggregation="mean",
    operator="<=",
    threshold=0.05,
    window_seconds=6.0,
)


@dataclass(frozen=True)
class Hostile:
    """What makes a run hostile; the default is a clean run."""

    shadow: str | None = None  # None | "all" | a user-group name
    policy: str | None = None  # None or a key of POLICIES
    breaker: bool = False
    partition: bool = False
    faults: bool = False
    subscriber: bool = False  # a plain trace-stream subscriber
    live_health: bool = False  # the streaming topology fold + health scores


POLICIES = {
    # (policy, service scope, endpoint scope)
    "retry": (
        CallPolicy(max_retries=2, backoff_base_ms=5.0, jitter_ms=3.0),
        "catalog",
        None,
    ),
    # The default policy: every call but the entry's.
    "fallback": (CallPolicy(max_retries=1, fallback=True), None, None),
    "catalog_fallback": (CallPolicy(max_retries=1, fallback=True), "catalog", None),
}

TIGHT_BREAKER = BreakerConfig(
    failure_threshold=0.3,
    window_size=6,
    min_calls=3,
    open_seconds=1.0,
)


def build_strategy(fraction: float, shadow: str | None = None) -> Strategy:
    canary = Phase(
        name="canary",
        type=PhaseType.CANARY,
        service="catalog",
        stable_version="1.0.0",
        experimental_version="2.0.0",
        fraction=fraction,
        duration_seconds=10.0,
        check_interval_seconds=2.0,
        checks=(CANARY_CHECK,),
    )
    phases = (canary,)
    if shadow is not None:
        dark = Phase(
            name="dark",
            type=PhaseType.DARK_LAUNCH,
            service="catalog",
            stable_version="1.0.0",
            experimental_version="2.0.0",
            duration_seconds=4.0,
            check_interval_seconds=2.0,
            audience_groups=audience_groups(shadow),
            on_success="canary",
        )
        phases = (dark, canary)
    return Strategy(
        name="catalog-canary", description="equivalence scenario", phases=phases
    )


def audience_groups(shadow: str) -> frozenset:
    return frozenset() if shadow == "all" else frozenset({shadow})


def make_workload(generator, kind: str):
    if kind == "poisson":
        return generator.poisson(RATE, DURATION)
    if kind == "heavy_tail":
        return generator.heavy_tail(RATE, DURATION, alpha=1.7)
    return generator.constant(1.0 / RATE, int(RATE * DURATION))


def build_bifrost(params, hostile: Hostile):
    """A fresh middleware for one run; returns (bifrost, execution, traces
    the subscriber saw)."""
    canary_error, call_probability, parallel, fraction, _, _ = params
    resilience = None
    if hostile.policy or hostile.breaker:
        resilience = ResilienceLayer(TIGHT_BREAKER if hostile.breaker else None)
        if hostile.policy:
            policy, service, endpoint = POLICIES[hostile.policy]
            resilience.set_policy(policy, service, endpoint)
    network = NetworkState() if hostile.partition else None
    bifrost = Bifrost(
        build_app(canary_error, call_probability, parallel),
        seed=7,
        resilience=resilience,
        network=network,
    )
    if hostile.shadow is not None:
        # A second dark launch under the first one's callee: catalog's
        # shadow replays call inventory, which is shadowed in turn.
        bifrost.router.install(
            ExperimentRoute(
                experiment="inventory-dark",
                service="inventory",
                variants=(Variant("1.0.0", 1.0),),
                audience=AudienceFilter(groups=audience_groups(hostile.shadow)),
                shadow_versions=("2.0.0",),
            )
        )
    if hostile.partition or hostile.faults:
        campaign = FaultCampaign(FaultInjector(bifrost.application), network)
        if hostile.partition:
            campaign.add(Partition("catalog", "inventory", start=3.0, end=6.0))
        if hostile.faults:
            campaign.add(
                ErrorBurst("catalog", "1.0.0", "search", 0.3, start=4.0, end=8.0)
            )
            campaign.add(
                LatencySpike(
                    "inventory", "1.0.0", "check", 3.0, start=6.0, end=10.0
                )
            )
        bifrost.install_campaign(campaign)
    seen: list = []
    if hostile.subscriber:
        bifrost.collector.subscribe(
            lambda trace: seen.append((trace.trace_id, len(trace.spans)))
        )
    if hostile.live_health:
        bifrost.enable_live_health(publish_interval=2.0)
    execution = bifrost.submit(build_strategy(fraction, hostile.shadow), at=1.0)
    return bifrost, execution, seen


def run_scalar(params, hostile: Hostile = Hostile()):
    bifrost, execution, seen = build_bifrost(params, hostile)
    population = UserPopulation(300, DEFAULT_GROUPS, seed=1)
    generator = WorkloadGenerator(
        population, entry="frontend.index", seed=params[4]
    )
    bifrost.run(make_workload(generator, params[5]), until=UNTIL)
    return bifrost, execution, seen


def run_batch(params, traced: bool = False, hostile: Hostile = Hostile()):
    """*traced* attaches a no-op trace subscriber, which makes the kernel
    build and collect every span."""
    bifrost, execution, seen = build_bifrost(params, hostile)
    if traced:
        bifrost.collector.subscribe(lambda trace: None)
    population = UserPopulation(300, DEFAULT_GROUPS, seed=1)
    generator = BatchWorkloadGenerator(
        population, entry="frontend.index", seed=params[4]
    )
    result = bifrost.run_batches(make_workload(generator, params[5]), until=UNTIL)
    return bifrost, execution, seen, result


def dump_traces(collector):
    """Every retained trace, span by span.

    Span ids come from a process-global counter, so their absolute
    values differ between two runs; normalize to the span's allocation
    rank within its trace (allocation ORDER is part of the contract and
    must match exactly).
    """
    out = []
    for trace in collector.traces():
        rank = {
            span.span_id: i
            for i, span in enumerate(
                sorted(trace.spans, key=lambda s: s.span_id)
            )
        }
        out.append(
            (
                trace.trace_id,
                [
                    (
                        rank[span.span_id],
                        rank.get(span.parent_id),
                        span.service,
                        span.version,
                        span.endpoint,
                        span.start,
                        span.duration_ms,
                        span.error,
                        dict(span.tags),
                    )
                    for span in trace.spans
                ],
            )
        )
    return out


def breakers(layer) -> dict:
    """Every breaker of a resilience layer, internals included."""
    return {
        key: (
            breaker.state,
            list(breaker._window),
            breaker._failures,
            breaker._opened_at,
            breaker._probes_admitted,
            breaker._probe_successes,
            breaker.rejected_calls,
        )
        for key, breaker in layer._breakers.items()
    }


def assert_equivalent(scalar, batch) -> None:
    scalar_bifrost, scalar_execution, scalar_seen = scalar
    batch_bifrost, batch_execution, batch_seen, result = batch

    # The kernel ran everything itself.
    assert result.fallback_reasons == {}
    assert result.fast_requests == result.requests
    assert result.requests == scalar_bifrost.runtime.requests_executed
    assert (
        batch_bifrost.runtime.requests_executed
        == scalar_bifrost.runtime.requests_executed
    )
    assert batch_bifrost.simulation.now == scalar_bifrost.simulation.now
    # Every metric series, every sample, bit for bit.
    assert batch_bifrost.store.snapshot() == scalar_bifrost.store.snapshot()
    # Same strategy trajectory: transitions, check evaluations, outcome.
    assert list(map(repr, batch_execution.transitions)) == list(
        map(repr, scalar_execution.transitions)
    )
    # duration_s is wall-clock evaluation time — non-deterministic by
    # nature, so compare every *semantic* field of each check result.
    def check_fields(log):
        return [
            (repr(r.check), r.time, r.outcome, r.observed, r.reference)
            for r in log
        ]

    assert check_fields(batch_execution.check_log) == check_fields(
        scalar_execution.check_log
    )
    assert batch_execution.outcome == scalar_execution.outcome
    assert batch_bifrost.application.stable_version(
        "catalog"
    ) == scalar_bifrost.application.stable_version("catalog")
    # Same resilience history: every retry/fallback/breaker event
    # (kind, time, attempt, detail string) and every breaker transition.
    assert batch_bifrost.resilience.events == scalar_bifrost.resilience.events
    assert (
        batch_bifrost.resilience.breaker_transitions()
        == scalar_bifrost.resilience.breaker_transitions()
    )
    # Same breakers created, each in the same state, window and counts.
    assert breakers(batch_bifrost.resilience) == breakers(scalar_bifrost.resilience)
    # Same sticky-assignment state (distinct users per variant), for
    # every experiment that installed a route.
    scalar_assigners = scalar_bifrost.router._assigners
    batch_assigners = batch_bifrost.router._assigners
    assert batch_assigners.keys() == scalar_assigners.keys()
    for experiment, scalar_assigner in scalar_assigners.items():
        batch_assigner = batch_assigners[experiment]
        batch_assigner._settle()  # fold the pending bulk rows
        assert batch_assigner._counts == scalar_assigner._counts
        assert batch_assigner._seen == scalar_assigner._seen
    # Same trace stream into subscribers.
    assert batch_seen == scalar_seen


class TestBatchEquivalence:
    @settings(max_examples=8, deadline=None)
    @given(
        canary_error=st.sampled_from([0.0, 0.01, 0.4]),
        call_probability=st.sampled_from([1.0, 0.6]),
        parallel=st.booleans(),
        fraction=st.sampled_from([0.05, 0.1, 0.3]),
        seed=st.integers(min_value=0, max_value=2**16),
        kind=st.sampled_from(["poisson", "heavy_tail", "constant"]),
    )
    def test_batch_matches_scalar(
        self, canary_error, call_probability, parallel, fraction, seed, kind
    ):
        params = (canary_error, call_probability, parallel, fraction, seed, kind)
        assert_equivalent(run_scalar(params), run_batch(params))

    @settings(max_examples=4, deadline=None)
    @given(
        canary_error=st.sampled_from([0.0, 0.4]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_recording_mode_reproduces_traces(self, canary_error, seed):
        """With a trace subscriber the kernel also rebuilds every trace
        the scalar path would have collected — same ids, same span tree,
        same timings."""
        params = (canary_error, 1.0, False, 0.1, seed, "poisson")
        scalar_bifrost, _, _ = run_scalar(params)
        batch_bifrost, _, _, result = run_batch(params, traced=True)

        assert dump_traces(batch_bifrost.collector) == dump_traces(
            scalar_bifrost.collector
        )
        assert result.fast_requests > 0
        assert batch_bifrost.store.snapshot() == scalar_bifrost.store.snapshot()


class TestHostileEquivalence:
    """Shadows, policies, breakers, partitions, faults and subscribers,
    with and without a trace subscriber: partitions and span subscribers
    put a slice on the kernel's general hop; shadows and retries (plan
    positions), breakers (replayed per sub-block), faults and live health
    keep it columnar."""

    @settings(max_examples=12, deadline=None)
    @given(
        canary_error=st.sampled_from([0.0, 0.05, 0.4]),
        call_probability=st.sampled_from([1.0, 0.6]),
        parallel=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
        kind=st.sampled_from(["poisson", "heavy_tail"]),
        hostile=st.builds(
            Hostile,
            shadow=st.sampled_from([None, "all", DEFAULT_GROUPS[0].name]),
            policy=st.sampled_from([None, *POLICIES]),
            breaker=st.booleans(),
            partition=st.booleans(),
            faults=st.booleans(),
            subscriber=st.booleans(),
            live_health=st.booleans(),
        ),
    )
    def test_hostile_slices_match_scalar(
        self, canary_error, call_probability, parallel, seed, kind, hostile
    ):
        params = (canary_error, call_probability, parallel, 0.3, seed, kind)
        scalar = run_scalar(params, hostile)
        assert_equivalent(scalar, run_batch(params, hostile=hostile))
        recorded = run_batch(params, traced=True, hostile=hostile)
        assert_equivalent(scalar, recorded)
        # Every trace span by span: tags (shadow, retry_attempt, breaker,
        # fault), parent ids, pre-order ids, post-order append.
        assert dump_traces(recorded[0].collector) == dump_traces(
            scalar[0].collector
        )

    def test_breaker_rejects_and_probes_on_the_fast_path(self):
        """A failing canary behind a tight breaker: the kernel must record
        rejected calls, half-open probes and retries exactly like scalar
        (pinned so the property above cannot pass without ever tripping
        a breaker)."""
        params = (0.4, 1.0, False, 0.3, 11, "poisson")
        hostile = Hostile(policy="retry", breaker=True, subscriber=True)
        scalar = run_scalar(params, hostile)
        batch = run_batch(params, hostile=hostile)
        assert_equivalent(scalar, batch)
        counters = batch[0].resilience.counters()
        assert counters["breaker_reject"] > 0
        assert counters["breaker_half_open"] > 0
        assert counters["retry"] > 0
        assert any(
            t.source is BreakerState.HALF_OPEN
            for t in batch[0].resilience.breaker_transitions()
        )
        # The subscriber made the slice materialize spans, tags included.
        assert dump_traces(batch[0].collector) == dump_traces(scalar[0].collector)
        assert any(
            span.tags.get("breaker") == "open"
            for trace in batch[0].collector.traces()
            for span in trace.spans
        )


class TestResilienceColumns:
    """Call policies and breakers on the columnar slice, against
    ``Bifrost.run``, across sub-block sizes: every event, breaker and
    sample, the RNG state, the load deques and the trace-id counter.
    Every shape plans every slice as columns: ``fallback``, the default
    policy, too, because no policy applies to the entry call."""

    @settings(max_examples=40, deadline=None)
    @given(
        policy=st.sampled_from(sorted(POLICIES)),
        breaker=st.booleans(),
        canary_error=st.sampled_from([0.0, 0.02, 0.4]),
        sub_block=st.sampled_from([columns._SUB_BLOCK, 7, 1]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_policies_and_breakers_match_scalar(
        self, policy, breaker, canary_error, sub_block, seed
    ):
        params = (canary_error, 1.0, False, 0.3, seed, "poisson")
        hostile = Hostile(policy=policy, breaker=breaker)
        scalar = run_scalar(params, hostile)
        plan, planned = columns.plan, []

        def counted(self, entry):
            positions = plan(self, entry)
            planned.append(positions is not None)
            return positions

        with mock.patch.object(
            columns, "plan", counted
        ), mock.patch.object(columns, "_SUB_BLOCK", sub_block):
            batch = run_batch(params, hostile=hostile)
        assert_equivalent(scalar, batch)
        assert planned and all(planned)
        scalar_runtime, batch_runtime = scalar[0].runtime, batch[0].runtime
        assert batch_runtime.rng.raw.getstate() == scalar_runtime.rng.raw.getstate()
        assert {key: list(d) for key, d in batch_runtime.arrivals.items()} == {
            key: list(d) for key, d in scalar_runtime.arrivals.items()
        }
        assert batch_runtime.next_trace_id() == scalar_runtime.next_trace_id()


class TestFaultCampaignFallback:
    def test_fallback_under_active_faults_matches_scalar(self):
        """A fault campaign active mid-run no longer forces the scalar
        fallback (the name is from when it did): the kernel compiles its
        nodes from the degraded specs, every slice stays on it, and the
        outcomes are still identical — the faults *happen* either way.
        """
        params = (0.0, 1.0, False, 0.1, 99, "poisson")
        hostile = Hostile(faults=True)
        batch = run_batch(params, hostile=hostile)
        assert batch[3].errors > 0
        assert_equivalent(run_scalar(params, hostile), batch)

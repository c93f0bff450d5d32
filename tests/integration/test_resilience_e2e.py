"""End-to-end resilience: retries absorb bursts, breakers end crashes.

The acceptance scenario of the resilience layer: the *same* canary
strategy with retries enabled

- **completes** under a 30 s transient error burst — bounded retries
  re-execute the failed hops and the health checks never see a
  user-visible regression;
- **rolls back** under a sustained version crash — retries are
  exhausted, the circuit breaker opens on the crashed version, and the
  user-visible error check fails (or the phase deadline cuts it off);

and both runs are byte-identical across two executions with the same
seed.
"""

import pytest

from repro.bifrost.middleware import Bifrost
from repro.bifrost.model import Check, Phase, PhaseType, Strategy, StrategyOutcome
from repro.microservices.application import Application
from repro.microservices.faults import (
    ErrorBurst,
    FaultCampaign,
    FaultInjector,
    NetworkState,
    VersionCrash,
)
from repro.microservices.resilience import (
    BreakerConfig,
    BreakerState,
    CallPolicy,
    ResilienceLayer,
)
from repro.microservices.service import DownstreamCall, EndpointSpec, ServiceVersion
from repro.simulation.latency import LogNormalLatency
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator

BURST = "burst"
CRASH = "crash"


def build_app() -> Application:
    app = Application("shop")
    app.deploy(
        ServiceVersion(
            "frontend",
            "1.0.0",
            {
                "index": EndpointSpec(
                    "index",
                    LogNormalLatency(8.0, 0.2),
                    calls=(DownstreamCall("catalog", "list"),),
                )
            },
            capacity_rps=300.0,
        ),
        stable=True,
    )
    app.deploy(
        ServiceVersion(
            "catalog",
            "1.0.0",
            {"list": EndpointSpec("list", LogNormalLatency(18.0, 0.25))},
            capacity_rps=300.0,
        ),
        stable=True,
    )
    app.deploy(
        ServiceVersion(
            "catalog",
            "2.0.0",
            {"list": EndpointSpec("list", LogNormalLatency(16.0, 0.25))},
            capacity_rps=300.0,
        )
    )
    return app


def canary_strategy(deadline=240.0) -> Strategy:
    return Strategy(
        "catalog-canary",
        (
            Phase(
                name="canary",
                type=PhaseType.CANARY,
                service="catalog",
                stable_version="1.0.0",
                experimental_version="2.0.0",
                fraction=0.3,
                duration_seconds=120.0,
                check_interval_seconds=10.0,
                deadline_seconds=deadline,
                checks=(
                    # User-visible health: what reaches the end user after
                    # the resilience layer did its work.
                    Check(
                        name="user-errors",
                        service="frontend",
                        version="1.0.0",
                        metric="error",
                        threshold=0.10,
                        window_seconds=25.0,
                    ),
                ),
            ),
        ),
    )


def run_scenario(kind: str, seed: int = 11):
    """Run one scenario; returns (bifrost, execution, report string)."""
    app = build_app()
    layer = ResilienceLayer(
        # Wide window + high threshold: a 0.5-rate burst cannot plausibly
        # fill 90% of 40 samples with failures, while a crash (rate 1.0)
        # trips the breaker as soon as min_calls attempts accumulate.
        breaker_config=BreakerConfig(
            failure_threshold=0.9,
            window_size=40,
            min_calls=20,
            open_seconds=20.0,
        )
    )
    layer.set_policy(
        CallPolicy(max_retries=2, backoff_base_ms=5.0, backoff_multiplier=2.0,
                   jitter_ms=3.0),
        service="catalog",
    )
    network = NetworkState()
    bifrost = Bifrost(app, seed=seed, resilience=layer, network=network)
    campaign = FaultCampaign(FaultInjector(app), network=network)
    if kind == BURST:
        # 30 s transient burst: each attempt fails with p=0.5; three
        # attempts drive the user-visible failure rate to ~0.125 on the
        # 30% canary slice — under the 10% check threshold.
        campaign.add(ErrorBurst("catalog", "2.0.0", "list", 0.5, 30.0, 60.0))
    else:
        # Sustained crash: every attempt fails until the end of the run.
        campaign.add(VersionCrash("catalog", "2.0.0", 30.0, 400.0))
    bifrost.install_campaign(campaign)
    execution = bifrost.submit(canary_strategy(), at=1.0)

    population = UserPopulation(400, DEFAULT_GROUPS, seed=seed + 1)
    workload = WorkloadGenerator(population, entry="frontend.index", seed=seed + 2)
    outcomes = bifrost.run(workload.poisson(30.0, 150.0), until=260.0)

    report = "\n".join(
        [
            f"outcome={execution.outcome.value}",
            f"finished_at={execution.finished_at}",
            f"deadline_exceeded={execution.deadline_exceeded}",
            "counters=" + repr(sorted(layer.counters().items())),
            "breakers=" + repr(
                [
                    (b.service, b.version, b.state.value)
                    for b in layer.breakers()
                ]
            ),
            "transitions=" + repr(
                [
                    (t.time, t.source, t.target, t.trigger)
                    for t in execution.transitions
                ]
            ),
            "durations=" + repr([round(o.duration_ms, 6) for o in outcomes]),
            "errors=" + repr([o.error for o in outcomes]),
            "events=" + repr(
                [(e.kind, round(e.time, 6), e.service, e.version) for e in layer.events]
            ),
        ]
    )
    return bifrost, execution, report


class TestBurstVersusSustained:
    def test_transient_burst_completes(self):
        bifrost, execution, _ = run_scenario(BURST)
        assert execution.outcome is StrategyOutcome.COMPLETED
        assert bifrost.application.stable_version("catalog") == "2.0.0"
        # Retries actually happened during the burst.
        assert bifrost.resilience.counters().get("retry", 0) > 0
        # No breaker opened: the burst stayed under the trip threshold.
        assert all(
            b.state is BreakerState.CLOSED for b in bifrost.resilience.breakers()
        )

    def test_sustained_crash_rolls_back(self):
        bifrost, execution, _ = run_scenario(CRASH)
        assert execution.outcome is StrategyOutcome.ROLLED_BACK
        assert bifrost.application.stable_version("catalog") == "1.0.0"
        breaker = bifrost.resilience.breaker("catalog", "2.0.0")
        # The breaker opened on the crashed canary (it may be probing
        # half-open by the end of the run, but it must have tripped).
        assert any(
            t.target is BreakerState.OPEN for t in breaker.transitions
        )
        # Rollback happened during the crash, after its onset.
        assert execution.finished_at is not None
        assert execution.finished_at > 30.0

    def test_crash_with_fallback_hits_phase_deadline(self):
        # When fallbacks mask every user-visible error, the health check
        # cannot fail — but it cannot pass either, because the strategy's
        # conclusive signal never materializes for the crashed canary.
        # The phase deadline is what ends the experiment.
        app = build_app()
        layer = ResilienceLayer()
        layer.set_policy(
            CallPolicy(max_retries=1, backoff_base_ms=5.0, fallback=True),
            service="catalog",
        )
        bifrost = Bifrost(app, seed=13, resilience=layer)
        campaign = FaultCampaign(FaultInjector(app))
        campaign.add(VersionCrash("catalog", "2.0.0", 10.0, 500.0))
        bifrost.install_campaign(campaign)
        strategy = Strategy(
            "catalog-canary",
            (
                Phase(
                    name="canary",
                    type=PhaseType.CANARY,
                    service="catalog",
                    stable_version="1.0.0",
                    experimental_version="2.0.0",
                    fraction=0.3,
                    duration_seconds=60.0,
                    check_interval_seconds=10.0,
                    deadline_seconds=150.0,
                    max_repeats=10,
                    checks=(
                        # Inspects a metric stream the crashed canary never
                        # produces: inconclusive forever.
                        Check(
                            name="canary-latency",
                            service="catalog",
                            version="2.0.0",
                            metric="resilience.breaker_close",
                            aggregation="count",
                            operator=">=",
                            threshold=1.0,
                            window_seconds=30.0,
                        ),
                    ),
                ),
            ),
        )
        execution = bifrost.submit(strategy, at=1.0)
        population = UserPopulation(200, DEFAULT_GROUPS, seed=14)
        workload = WorkloadGenerator(population, entry="frontend.index", seed=15)
        bifrost.run(workload.poisson(20.0, 180.0), until=300.0)
        assert execution.outcome is StrategyOutcome.ROLLED_BACK
        assert execution.deadline_exceeded == "canary"
        assert execution.finished_at == pytest.approx(151.0)
        # Fallbacks kept users unharmed the whole time.
        assert layer.counters().get("fallback", 0) > 0


class TestByteIdenticalReplays:
    @pytest.mark.parametrize("kind", [BURST, CRASH])
    def test_two_executions_identical(self, kind):
        _, _, first = run_scenario(kind)
        _, _, second = run_scenario(kind)
        assert first == second

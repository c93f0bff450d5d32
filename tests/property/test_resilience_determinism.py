"""Determinism of the resilience layer under an active fault campaign.

The benchmark outputs must stay reproducible: two runs with the same
root seed have to produce identical retry counts, breaker transitions,
and trace durations — even while a campaign flips transient faults on
and off and policies inject seeded backoff jitter.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.microservices.resilience import BreakerConfig, CallPolicy, ResilienceLayer
from repro.microservices.service import DownstreamCall, EndpointSpec, ServiceVersion
from repro.simulation.latency import LogNormalLatency
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator


def build_app() -> Application:
    app = Application("determinism")
    app.deploy(
        ServiceVersion(
            "frontend",
            "1.0.0",
            {
                "home": EndpointSpec(
                    "home",
                    LogNormalLatency(8.0, 0.2),
                    calls=(
                        DownstreamCall("backend", "api"),
                        DownstreamCall("auth", "check", probability=0.7),
                    ),
                )
            },
        ),
        stable=True,
    )
    app.deploy(
        ServiceVersion(
            "backend", "1.0.0", {"api": EndpointSpec("api", LogNormalLatency(15.0, 0.3))}
        ),
        stable=True,
    )
    app.deploy(
        ServiceVersion(
            "backend", "2.0.0", {"api": EndpointSpec("api", LogNormalLatency(14.0, 0.3))}
        )
    )
    app.deploy(
        ServiceVersion(
            "auth", "1.0.0", {"check": EndpointSpec("check", LogNormalLatency(4.0, 0.2))}
        ),
        stable=True,
    )
    return app


def canary_strategy() -> Strategy:
    return Strategy(
        "backend-canary",
        (
            Phase(
                name="canary",
                type=PhaseType.CANARY,
                service="backend",
                stable_version="1.0.0",
                experimental_version="2.0.0",
                fraction=0.3,
                duration_seconds=60.0,
                check_interval_seconds=10.0,
                deadline_seconds=200.0,
                checks=(
                    Check(
                        name="frontend-errors",
                        service="frontend",
                        version="1.0.0",
                        metric="error",
                        threshold=0.25,
                        window_seconds=20.0,
                    ),
                ),
            ),
        ),
    )


def run_once(seed: int):
    """One full run; returns a hashable fingerprint of everything observable."""
    app = build_app()
    layer = ResilienceLayer(
        breaker_config=BreakerConfig(
            failure_threshold=0.6, window_size=20, min_calls=8, open_seconds=15.0
        )
    )
    layer.set_policy(
        CallPolicy(max_retries=2, backoff_base_ms=5.0, jitter_ms=4.0),
        service="backend",
    )
    network = NetworkState()
    bifrost = Bifrost(app, seed=seed, resilience=layer, network=network)
    campaign = FaultCampaign(FaultInjector(app), network=network)
    campaign.add(ErrorBurst("backend", "2.0.0", "api", 0.8, 10.0, 25.0))
    campaign.add(LatencySpike("backend", "1.0.0", "api", 3.0, 20.0, 35.0))
    campaign.add(Partition("frontend", "auth", 30.0, 40.0))
    bifrost.install_campaign(campaign)
    execution = bifrost.submit(canary_strategy(), at=0.0)

    population = UserPopulation(150, DEFAULT_GROUPS, seed=seed + 1)
    workload = WorkloadGenerator(population, entry="frontend.home", seed=seed + 2)
    outcomes = bifrost.run(workload.poisson(12.0, 50.0), until=90.0)

    return (
        tuple(sorted(layer.counters().items())),
        tuple(
            (t.time, t.service, t.version, t.source.value, t.target.value)
            for t in layer.breaker_transitions()
        ),
        tuple(o.duration_ms for o in outcomes),
        tuple(o.error for o in outcomes),
        tuple(o.version_path for o in outcomes),
        execution.outcome.value,
        tuple(
            (t.time, t.source, t.target, t.trigger) for t in execution.transitions
        ),
        tuple((e.kind, e.time, e.service, e.version) for e in layer.events),
    )


class TestResilienceDeterminism:
    @settings(max_examples=4, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_same_seed_same_everything(self, seed):
        assert run_once(seed) == run_once(seed)

    def test_campaign_actually_exercises_resilience(self):
        fingerprint = run_once(7)
        counters = dict(fingerprint[0])
        # The burst must have produced retries, or the run is vacuous.
        assert counters.get("retry", 0) > 0

"""Resilience sweep: one canary strategy, three fault regimes.

Reproduces the robustness claim of the resilience layer as a table: the
same catalog canary with per-call retries and circuit breakers is run
with (a) no faults, (b) a 30 s transient error burst, and (c) a
sustained version crash.  Expected shape: the healthy and burst runs
complete (retries absorb the burst below the health-check threshold)
while the crash run rolls back with the breaker open, and the
user-visible error rate stays low in all three regimes.
"""

from _util import emit, format_rows

from repro.bifrost.middleware import Bifrost
from repro.bifrost.model import Check, Phase, PhaseType, Strategy
from repro.microservices.application import Application
from repro.microservices.faults import (
    ErrorBurst,
    FaultCampaign,
    FaultInjector,
    VersionCrash,
)
from repro.microservices.resilience import BreakerConfig, CallPolicy, ResilienceLayer
from repro.microservices.service import DownstreamCall, EndpointSpec, ServiceVersion
from repro.simulation.latency import LogNormalLatency
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator

SEED = 11


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


def canary_strategy() -> Strategy:
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
                deadline_seconds=240.0,
                checks=(
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


def run_regime(regime: str) -> dict:
    """One full canary run under *regime*; returns a result row."""
    app = build_app()
    layer = ResilienceLayer(
        breaker_config=BreakerConfig(
            failure_threshold=0.9, window_size=40, min_calls=20, open_seconds=20.0
        )
    )
    layer.set_policy(
        CallPolicy(max_retries=2, backoff_base_ms=5.0, jitter_ms=3.0),
        service="catalog",
    )
    bifrost = Bifrost(app, seed=SEED, resilience=layer)
    campaign = FaultCampaign(FaultInjector(app))
    if regime == "transient-burst":
        campaign.add(ErrorBurst("catalog", "2.0.0", "list", 0.5, 30.0, 60.0))
    elif regime == "sustained-crash":
        campaign.add(VersionCrash("catalog", "2.0.0", 30.0, 400.0))
    bifrost.install_campaign(campaign)
    execution = bifrost.submit(canary_strategy(), at=1.0)

    population = UserPopulation(400, DEFAULT_GROUPS, seed=SEED + 1)
    workload = WorkloadGenerator(population, entry="frontend.index", seed=SEED + 2)
    outcomes = bifrost.run(workload.poisson(30.0, 150.0), until=260.0)

    counters = layer.counters()
    return {
        "regime": regime,
        "outcome": execution.outcome.value,
        "finished_at_s": execution.finished_at,
        "retries": counters.get("retry", 0),
        "breaker_rejects": counters.get("breaker_reject", 0),
        "breaker_opens": counters.get("breaker_open", 0),
        "user_error_rate": sum(o.error for o in outcomes) / len(outcomes),
        "stable_catalog": app.stable_version("catalog"),
    }


def run_sweep():
    return [
        run_regime(regime)
        for regime in ("healthy", "transient-burst", "sustained-crash")
    ]


def test_resilience_fault_regimes(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    emit("Resilience canary under fault regimes", format_rows(rows))

    healthy, burst, crash = rows
    # Healthy and burst runs both promote the canary...
    assert healthy["outcome"] == "completed"
    assert burst["outcome"] == "completed"
    assert burst["retries"] > 0
    assert burst["breaker_opens"] == 0
    # ...the sustained crash rolls back with the breaker open.
    assert crash["outcome"] == "rolled_back"
    assert crash["breaker_opens"] > 0
    assert crash["stable_catalog"] == "1.0.0"
    # Retries keep the user-visible error rate modest even under faults.
    assert burst["user_error_rate"] < 0.05
    assert crash["user_error_rate"] < 0.20

"""A canary that survives a transient burst but not a sustained crash.

The resilience layer changes what a release experiment *sees*: bounded
retries absorb a short error burst, so the canary's user-visible health
checks stay green and the rollout completes.  Against a sustained crash
the same retries are exhausted, the circuit breaker opens on the broken
version, and Bifrost rolls the canary back.  A six-second network
partition between frontend and catalog fails calls to both catalog
versions alike, yet it rolls back the canary, whose version is healthy:
a check cannot tell a network fault from a bad release.

Run with::

    python examples/resilience_canary.py
"""

from repro.bifrost.middleware import Bifrost
from repro.bifrost.model import Check, Phase, PhaseType, Strategy
from repro.microservices.application import Application
from repro.microservices.faults import (
    ErrorBurst,
    FaultCampaign,
    FaultInjector,
    NetworkState,
    Partition,
    VersionCrash,
)
from repro.microservices.resilience import (
    BreakerConfig,
    CallPolicy,
    ResilienceLayer,
    ResilienceSummary,
)
from repro.microservices.service import DownstreamCall, EndpointSpec, ServiceVersion
from repro.simulation.latency import LogNormalLatency
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator

SEED = 11


def build_app() -> Application:
    """Frontend -> catalog shop with a catalog 2.0.0 canary candidate."""
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
    """30% canary on catalog, watched through the user's eyes."""
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


def resilience_layer() -> ResilienceLayer:
    """Retries on catalog calls, breakers everywhere."""
    layer = ResilienceLayer(
        breaker_config=BreakerConfig(
            failure_threshold=0.9,
            window_size=40,
            min_calls=20,
            open_seconds=20.0,
        )
    )
    layer.set_policy(
        CallPolicy(
            max_retries=2,
            backoff_base_ms=5.0,
            backoff_multiplier=2.0,
            jitter_ms=3.0,
        ),
        service="catalog",
    )
    return layer


def run(fault_name: str) -> None:
    """Run the same canary under one of the three fault scenarios."""
    app = build_app()
    layer = resilience_layer()
    network = NetworkState()
    bifrost = Bifrost(app, seed=SEED, resilience=layer, network=network)
    campaign = FaultCampaign(FaultInjector(app), network=network)
    if fault_name == "transient burst":
        campaign.add(ErrorBurst("catalog", "2.0.0", "list", 0.5, 30.0, 60.0))
    elif fault_name == "brief partition":
        campaign.add(Partition("frontend", "catalog", 30.0, 36.0))
    else:
        campaign.add(VersionCrash("catalog", "2.0.0", 30.0, 400.0))
    bifrost.install_campaign(campaign)
    execution = bifrost.submit(canary_strategy(), at=1.0)

    population = UserPopulation(400, DEFAULT_GROUPS, seed=SEED + 1)
    workload = WorkloadGenerator(population, entry="frontend.index", seed=SEED + 2)
    bifrost.run(workload.poisson(30.0, 150.0), until=260.0)

    print(f"--- {fault_name} ---")
    print(f"strategy outcome: {execution.outcome.value}")
    print(f"stable catalog version: {app.stable_version('catalog')}")
    print(ResilienceSummary.of(layer).describe())
    print()


def main() -> None:
    run("transient burst")
    run("brief partition")
    run("sustained crash")


if __name__ == "__main__":
    main()

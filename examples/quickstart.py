"""Quickstart: run one canary experiment end to end.

Deploys a canary of the catalog service on the sample e-commerce
application, executes a single-phase Bifrost strategy with health checks
against live telemetry, and prints what happened.

Run with::

    python examples/quickstart.py
"""

from repro.bifrost.middleware import Bifrost
from repro.bifrost.model import Check, Phase, PhaseType, Strategy
from repro.microservices.service import EndpointSpec, DownstreamCall, ServiceVersion
from repro.simulation.latency import LoadSensitiveLatency, LogNormalLatency
from repro.topology.scenarios import sample_application
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator


def main() -> None:
    app = sample_application()

    # Deploy catalog 2.0.0 as the canary candidate: same interface,
    # slightly faster implementation.
    stable = app.resolve("catalog")
    app.deploy(
        ServiceVersion(
            "catalog",
            "2.0.0",
            {
                "list": EndpointSpec(
                    "list",
                    LoadSensitiveLatency(LogNormalLatency(16.0, 0.25)),
                    calls=(
                        DownstreamCall("inventory", "stock"),
                        DownstreamCall("pricing", "quote"),
                    ),
                )
            },
            capacity_rps=stable.capacity_rps,
        )
    )

    strategy = Strategy(
        name="catalog-canary",
        description="Canary release of catalog 2.0.0 at 10% of traffic",
        phases=(
            Phase(
                name="canary",
                type=PhaseType.CANARY,
                service="catalog",
                stable_version="1.0.0",
                experimental_version="2.0.0",
                fraction=0.10,
                duration_seconds=120.0,
                check_interval_seconds=5.0,
                checks=(
                    Check(
                        name="error-rate",
                        service="catalog",
                        version="2.0.0",
                        metric="error",
                        aggregation="mean",
                        operator="<=",
                        threshold=0.02,
                        window_seconds=30.0,
                    ),
                    Check(
                        name="latency-vs-stable",
                        service="catalog",
                        version="2.0.0",
                        metric="response_time",
                        aggregation="mean",
                        operator="<=",
                        baseline_version="1.0.0",
                        tolerance=1.25,
                        window_seconds=30.0,
                    ),
                ),
            ),
        ),
    )

    bifrost = Bifrost(app, seed=7)
    execution = bifrost.submit(strategy, at=1.0)

    population = UserPopulation(500, DEFAULT_GROUPS, seed=1)
    workload = WorkloadGenerator(population, entry="frontend.index", seed=2)
    outcomes = bifrost.run(workload.poisson(50.0, 150.0), until=160.0)

    print(f"requests served:      {len(outcomes)}")
    print(f"mean response time:   "
          f"{sum(o.duration_ms for o in outcomes) / len(outcomes):.1f} ms")
    print(f"strategy outcome:     {execution.outcome.value}")
    print(f"stable catalog now:   {app.stable_version('catalog')}")
    print("transitions:")
    for record in execution.transitions:
        print(
            f"  {record.time:7.1f}s  {record.source} -> {record.target} "
            f"[{record.trigger}] action={record.action.value}"
        )
    print("last check evaluations:")
    for result in execution.check_log[-2:]:
        print(f"  {result.describe()}")


if __name__ == "__main__":
    main()

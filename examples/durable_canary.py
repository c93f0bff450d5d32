"""A canary that completes across two engine crashes.

The durability layer separates the control plane from the data plane:
every engine decision is applied to the execution state and then
journaled, periodic snapshots fold the journal into checkpoints, and a supervisor restarts
the crashed engine from snapshot + replay.  The routes installed by the
dead engine keep serving in the meantime, so users never notice — the
recovered run promotes the same version over the same ``version_path``
as a run that never crashed.

Run with::

    python examples/durable_canary.py
"""

from repro.bifrost.journal import SnapshotPolicy
from repro.bifrost.middleware import Bifrost
from repro.bifrost.model import Check, Phase, PhaseType, Strategy
from repro.microservices.application import Application
from repro.microservices.faults import EngineCrash, FaultCampaign, FaultInjector
from repro.microservices.service import DownstreamCall, EndpointSpec, ServiceVersion
from repro.simulation.latency import LogNormalLatency
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator

SEED = 37


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
    """A 120 s canary on catalog guarded by a user-facing error check."""
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
                deadline_seconds=500.0,
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


def run(crash_windows):
    """One seeded run; returns (bifrost, app, per-request version paths)."""
    app = build_app()
    bifrost = Bifrost(
        app,
        seed=SEED,
        durable=True,
        snapshot_policy=SnapshotPolicy(every_records=5, compact=True),
    )
    if crash_windows:
        campaign = FaultCampaign(FaultInjector(app))
        for start, end in crash_windows:
            campaign.add(EngineCrash(start, end))
        bifrost.install_campaign(campaign)
    bifrost.submit(canary_strategy(), at=1.0)
    population = UserPopulation(300, DEFAULT_GROUPS, seed=SEED + 1)
    workload = WorkloadGenerator(population, entry="frontend.index", seed=SEED + 2)
    outcomes = bifrost.run(workload.poisson(15.0, 160.0), until=260.0)
    return bifrost, app, [o.version_path for o in outcomes]


def main() -> None:
    """Compare a crash-free baseline against a twice-crashed run."""
    _, app_base, paths_base = run([])
    crashed, app_crash, paths_crash = run([(30.0, 45.0), (70.0, 85.0)])

    execution = crashed.engine.executions[0]
    print("--- durable canary under two engine crashes ---")
    print(f"strategy outcome: {execution.outcome.value}")
    print(f"stable catalog version: {app_crash.stable_version('catalog')}")
    print(f"engine restarts: {crashed.supervisor.restarts}")
    for index, report in enumerate(crashed.supervisor.reports, start=1):
        print(
            f"recovery {index}: snapshot={report.snapshot_restored} "
            f"replayed={report.records_replayed} "
            f"dropped={report.records_dropped}"
        )
    print(f"snapshots taken: {crashed.snapshots.taken}")
    match = paths_crash == paths_base
    print(f"version_path identical to crash-free run: {match}")
    baseline_stable = app_base.stable_version("catalog")
    print(f"baseline promoted the same version: "
          f"{baseline_stable == app_crash.stable_version('catalog')}")


if __name__ == "__main__":
    main()

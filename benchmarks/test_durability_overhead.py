"""Durability sweep: journal + snapshot overhead and recovery cost.

Reproduces the crash-safety claim of the durability layer as a table:
the same catalog canary is run (a) without durability, (b) with the
write-ahead journal, (c) with journal + periodic snapshots/compaction,
and (d) with snapshots plus two mid-phase engine crashes.  Expected
shape: journaling adds modest wall-clock overhead over the bare engine,
snapshots bound the journal's length, and the crashed run still
completes with the same promoted version as every other regime.
"""

import time

from _util import emit, format_rows

from repro.bifrost.journal import SnapshotPolicy
from repro.bifrost.middleware import Bifrost
from repro.bifrost.model import Check, Phase, PhaseType, Strategy, StrategyOutcome
from repro.microservices.application import Application
from repro.microservices.faults import EngineCrash, FaultCampaign, FaultInjector
from repro.microservices.service import DownstreamCall, EndpointSpec, ServiceVersion
from repro.simulation.latency import LogNormalLatency
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator

SEED = 41


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


def run_regime(label: str, durable: bool, snapshot_policy=None, crashes=()):
    """One seeded canary run; returns its benchmark row."""
    app = build_app()
    kwargs = {"seed": SEED}
    if durable:
        kwargs["durable"] = True
        kwargs["snapshot_policy"] = snapshot_policy
    bifrost = Bifrost(app, **kwargs)
    if crashes:
        campaign = FaultCampaign(FaultInjector(app))
        for start, end in crashes:
            campaign.add(EngineCrash(start, end))
        bifrost.install_campaign(campaign)
    bifrost.submit(canary_strategy(), at=1.0)
    population = UserPopulation(300, DEFAULT_GROUPS, seed=SEED + 1)
    workload = WorkloadGenerator(population, entry="frontend.index", seed=SEED + 2)
    started = time.perf_counter()
    bifrost.run(workload.poisson(15.0, 160.0), until=260.0)
    elapsed = time.perf_counter() - started
    execution = bifrost.engine.executions[0]
    return {
        "regime": label,
        "wall_s": elapsed,
        "outcome": execution.outcome.value,
        "stable": app.stable_version("catalog"),
        "journal_records": len(bifrost.journal.records()) if durable else 0,
        "snapshots": bifrost.snapshots.taken if durable else 0,
        "restarts": bifrost.supervisor.restarts if durable else 0,
    }


def run_sweep():
    return [
        run_regime("bare engine", durable=False),
        run_regime("journal", durable=True),
        run_regime(
            "journal+snapshots",
            durable=True,
            snapshot_policy=SnapshotPolicy(every_records=5, compact=True),
        ),
        run_regime(
            "snapshots+2 crashes",
            durable=True,
            snapshot_policy=SnapshotPolicy(every_records=5, compact=True),
            crashes=((30.0, 45.0), (70.0, 85.0)),
        ),
    ]


def test_durability_overhead(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    emit("Durability: journal/snapshot overhead and recovery", format_rows(rows))

    by_regime = {row["regime"]: row for row in rows}
    # Every regime promotes the same version with the same outcome.
    for row in rows:
        assert row["outcome"] == StrategyOutcome.COMPLETED.value
        assert row["stable"] == "2.0.0"
    # Compaction bounds the journal: the compacted log is shorter than
    # the full one.
    assert (
        by_regime["journal+snapshots"]["journal_records"]
        < by_regime["journal"]["journal_records"]
    )
    # The crashed run actually crashed and recovered, twice.
    assert by_regime["snapshots+2 crashes"]["restarts"] == 2
    # Journaling is not free, but stays within an order of magnitude of
    # the bare engine on this workload.
    assert by_regime["journal"]["wall_s"] < by_regime["bare engine"]["wall_s"] * 10

"""End-to-end durability: EngineCrash faults, recovery, and convergence.

The acceptance scenario of the durability layer: a canary driven by the
full middleware stack is killed *mid-phase* by an ``EngineCrash`` fault
from a campaign, recovers from journal + snapshot, and still reaches
``TERMINAL_COMPLETE`` with the same user-visible ``version_path`` as the
crash-free baseline.  A truncated or corrupt journal tail degrades
gracefully instead of failing the recovery.
"""

import json

import pytest

from repro.bifrost.journal import SnapshotPolicy
from repro.bifrost.middleware import Bifrost
from repro.bifrost.model import (
    TERMINAL_COMPLETE,
    Check,
    Phase,
    PhaseType,
    Strategy,
    StrategyOutcome,
)
from repro.microservices.application import Application
from repro.microservices.faults import EngineCrash, FaultCampaign, FaultInjector
from repro.microservices.service import DownstreamCall, EndpointSpec, ServiceVersion
from repro.simulation.latency import LogNormalLatency
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator
from tests.unit.test_recovery import durability_count

SEED = 31


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


def run_scenario(crash_windows, snapshot_policy=None, corrupt_tail_at=None):
    """Drive the canary under optional EngineCrash windows."""
    app = build_app()
    bifrost = Bifrost(app, seed=SEED, durable=True, snapshot_policy=snapshot_policy)
    if crash_windows:
        campaign = FaultCampaign(FaultInjector(app))
        for start, end in crash_windows:
            campaign.add(EngineCrash(start, end))
        bifrost.install_campaign(campaign)
    if corrupt_tail_at is not None:
        def corrupt():
            lines = bifrost.journal.storage.lines
            lines[-1] = lines[-1][: len(lines[-1]) // 2]

        bifrost.simulation.schedule_at(corrupt_tail_at, corrupt)
    bifrost.submit(canary_strategy(), at=1.0)
    population = UserPopulation(300, DEFAULT_GROUPS, seed=SEED + 1)
    workload = WorkloadGenerator(population, entry="frontend.index", seed=SEED + 2)
    outcomes = bifrost.run(workload.poisson(15.0, 160.0), until=260.0)
    return bifrost, app, outcomes


def transition_log(bifrost):
    execution = bifrost.engine.executions[0]
    return [
        (t.time, t.source, t.target, t.trigger, t.action)
        for t in execution.transitions
    ]


def check_log(bifrost):
    execution = bifrost.engine.executions[0]
    return [(r.time, r.check.name, r.outcome) for r in execution.check_log]


class TestCrashMidPhase:
    def test_canary_completes_across_two_crashes(self):
        b_base, app_base, out_base = run_scenario([])
        b_crash, app_crash, out_crash = run_scenario([(30.0, 45.0), (70.0, 85.0)])
        execution = b_crash.engine.executions[0]
        assert execution.state == TERMINAL_COMPLETE
        assert execution.outcome is StrategyOutcome.COMPLETED
        assert b_crash.supervisor.restarts == 2
        # The recovered run is user-indistinguishable from the baseline.
        assert [o.version_path for o in out_crash] == [
            o.version_path for o in out_base
        ]
        assert app_crash.stable_version("catalog") == app_base.stable_version(
            "catalog"
        ) == "2.0.0"

    def test_transition_log_identical_to_baseline(self):
        b_base, _, _ = run_scenario([])
        b_crash, _, _ = run_scenario([(30.0, 45.0), (70.0, 85.0)])
        assert transition_log(b_crash) == transition_log(b_base)

    def test_crash_with_snapshots_and_compaction(self):
        b_base, _, out_base = run_scenario([])
        b_crash, _, out_crash = run_scenario(
            [(30.0, 45.0), (70.0, 85.0)],
            snapshot_policy=SnapshotPolicy(every_records=5, compact=True),
        )
        assert b_crash.snapshots.taken >= 1
        assert all(r.snapshot_restored for r in b_crash.supervisor.reports)
        assert b_crash.engine.outcomes()["catalog-canary"] is StrategyOutcome.COMPLETED
        assert transition_log(b_crash) == transition_log(b_base)
        assert check_log(b_crash) == check_log(b_base)
        assert [o.version_path for o in out_crash] == [
            o.version_path for o in out_base
        ]

    def test_routes_survive_the_outage(self):
        # While the engine is dead mid-phase, the canary split keeps
        # serving: the data plane must not notice the control plane died.
        b_crash, _, _ = run_scenario([(30.0, 45.0)])
        served = b_crash.store.aggregate("catalog", "2.0.0", "throughput", "count", 30.0, 45.0)
        assert served > 0

    def test_durability_metrics_flow_through_monitor(self):
        b_crash, _, _ = run_scenario([(30.0, 45.0), (70.0, 85.0)])
        for kind in ("crash", "restart", "recovered"):
            assert durability_count(b_crash.store, kind, 0.0, 300.0) == 2.0


class TestCorruptJournalTail:
    def test_truncated_tail_degrades_gracefully(self):
        # The journal's last record is torn in half just before the
        # crash: recovery drops it, reports it, and still completes.
        b_crash, _, _ = run_scenario(
            [(30.0, 45.0)], corrupt_tail_at=29.5
        )
        report = b_crash.supervisor.reports[0]
        assert report.records_dropped >= 1
        assert b_crash.engine.outcomes()["catalog-canary"] is StrategyOutcome.COMPLETED

    def test_journal_readable_after_recovery(self):
        b_crash, _, _ = run_scenario([(30.0, 45.0)], corrupt_tail_at=29.5)
        records = b_crash.journal.records()
        assert any(r.kind == "recovered" for r in records)
        assert any(r.kind == "finalized" for r in records)
        # Every surviving record decodes as strict JSON.
        for line in b_crash.journal.storage.lines[: len(records)]:
            json.loads(line)


class TestEngineCrashRequiresDurableMiddleware:
    def test_non_durable_middleware_rejects_engine_crash(self):
        from repro.errors import ConfigurationError

        app = build_app()
        bifrost = Bifrost(app, seed=SEED)  # not durable
        campaign = FaultCampaign(FaultInjector(app))
        campaign.add(EngineCrash(10.0, 20.0))
        with pytest.raises(ConfigurationError):
            bifrost.install_campaign(campaign)

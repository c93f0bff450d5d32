"""Deterministic-replay guarantee of the durability layer.

The contract of journal + recovery is exact: a seeded run whose engine
is crashed at an *arbitrary* point and recovered must produce the same
``StrategyOutcome``, the same transition log (including transition
times), and the same per-request ``version_path`` as the run that never
crashed.  Catch-up replay at original logical timestamps is what makes
this hold — telemetry survives the crash, so late evaluations see the
data the crash-free engine saw.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bifrost.journal import SnapshotPolicy, execution_to_dict
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
from repro.microservices.service import EndpointSpec, ServiceVersion
from repro.simulation.latency import LogNormalLatency
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator

SEED = 23


def build_app() -> Application:
    app = Application("durability")
    app.deploy(
        ServiceVersion(
            "frontend",
            "1.0.0",
            {"home": EndpointSpec("home", LogNormalLatency(9.0, 0.2))},
            capacity_rps=400.0,
        ),
        stable=True,
    )
    app.deploy(
        ServiceVersion(
            "frontend",
            "2.0.0",
            {"home": EndpointSpec("home", LogNormalLatency(8.0, 0.2))},
            capacity_rps=400.0,
        )
    )
    return app


def canary_strategy(error_rate_threshold: float) -> Strategy:
    return Strategy(
        "replayed-canary",
        (
            Phase(
                name="canary",
                type=PhaseType.CANARY,
                service="frontend",
                stable_version="1.0.0",
                experimental_version="2.0.0",
                fraction=0.25,
                duration_seconds=90.0,
                check_interval_seconds=8.0,
                deadline_seconds=400.0,
                checks=(
                    Check(
                        name="errors",
                        service="frontend",
                        version="2.0.0",
                        metric="error",
                        threshold=error_rate_threshold,
                        window_seconds=20.0,
                    ),
                ),
            ),
        ),
    )


def run_canary(crash_window, threshold):
    """One seeded run; *crash_window* of None means no crash."""
    app = build_app()
    bifrost = Bifrost(app, seed=SEED, durable=True)
    if crash_window is not None:
        campaign = FaultCampaign(FaultInjector(app))
        campaign.add(EngineCrash(*crash_window))
        bifrost.install_campaign(campaign)
    bifrost.submit(canary_strategy(threshold), at=1.0)
    population = UserPopulation(300, DEFAULT_GROUPS, seed=SEED + 1)
    workload = WorkloadGenerator(population, entry="frontend.home", seed=SEED + 2)
    outcomes = bifrost.run(workload.poisson(12.0, 130.0), until=240.0)
    execution = bifrost.engine.executions[0]
    return (
        execution.outcome,
        [
            (t.time, t.source, t.target, t.trigger, t.action)
            for t in execution.transitions
        ],
        [(r.time, r.check.name, r.outcome) for r in execution.check_log],
        [(o.request.timestamp, o.version_path) for o in outcomes],
    )


# The canary phase runs [1, 91]; windows are kept clear of the route
# tear-down at ~91 s — while the engine is dead the installed split
# keeps serving (the data plane survives), so a crash *covering* a
# route-changing transition genuinely delays it (see the test below).
@settings(max_examples=12, deadline=None)
@given(
    start=st.floats(min_value=2.0, max_value=60.0),
    duration=st.floats(min_value=1.0, max_value=25.0),
    threshold=st.sampled_from([0.05, 0.5]),
)
def test_crashed_and_recovered_run_equals_uncrashed_run(start, duration, threshold):
    baseline = run_canary(None, threshold)
    crashed = run_canary((start, start + duration), threshold)
    assert crashed[0] is baseline[0], "StrategyOutcome diverged"
    assert crashed[1] == baseline[1], "transition log diverged"
    assert crashed[2] == baseline[2], "check log diverged"
    assert crashed[3] == baseline[3], "version_path diverged"


def test_crash_spanning_phase_end_converges_outside_the_dead_window():
    # The crash window covers the phase's scheduled end.  The *decision*
    # is replayed at its original logical timestamp (identical outcome,
    # transition log, and check log), but the route tear-down is a data
    # plane action a dead engine cannot perform — requests served while
    # the engine was down may diverge, and only those.
    window = (85.0, 110.0)
    baseline = run_canary(None, 0.5)
    crashed = run_canary(window, 0.5)
    assert baseline[0] is StrategyOutcome.COMPLETED
    assert crashed[:3] == baseline[:3]
    for (ts_base, path_base), (ts_crash, path_crash) in zip(baseline[3], crashed[3]):
        assert ts_base == ts_crash
        if not window[0] <= ts_base <= window[1]:
            assert path_base == path_crash


def chained_canary() -> Strategy:
    """Two 30 s canary phases, ``one`` then ``two``, checked every 5 s."""

    def phase(name: str, on_success: str) -> Phase:
        return Phase(
            name=name,
            type=PhaseType.CANARY,
            service="frontend",
            stable_version="1.0.0",
            experimental_version="2.0.0",
            fraction=0.25,
            duration_seconds=30.0,
            check_interval_seconds=5.0,
            on_success=on_success,
            checks=canary_strategy(0.5).phases[0].checks,
        )

    return Strategy(
        "chained-canary", (phase("one", "two"), phase("two", TERMINAL_COMPLETE))
    )


def run_snapshotted(scenario, every_records, crash_window):
    """One seeded run snapshotting every *every_records* journal appends.

    ``chained`` runs :func:`chained_canary` (its ``one`` → ``two``
    transition lands at t = 31); ``resubmitted`` runs the single-phase
    canary and submits a second one at t = 100, after the first finished.
    """
    app = build_app()
    bifrost = Bifrost(
        app,
        seed=SEED,
        durable=True,
        snapshot_policy=SnapshotPolicy(every_records=every_records),
    )
    if crash_window is not None:
        campaign = FaultCampaign(FaultInjector(app))
        campaign.add(EngineCrash(*crash_window))
        bifrost.install_campaign(campaign)
    if scenario == "chained":
        bifrost.submit(chained_canary(), at=1.0)
    else:
        bifrost.submit(canary_strategy(0.5), at=1.0)
        second = Strategy("second-canary", canary_strategy(0.5).phases)
        bifrost.simulation.schedule_at(100.0, lambda: bifrost.submit(second))
    population = UserPopulation(300, DEFAULT_GROUPS, seed=SEED + 1)
    workload = WorkloadGenerator(population, entry="frontend.home", seed=SEED + 2)
    bifrost.run(workload.poisson(12.0, 130.0), until=240.0)
    return bifrost


# A snapshot may land on any append: on a transition (cadences 5 and 10
# of ``chained``) or on a later strategy's submission (3, 6, 9 and 18 of
# ``resubmitted``) it must already hold that record, and the recovered
# executions must equal the crash-free ones field for field.  The dicts
# are compared because ``StateMachine`` compares by identity.
@pytest.mark.parametrize("every_records", [3, 5, 6, 9, 10, 18, 25])
@pytest.mark.parametrize(
    "scenario, crash_window",
    [("chained", (31.5, 34.0)), ("resubmitted", (100.5, 105.0))],
)
def test_snapshot_on_any_append_recovers_equal(scenario, crash_window, every_records):
    baseline = run_snapshotted(scenario, every_records, None)
    crashed = run_snapshotted(scenario, every_records, crash_window)
    assert crashed.supervisor.restarts == 1
    assert crashed.supervisor.restart_failures == 0
    assert [execution_to_dict(e) for e in crashed.engine.executions] == [
        execution_to_dict(e) for e in baseline.engine.executions
    ]

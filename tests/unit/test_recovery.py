"""Unit tests for engine recovery: journal folding, supervisor, resume."""

import json

import pytest

from repro.bifrost.journal import TICK, Journal, execution_to_dict
from repro.bifrost.middleware import Bifrost
from repro.bifrost.model import (
    TERMINAL_COMPLETE,
    Check,
    CheckOutcome,
    Phase,
    PhaseType,
    Strategy,
    StrategyOutcome,
)
from repro.bifrost.recovery import RecoveryManager, RestartPolicy
from repro.errors import ExecutionError, ValidationError
from repro.traffic.profile import UserGroup
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator
from tests.conftest import constant_endpoint

GROUPS = (UserGroup("eu", 0.6), UserGroup("na", 0.4))


def canary_phase(**kwargs) -> Phase:
    defaults = dict(
        name="canary",
        type=PhaseType.CANARY,
        service="backend",
        stable_version="1.0.0",
        experimental_version="2.0.0",
        fraction=0.3,
        duration_seconds=60.0,
        check_interval_seconds=5.0,
        checks=(
            Check(
                name="errors",
                service="backend",
                version="2.0.0",
                metric="error",
                threshold=0.05,
                window_seconds=20.0,
            ),
        ),
    )
    defaults.update(kwargs)
    return Phase(**defaults)


def inconclusive_strategy() -> Strategy:
    # "saturation" is never recorded, so every check round is
    # inconclusive and the phase REPEATs once before giving up.
    phase = canary_phase(
        checks=(
            Check(
                name="sat",
                service="backend",
                version="2.0.0",
                metric="saturation",
                threshold=0.5,
                window_seconds=20.0,
            ),
        ),
        on_inconclusive="repeat",
        max_repeats=1,
    )
    return Strategy("s", (phase,))


def ghost_audience_strategy() -> Strategy:
    # No traffic reaches the audience, so the phase repeats forever;
    # only the deadline (armed at first entry) can end it.
    phase = canary_phase(
        audience_groups=frozenset({"ghost-group"}),
        duration_seconds=30.0,
        max_repeats=50,
        deadline_seconds=100.0,
    )
    return Strategy("s", (phase,))


def durability_count(store, kind, start, end) -> float:
    """How many ``durability.<kind>`` samples the engine key holds in the window."""
    return store.aggregate("bifrost", "engine", f"durability.{kind}", "count", start, end) or 0.0


def durable_run(
    app, strategy, crash_at=None, restart_at=None, cancel_at=None, **bifrost_kwargs
):
    """Drive a durable Bifrost, optionally crashing the engine manually."""
    bifrost = Bifrost(app, seed=3, durable=True, **bifrost_kwargs)
    execution = bifrost.submit(strategy, at=1.0)
    population = UserPopulation(400, GROUPS, seed=4)
    workload = WorkloadGenerator(population, entry="frontend.home", seed=5)
    if cancel_at is not None:
        bifrost.simulation.schedule_at(
            cancel_at, lambda: bifrost.engine.cancel(strategy.name)
        )
    if crash_at is not None:
        bifrost.simulation.schedule_at(
            crash_at, lambda: bifrost.supervisor.crash(crash_at)
        )
    if restart_at is not None:
        bifrost.simulation.schedule_at(
            restart_at, lambda: bifrost.supervisor.restart(restart_at)
        )
    bifrost.run(workload.poisson(40.0, 200.0), until=220.0)
    return bifrost, execution


class TestSupervisor:
    def test_crash_then_restart_completes_strategy(self, canary_app):
        strategy = Strategy("s", (canary_phase(),))
        bifrost, _ = durable_run(canary_app, strategy, crash_at=20.0, restart_at=35.0)
        assert bifrost.engine.outcomes()["s"] is StrategyOutcome.COMPLETED
        assert bifrost.supervisor.restarts == 1
        assert len(bifrost.supervisor.reports) == 1
        assert bifrost.supervisor.reports[0].executions_recovered == 1

    def test_submitted_execution_object_tracks_the_restart(self, canary_app):
        # Recovery moves the recovered state into the caller's handle, and
        # the restarted engine runs that object to completion.
        strategy = Strategy("s", (canary_phase(),))
        bifrost, handle = durable_run(
            canary_app, strategy, crash_at=20.0, restart_at=35.0
        )
        assert bifrost.engine.executions[0] is handle
        assert handle.outcome is StrategyOutcome.COMPLETED

    def test_crash_is_idempotent(self, canary_app):
        bifrost = Bifrost(canary_app, durable=True)
        bifrost.supervisor.crash(1.0)
        bifrost.supervisor.crash(2.0)
        assert durability_count(bifrost.store, "crash", 0.0, 10.0) == 1.0

    def test_restart_while_alive_is_noop(self, canary_app):
        bifrost = Bifrost(canary_app, durable=True)
        bifrost.supervisor.restart(1.0)
        assert bifrost.supervisor.restarts == 0

    def test_restart_budget_exhausted(self, canary_app):
        bifrost = Bifrost(
            canary_app, durable=True, restart_policy=RestartPolicy(max_restarts=1)
        )
        supervisor = bifrost.supervisor
        supervisor.crash(1.0)
        supervisor.restart(2.0)
        supervisor.crash(3.0)
        supervisor.restart(4.0)
        assert supervisor.restarts == 1
        assert supervisor.gave_up
        assert not supervisor.engine.alive
        assert durability_count(bifrost.store, "restart_refused", 0.0, 10.0) == 1.0

    def test_dead_engine_rejects_submissions(self, canary_app):
        bifrost = Bifrost(canary_app, durable=True)
        bifrost.supervisor.crash(1.0)
        with pytest.raises(ExecutionError):
            bifrost.submit(Strategy("s", (canary_phase(),)))

    def test_durability_metrics_emitted(self, canary_app):
        strategy = Strategy("s", (canary_phase(),))
        bifrost, _ = durable_run(canary_app, strategy, crash_at=20.0, restart_at=35.0)
        for kind in ("crash", "restart", "recovered"):
            assert durability_count(bifrost.store, kind, 0.0, 300.0) == 1.0


class TestRecoveryManager:
    def test_unknown_strategy_in_journal_rejected(self, canary_app):
        bifrost = Bifrost(canary_app, durable=True)
        bifrost.journal.append("tick", 1.0, {"strategy": "ghost", "checks": [], "errors": 0})
        manager = RecoveryManager(bifrost.journal, bifrost.snapshots)
        bifrost.supervisor.crash(1.0)
        engine = bifrost.supervisor.factory()
        with pytest.raises(ValidationError):
            manager.recover(engine)

    def test_recovered_marker_appended(self, canary_app):
        strategy = Strategy("s", (canary_phase(),))
        bifrost, _ = durable_run(canary_app, strategy, crash_at=20.0, restart_at=35.0)
        kinds = [r.kind for r in bifrost.journal.records()]
        assert "recovered" in kinds


class TestRecoveryFoldsWithTheEngineReducer:
    """Recovery applies journal records through the same reducer the live
    engine used, so a finished run recovered from its whole journal (no
    snapshot) into a fresh engine equals the live execution field for
    field.  Each case reaches one record kind."""

    @pytest.mark.parametrize(
        "strategy, cancel_at, reached",
        [
            pytest.param(
                inconclusive_strategy(), None, lambda e: e.repeats == {"canary": 1},
                id="repeat",
            ),
            pytest.param(
                ghost_audience_strategy(), None,
                lambda e: e.deadline_exceeded == "canary",
                id="deadline",
            ),
            pytest.param(
                Strategy("s", (canary_phase(
                    type=PhaseType.AB_TEST,
                    experimental_version="1.0.0",
                    second_version="2.0.0",
                    fraction=0.5,
                ),)),
                None,
                lambda e: e.winner == "1.0.0",
                id="winner",
            ),
            pytest.param(
                Strategy("s", (canary_phase(
                    type=PhaseType.GRADUAL_ROLLOUT, steps=(0.2, 0.5, 1.0)
                ),)),
                None,
                lambda e: e.rollout_step == 2,
                id="rollout",
            ),
            pytest.param(
                Strategy("s", (canary_phase(),)), 20.0,
                lambda e: e.outcome is StrategyOutcome.ABORTED,
                id="cancel",
            ),
        ],
    )
    def test_whole_journal_recovers_the_live_execution(
        self, canary_app, strategy, cancel_at, reached
    ):
        bifrost, _ = durable_run(canary_app, strategy, cancel_at=cancel_at)
        live = bifrost.engine.executions
        assert not live[0].running and reached(live[0])
        fresh = bifrost.supervisor.factory()
        RecoveryManager(bifrost.journal).recover(fresh)
        assert [execution_to_dict(e) for e in fresh.executions] == [
            execution_to_dict(e) for e in live
        ]


class TestInFlightOutcome:
    def _truncate_after_decisive_tick(self, bifrost) -> None:
        """Cut the journal right after the first FAIL tick record,
        simulating a crash between a decisive check round and the
        transition it must have triggered."""
        lines = bifrost.journal.storage.lines
        for index, line in enumerate(lines):
            doc = json.loads(line)
            if doc["kind"] == TICK and any(
                c["outcome"] == CheckOutcome.FAIL.value
                for c in doc["data"]["checks"]
            ):
                del lines[index + 1 :]
                return
        raise AssertionError("no FAIL tick found in journal")

    def test_inflight_outcome_degraded_to_inconclusive(self, canary_app):
        broken = canary_app.resolve("backend", "2.0.0")
        broken.endpoints["api"] = constant_endpoint("api", 30.0, error_rate=1.0)
        strategy = Strategy("s", (canary_phase(),))
        bifrost, _ = durable_run(canary_app, strategy)
        assert bifrost.engine.outcomes()["s"] is StrategyOutcome.ROLLED_BACK

        self._truncate_after_decisive_tick(bifrost)
        bifrost.supervisor.crash(bifrost.simulation.now)
        bifrost.supervisor.restart(bifrost.simulation.now)
        report = bifrost.supervisor.reports[-1]
        assert report.inflight == ("s",)
        execution = bifrost.engine.executions[0]
        # The decisive FAIL round was degraded to inconclusive and the
        # phase repeated (conditional chaining), then failed again live.
        assert any(
            t.trigger == "inconclusive" and t.target == t.source
            for t in execution.transitions
        )
        bifrost.simulation.run_until(bifrost.simulation.now + 400.0)
        assert bifrost.engine.outcomes()["s"] is StrategyOutcome.ROLLED_BACK


class TestCatchupRouteReinstall:
    def _route_count(self, bifrost) -> int:
        return sum(1 for r in bifrost.journal.records() if r.kind == "route")

    def test_catchup_repeat_does_not_double_install_route(self, canary_app):
        # Regression (PR 9): when the outage window covers the phase end
        # of an all-inconclusive round, catch-up replays the REPEAT
        # re-entry — which installs and journals the phase route itself.
        # The recover-route step then fired *again* on the re-entered
        # phase, journaling a route update the crash-free run never made.
        baseline, _ = durable_run(canary_app, inconclusive_strategy())
        # Entry + one REPEAT re-entry: exactly two installs.
        assert self._route_count(baseline) == 2

        import copy

        crashed, _ = durable_run(
            copy.deepcopy(canary_app),
            inconclusive_strategy(),
            crash_at=30.0,
            restart_at=75.0,  # past the first round's end at t=61
        )
        assert crashed.supervisor.restarts == 1
        assert self._route_count(crashed) == self._route_count(baseline)
        assert crashed.engine.outcomes()["s"] is baseline.engine.outcomes()["s"]
        baseline_exec = baseline.engine.executions[0]
        crashed_exec = crashed.engine.executions[0]
        assert crashed_exec.phase_entries == baseline_exec.phase_entries
        assert [
            (t.time, t.source, t.target, t.trigger)
            for t in crashed_exec.transitions
        ] == [
            (t.time, t.source, t.target, t.trigger)
            for t in baseline_exec.transitions
        ]

    def test_recovery_without_reentry_still_reinstalls(self, canary_app):
        # The guard must not break the legitimate case: an outage window
        # that ends *inside* the same phase entry re-installs the route
        # exactly once on top of the baseline's single install.
        strategy = Strategy("s", (canary_phase(),))
        bifrost, _ = durable_run(
            canary_app, strategy, crash_at=20.0, restart_at=35.0
        )
        assert bifrost.engine.outcomes()["s"] is StrategyOutcome.COMPLETED
        assert self._route_count(bifrost) == 2  # entry + post-crash reinstall


class TestCorruptTail:
    def test_garbage_tail_dropped_and_resumed(self, canary_app):
        strategy = Strategy("s", (canary_phase(),))
        bifrost = Bifrost(canary_app, seed=3, durable=True)
        bifrost.submit(strategy, at=1.0)
        population = UserPopulation(400, GROUPS, seed=4)
        workload = WorkloadGenerator(population, entry="frontend.home", seed=5)
        bifrost.simulation.schedule_at(20.0, lambda: bifrost.supervisor.crash(20.0))

        def corrupt_and_restart():
            bifrost.journal.storage.lines[-1] = '{"v": 1, "lsn": torn'
            bifrost.supervisor.restart(30.0)

        bifrost.simulation.schedule_at(30.0, corrupt_and_restart)
        bifrost.run(workload.poisson(40.0, 200.0), until=220.0)
        report = bifrost.supervisor.reports[-1]
        assert report.records_dropped == 1
        assert bifrost.engine.outcomes()["s"] in (
            StrategyOutcome.COMPLETED,
            StrategyOutcome.ROLLED_BACK,
        )
        assert bifrost.engine.executions[0].state == TERMINAL_COMPLETE


class TestSnapshotRecovery:
    def test_recovery_from_snapshot_plus_suffix(self, canary_app):
        from repro.bifrost.journal import SnapshotPolicy

        strategy = Strategy("s", (canary_phase(),))
        bifrost, _ = durable_run(
            canary_app,
            strategy,
            crash_at=30.0,
            restart_at=40.0,
            snapshot_policy=SnapshotPolicy(every_records=4, compact=True),
        )
        assert bifrost.engine.outcomes()["s"] is StrategyOutcome.COMPLETED
        assert bifrost.snapshots.taken >= 1
        assert bifrost.supervisor.reports[0].snapshot_restored

    def test_restore_stores_from_snapshot(self, canary_app):
        from repro.bifrost.journal import SnapshotPolicy
        from repro.telemetry.store import MetricStore

        strategy = Strategy("s", (canary_phase(),))
        bifrost, _ = durable_run(
            canary_app,
            strategy,
            snapshot_policy=SnapshotPolicy(every_records=4),
        )
        snapshot = bifrost.snapshots.latest
        assert snapshot is not None and snapshot.metrics is not None
        fresh = MetricStore()
        fresh.restore(snapshot.metrics)
        assert fresh.keys() != []


class TestDeadlineAcrossRestart:
    def test_deadline_measured_from_first_entry_survives_crash(self, canary_app):
        # The deadline must still fire although the engine restarted in
        # between.
        bifrost, _ = durable_run(
            canary_app, ghost_audience_strategy(), crash_at=50.0, restart_at=70.0
        )
        execution = bifrost.engine.executions[0]
        assert execution.deadline_exceeded == "canary"
        assert execution.outcome is StrategyOutcome.ROLLED_BACK
        deadline_transitions = [
            t for t in execution.transitions if t.trigger == "deadline"
        ]
        assert deadline_transitions and deadline_transitions[0].time == pytest.approx(
            101.0
        )


class TestRestartPolicyWindow:
    """The sliding restart budget (PR 7): old crashes age out."""

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValidationError):
            RestartPolicy(max_restarts=-1)
        with pytest.raises(ValidationError):
            RestartPolicy(window_seconds=0.0)
        with pytest.raises(ValidationError):
            RestartPolicy(window_seconds=-5.0)

    def test_lifetime_budget_counts_all_history(self):
        policy = RestartPolicy(max_restarts=2)
        assert policy.charged([1.0, 2.0], now=1e9) == 2
        assert not policy.allows([1.0, 2.0], now=1e9)

    def test_window_expires_old_restarts(self):
        policy = RestartPolicy(max_restarts=2, window_seconds=10.0)
        times = [1.0, 2.0]
        assert policy.charged(times, now=5.0) == 2
        assert not policy.allows(times, now=5.0)
        # At now=12.0 the cutoff is 2.0: the restart *at* 2.0 has aged out.
        assert policy.charged(times, now=12.0) == 0
        assert policy.allows(times, now=12.0)

    def test_supervisor_budget_refills_after_window(self, canary_app):
        bifrost = Bifrost(
            canary_app,
            durable=True,
            restart_policy=RestartPolicy(max_restarts=1, window_seconds=10.0),
        )
        supervisor = bifrost.supervisor
        supervisor.crash(1.0)
        supervisor.restart(2.0)
        assert supervisor.restarts == 1
        supervisor.crash(3.0)
        supervisor.restart(4.0)  # still inside the window: refused
        assert supervisor.gave_up
        assert supervisor.restarts == 1
        assert supervisor.budget_remaining(4.0) == 0
        supervisor.restart(20.0)  # the 2.0 restart has aged out
        assert supervisor.restarts == 2
        assert supervisor.engine.alive

    def test_restore_counters_survives_supervisor_rebuild(self, canary_app):
        policy = RestartPolicy(max_restarts=3)
        bifrost = Bifrost(canary_app, durable=True, restart_policy=policy)
        supervisor = bifrost.supervisor
        supervisor.restore_counters(2, [5.0, 6.0])
        assert supervisor.restarts == 2
        assert supervisor.budget_remaining(7.0) == 1
        supervisor.crash(8.0)
        supervisor.restart(9.0)
        assert supervisor.restarts == 3
        supervisor.crash(10.0)
        supervisor.restart(11.0)
        assert supervisor.gave_up

    def test_factory_failure_consumes_attempt_and_leaves_engine_dead(self):
        from repro.bifrost.recovery import EngineSupervisor

        class _FakeSim:
            now = 0.0

        class _FakeEngine:
            def __init__(self):
                self.alive = True
                self.simulation = _FakeSim()

            def kill(self):
                self.alive = False

        calls = {"n": 0}

        def factory():
            calls["n"] += 1
            if calls["n"] > 1:
                raise RuntimeError("flaky infra")
            return _FakeEngine()

        supervisor = EngineSupervisor(
            factory, Journal(), policy=RestartPolicy(max_restarts=2)
        )
        supervisor.crash(1.0)
        supervisor.restart(2.0)
        assert supervisor.restart_failures == 1
        assert supervisor.restarts == 1  # the attempt was consumed
        assert not supervisor.engine.alive
        assert not supervisor.gave_up
        assert supervisor.budget_remaining(2.0) == 1

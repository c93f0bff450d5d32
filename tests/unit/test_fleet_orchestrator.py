"""Unit tests for the fleet orchestrator: bulkheads, admission, sheds."""

import pytest

from repro.errors import ValidationError
from repro.fenrir.model import ExperimentSpec, SchedulingProblem
from repro.fenrir.reevaluation import build_reevaluation_from_fleet
from repro.fenrir.schedule import Gene, Schedule
from repro.fleet.admission import SHED_STARVED, usage_within_budget
from repro.fleet.orchestrator import (
    OUTCOME_INCONCLUSIVE,
    OUTCOME_PROMOTED,
    OUTCOME_ROLLED_BACK,
    OUTCOME_SHED,
    SHED_CRASH_LOOP,
    SHED_HEALTH,
    ExperimentFaults,
    FleetConfig,
    FleetOrchestrator,
    fleet_outcomes_for_reevaluation,
)
from repro.fleet.watchdog import FleetWatchdog
from repro.traffic.profile import TrafficProfile, UserGroup

ALL = frozenset({"all"})


def make_schedule(
    n=4,
    duration=2,
    fraction=0.1,
    wave=4,
    horizon=None,
    looper=None,
    looper_duration=None,
    starts=None,
):
    """Back-to-back waves of *wave* experiments, one group, fixed volume."""
    waves = (n + wave - 1) // wave
    tail = looper_duration or duration
    horizon = horizon or waves * duration + tail + 2
    profile = TrafficProfile([40_000.0] * horizon, [UserGroup("all", 1.0)])
    specs = [
        ExperimentSpec(
            name=f"exp{i}",
            required_samples=100.0,
            min_traffic_fraction=0.01,
            max_traffic_fraction=1.0,
            max_duration_slots=horizon,
        )
        for i in range(n)
    ]
    genes = [
        Gene(
            start=starts[i] if starts else (i // wave) * duration,
            duration=looper_duration if i == looper else duration,
            fraction=fraction,
            groups=ALL,
        )
        for i in range(n)
    ]
    return Schedule(SchedulingProblem(profile, specs), genes)


def fast_config(**overrides):
    # base_error=0 keeps healthy experiments deterministic: the error
    # gate only trips on injected world deltas, never on ambient noise.
    defaults = dict(
        slot_seconds=30.0, check_interval_seconds=10.0, base_error=0.0, seed=3
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


class TestHealthyFleet:
    def test_all_promote(self):
        result = FleetOrchestrator(make_schedule(4), config=fast_config()).run()
        assert set(result.outcomes) == {"exp0", "exp1", "exp2", "exp3"}
        assert all(o == OUTCOME_PROMOTED for o in result.outcomes.values())
        assert not result.aborted
        assert result.sheds == {}

    def test_every_slot_within_budget(self):
        result = FleetOrchestrator(make_schedule(6), config=fast_config()).run()
        for row in result.ledger:
            assert usage_within_budget(dict(row.usage))

    def test_fleet_wal_structure(self):
        from repro.fleet.orchestrator import K_FINISHED, K_PLANNED, K_SLOT

        orchestrator = FleetOrchestrator(make_schedule(2), config=fast_config())
        orchestrator.run()
        kinds = [r.kind for r in orchestrator.journal.load()[0]]
        assert kinds[0] == K_PLANNED
        assert kinds[-1] == K_FINISHED
        commits = [k for k in kinds if k == K_SLOT]
        assert len(commits) == orchestrator.cursor

    def test_bad_experiment_rolls_back_alone(self):
        result = FleetOrchestrator(
            make_schedule(4),
            world={"exp1": 0.4},
            config=fast_config(),
        ).run()
        assert result.outcomes["exp1"] == OUTCOME_ROLLED_BACK
        for name in ("exp0", "exp2", "exp3"):
            assert result.outcomes[name] == OUTCOME_PROMOTED


class TestValidation:
    def test_config_rejects_bad_parameters(self):
        for bad in (
            dict(slot_seconds=0.0),
            dict(grace_slots=-1),
            dict(budget=0.0),
            dict(max_defer_slots=-1),
            dict(check_interval_seconds=0.0),
            dict(check_window_seconds=-1.0),
            dict(max_repeats=-1),
            dict(restart_max=-1),
        ):
            with pytest.raises(ValidationError):
                FleetConfig(**bad)

    def test_unknown_world_name_rejected(self):
        with pytest.raises(ValidationError):
            FleetOrchestrator(
                make_schedule(2), world={"ghost": 0.5}, config=fast_config()
            )

    def test_unknown_faults_name_rejected(self):
        with pytest.raises(ValidationError):
            FleetOrchestrator(
                make_schedule(2),
                faults={"ghost": ExperimentFaults(crash_loop=True)},
                config=fast_config(),
            )


class TestBulkheads:
    def test_check_errors_absorbed_without_contamination(self):
        schedule = make_schedule(3)
        # Every evaluation errors: each round degrades to inconclusive,
        # the repeat budget drains, and the engine falls back to a safe
        # rollback — all inside exp1's bulkhead.
        faults = {"exp1": ExperimentFaults(check_error_slots=tuple(range(16)))}
        result = FleetOrchestrator(
            schedule, faults=faults, config=fast_config()
        ).run()
        assert result.outcomes["exp1"] == OUTCOME_ROLLED_BACK
        assert result.outcomes["exp0"] == OUTCOME_PROMOTED
        assert result.outcomes["exp2"] == OUTCOME_PROMOTED
        assert not result.aborted

    def test_poison_quarantined_inside_bulkhead(self):
        schedule = make_schedule(3)
        faults = {"exp1": ExperimentFaults(poison_slots=(0, 1))}
        result = FleetOrchestrator(
            schedule, faults=faults, config=fast_config()
        ).run()
        assert result.outcomes["exp1"] == OUTCOME_INCONCLUSIVE
        assert result.outcomes["exp0"] == OUTCOME_PROMOTED
        failed = [pair for row in result.ledger for pair in row.failed]
        assert any(name == "exp1" and "FleetPoison" in err for name, err in failed)
        assert not result.aborted

    def test_poison_without_bulkheads_aborts_fleet(self):
        schedule = make_schedule(3)
        faults = {"exp1": ExperimentFaults(poison_slots=(0, 1))}
        result = FleetOrchestrator(
            schedule, faults=faults, config=fast_config(bulkheads=False)
        ).run()
        assert result.aborted
        # The whole fleet is collateral damage — the designed contamination.
        assert all(o == OUTCOME_INCONCLUSIVE for o in result.outcomes.values())

    def test_crash_restart_still_decides(self):
        schedule = make_schedule(3)
        faults = {"exp0": ExperimentFaults(crash_slots=(0,))}
        result = FleetOrchestrator(
            schedule, faults=faults, config=fast_config()
        ).run()
        assert result.restarts.get("exp0") == 1
        assert result.outcomes["exp0"] in (
            OUTCOME_PROMOTED, OUTCOME_ROLLED_BACK, OUTCOME_INCONCLUSIVE,
        )
        assert result.outcomes["exp1"] == OUTCOME_PROMOTED

    def test_crash_loop_exhausts_budget_then_sheds(self):
        schedule = make_schedule(2, looper=0, looper_duration=6)
        faults = {"exp0": ExperimentFaults(crash_loop=True)}
        result = FleetOrchestrator(
            schedule, faults=faults, config=fast_config(restart_max=2)
        ).run()
        assert result.outcomes["exp0"] == OUTCOME_SHED
        assert result.sheds["exp0"] == SHED_CRASH_LOOP
        assert result.restarts["exp0"] == 2
        assert result.outcomes["exp1"] == OUTCOME_PROMOTED


class TestAdmission:
    def test_contended_start_queued_then_admitted(self):
        # Both want slot 0 at 0.7: one must wait for the other to finish.
        schedule = make_schedule(2, fraction=0.7, starts=[0, 0], horizon=12)
        result = FleetOrchestrator(schedule, config=fast_config()).run()
        first = result.ledger[0]
        assert first.started == ("exp0",)
        assert first.queued == ("exp1",)
        later_starts = [row.slot for row in result.ledger if "exp1" in row.started]
        assert later_starts and later_starts[0] >= 2
        assert result.outcomes["exp1"] == OUTCOME_PROMOTED

    def test_starved_experiment_shed_with_reason(self):
        # exp0 holds 0.7 for 6 slots; exp1 can defer only once.
        schedule = make_schedule(
            2, fraction=0.7, starts=[0, 0], looper=0, looper_duration=6,
            horizon=12,
        )
        result = FleetOrchestrator(
            schedule, config=fast_config(max_defer_slots=1)
        ).run()
        assert result.outcomes["exp1"] == OUTCOME_SHED
        assert result.sheds["exp1"] == SHED_STARVED

    def test_shed_never_silent(self):
        schedule = make_schedule(
            2, fraction=0.7, starts=[0, 0], looper=0, looper_duration=6,
            horizon=12,
        )
        result = FleetOrchestrator(
            schedule, config=fast_config(max_defer_slots=1)
        ).run()
        ledger_sheds = {n for row in result.ledger for n, _ in row.shed}
        assert set(result.sheds) == ledger_sheds
        assert set(result.outcomes) == {"exp0", "exp1"}


class TestWatchdog:
    def test_health_collapse_sheds_running_holders(self):
        # Healthy long enough to admit, then collapse: holders are shed
        # one per slot, lowest weight (then name) first.
        scores = iter([1.0])  # healthy once, then collapsed

        watchdog = FleetWatchdog(health_of=lambda: next(scores, 0.1))
        result = FleetOrchestrator(
            make_schedule(2), config=fast_config(), watchdog=watchdog
        ).run()
        assert result.sheds.get("exp0") == SHED_HEALTH
        assert all(o == OUTCOME_SHED for o in result.outcomes.values()) or (
            result.outcomes["exp0"] == OUTCOME_SHED
        )

    def test_degraded_health_pauses_admission(self):
        watchdog = FleetWatchdog(health_of=lambda: 0.5)
        result = FleetOrchestrator(
            make_schedule(2), config=fast_config(max_defer_slots=2),
            watchdog=watchdog,
        ).run()
        # Nothing is ever admitted; starvation shedding still reports.
        assert all(row.started == () for row in result.ledger)
        assert all(reason == SHED_STARVED for reason in result.sheds.values())
        assert set(result.outcomes) == {"exp0", "exp1"}

    def test_healthy_score_changes_nothing(self):
        watchdog = FleetWatchdog(health_of=lambda: 1.0)
        result = FleetOrchestrator(
            make_schedule(2), config=fast_config(), watchdog=watchdog
        ).run()
        assert all(o == OUTCOME_PROMOTED for o in result.outcomes.values())


class TestReevaluationLoop:
    def test_fleet_outcomes_feed_replanning(self):
        schedule = make_schedule(3, looper=0, looper_duration=6)
        faults = {"exp0": ExperimentFaults(crash_loop=True)}
        result = FleetOrchestrator(
            schedule, faults=faults, config=fast_config(restart_max=2)
        ).run()
        outcomes = fleet_outcomes_for_reevaluation(result)
        plan = build_reevaluation_from_fleet(
            schedule, now_slot=result.slots_run - 1, outcomes=outcomes
        )
        assert "exp0" in plan.revived
        assert sorted(plan.finished) == ["exp1", "exp2"]


class TestResultDigest:
    def test_digest_excludes_recovered_flag(self):
        import dataclasses

        result = FleetOrchestrator(make_schedule(2), config=fast_config()).run()
        twin = dataclasses.replace(result, recovered=True)
        assert result.digest() == twin.digest()

    def test_identical_runs_identical_digests(self):
        a = FleetOrchestrator(make_schedule(3), config=fast_config()).run()
        b = FleetOrchestrator(make_schedule(3), config=fast_config()).run()
        assert a.digest() == b.digest()

"""Unit tests for crash-consistent fleet recovery."""

import pytest

from repro.bifrost.journal import Journal, MemoryJournalStorage
from repro.errors import ValidationError
from repro.fleet.orchestrator import ExperimentFaults, FleetOrchestrator, OrchestratorKilled
from repro.fleet.recovery import recover_fleet
from tests.unit.test_fleet_orchestrator import fast_config, make_schedule


class FleetHarness:
    """One fleet over durable (in-memory) storage, killable and recoverable."""

    def __init__(self, schedule, config, faults=None, world=None):
        self.schedule = schedule
        self.config = config
        self.faults = faults or {}
        self.world = world or {}
        self.fleet_storage = MemoryJournalStorage()
        self.exp_storages = {}

    def journal_factory(self, name):
        storage = self.exp_storages.setdefault(name, MemoryJournalStorage())
        return Journal(storage)

    def build(self, kill_at=None):
        return FleetOrchestrator(
            self.schedule,
            world=self.world,
            faults=self.faults,
            config=self.config,
            fleet_journal=Journal(self.fleet_storage),
            journal_factory=self.journal_factory,
            crash_after_appends=kill_at,
        )

    def run_killed(self, kill_at):
        """Run until the injected kill; returns whether the kill fired."""
        orchestrator = self.build(kill_at=kill_at)
        try:
            orchestrator.run()
            return False
        except OrchestratorKilled:
            return True

    def recover(self):
        return recover_fleet(
            Journal(self.fleet_storage), self.journal_factory
        )


def uncrashed_digest(schedule, config, faults=None, world=None):
    return FleetOrchestrator(
        schedule, world=world or {}, faults=faults or {}, config=config
    ).run().digest()


FAULTS = {
    "exp0": ExperimentFaults(crash_loop=True),
    "exp2": ExperimentFaults(check_error_slots=tuple(range(16))),
    "exp3": ExperimentFaults(crash_slots=(2,)),
}


class TestKillAndRecover:
    @pytest.mark.parametrize("kill_at", [1, 3, 5, 8, 12])
    def test_recovered_equals_uncrashed(self, kill_at):
        schedule = make_schedule(4, looper=0, looper_duration=6)
        config = fast_config(restart_max=2)
        world = {"exp1": 0.4}
        baseline = uncrashed_digest(schedule, config, FAULTS, world)
        harness = FleetHarness(schedule, config, FAULTS, world)
        killed = harness.run_killed(kill_at)
        assert killed, f"kill point {kill_at} never reached"
        recovered = harness.recover()
        result = recovered.run()
        assert result.recovered
        assert result.digest() == baseline

    def test_kill_before_first_append_loses_nothing(self):
        schedule = make_schedule(2)
        config = fast_config()
        harness = FleetHarness(schedule, config)
        with pytest.raises(OrchestratorKilled):
            harness.build(kill_at=0)
        # Nothing durable: a fresh orchestrator starts from scratch.
        assert harness.fleet_storage.lines == []

    def test_crash_loop_budget_not_refilled_by_recovery(self):
        # Kill the orchestrator after the looper has burned restarts;
        # the recovered supervisor must remember them, or the looper
        # would limp on with a fresh budget and diverge from baseline.
        schedule = make_schedule(2, looper=0, looper_duration=6)
        config = fast_config(restart_max=2)
        faults = {"exp0": ExperimentFaults(crash_loop=True)}
        baseline = uncrashed_digest(schedule, config, faults)
        harness = FleetHarness(schedule, config, faults)
        assert harness.run_killed(8)
        recovered = harness.recover()
        looper = recovered.bulkheads["exp0"].supervisor
        assert looper.restarts >= 1
        assert len(looper.restart_times) == looper.restarts
        result = recovered.run()
        assert result.digest() == baseline
        assert result.sheds["exp0"] == "crash_loop"

    def test_recovery_emits_recovered_record(self):
        from repro.fleet.orchestrator import K_RECOVERED

        schedule = make_schedule(2)
        config = fast_config()
        harness = FleetHarness(schedule, config)
        assert harness.run_killed(4)
        harness.recover()
        kinds = [r.kind for r in Journal(harness.fleet_storage).load()[0]]
        assert K_RECOVERED in kinds


class TestRecoveryEdgeCases:
    def test_no_planned_record_rejected(self):
        with pytest.raises(ValidationError):
            recover_fleet(Journal(), lambda name: Journal())

    def test_corrupt_tail_truncated(self):
        schedule = make_schedule(2)
        config = fast_config()
        harness = FleetHarness(schedule, config)
        assert harness.run_killed(5)
        harness.fleet_storage.lines.append('{"torn wri')
        recovered = harness.recover()
        result = recovered.run()
        assert result.digest() == uncrashed_digest(schedule, config)

    def test_double_kill_double_recovery(self):
        schedule = make_schedule(4, looper=0, looper_duration=6)
        config = fast_config(restart_max=2)
        baseline = uncrashed_digest(schedule, config, FAULTS)
        harness = FleetHarness(schedule, config, FAULTS)
        assert harness.run_killed(4)
        # Second incarnation dies too (counting restarts from zero
        # appends again), before a third finally finishes the fleet.
        second = recover_fleet(
            Journal(harness.fleet_storage),
            harness.journal_factory,
            crash_after_appends=6,
        )
        with pytest.raises(OrchestratorKilled):
            second.run()
        result = harness.recover().run()
        assert result.digest() == baseline

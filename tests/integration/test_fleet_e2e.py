"""Chaos end-to-end: a 100-experiment fleet under injected faults.

ISSUE 7's acceptance scenario: a fleet of 100+ concurrent strategies
with injected check exceptions, version crashes, and one crash-looping
experiment must complete the schedule with **zero cross-experiment
contamination** — every non-faulted experiment's outcome is identical to
a fault-free twin run — and a kill-the-orchestrator-mid-slot recovery
run must equal the uncrashed run record-for-record.
"""

import pytest

from repro.bifrost.journal import Journal, MemoryJournalStorage
from repro.fleet.admission import usage_within_budget
from repro.fleet.orchestrator import (
    OUTCOME_ROLLED_BACK,
    OUTCOME_SHED,
    SHED_CRASH_LOOP,
    ExperimentFaults,
    FleetOrchestrator,
    OrchestratorKilled,
)
from repro.fleet.recovery import recover_fleet
from tests.unit.test_fleet_orchestrator import fast_config, make_schedule

N = 100
LOOPER = "exp0"
CHECK_ERROR = [f"exp{i}" for i in range(10, 15)]
CRASHING = [f"exp{i}" for i in range(20, 25)]
BAD = "exp30"

FAULTS = {
    LOOPER: ExperimentFaults(crash_loop=True),
    **{
        name: ExperimentFaults(check_error_slots=tuple(range(40)))
        for name in CHECK_ERROR
    },
    **{
        # Each crasher dies at its own wave's start slot.
        name: ExperimentFaults(crash_slots=((int(name[3:]) // 10) * 2,))
        for name in CRASHING
    },
}
WORLD = {BAD: 0.4}
FAULTED = set(FAULTS)


def chaos_schedule():
    return make_schedule(
        N, duration=2, fraction=0.05, wave=10, looper=0, looper_duration=6
    )


def chaos_config(**overrides):
    return fast_config(restart_max=2, base_error=0.02, **overrides)


@pytest.fixture(scope="module")
def clean_run():
    return FleetOrchestrator(
        chaos_schedule(), world=WORLD, config=chaos_config()
    ).run()


@pytest.fixture(scope="module")
def chaos_run():
    return FleetOrchestrator(
        chaos_schedule(), world=WORLD, faults=FAULTS, config=chaos_config()
    ).run()


class TestChaosFleet:
    def test_schedule_completes_with_all_outcomes(self, chaos_run):
        assert not chaos_run.aborted
        assert len(chaos_run.outcomes) == N

    def test_zero_cross_experiment_contamination(self, clean_run, chaos_run):
        differing = [
            name
            for name in clean_run.outcomes
            if name not in FAULTED
            and chaos_run.outcomes[name] != clean_run.outcomes[name]
        ]
        assert differing == [], (
            f"faults leaked out of their bulkheads into {differing}"
        )

    def test_crash_looper_shed_with_budget_spent(self, chaos_run):
        assert chaos_run.outcomes[LOOPER] == OUTCOME_SHED
        assert chaos_run.sheds[LOOPER] == SHED_CRASH_LOOP
        assert chaos_run.restarts[LOOPER] == 2

    def test_crashed_experiments_restarted_and_decided(self, chaos_run):
        for name in CRASHING:
            assert chaos_run.restarts.get(name) == 1
            assert chaos_run.outcomes[name] not in (None, OUTCOME_SHED)

    def test_bad_experiment_rolled_back_in_both_runs(self, clean_run, chaos_run):
        assert clean_run.outcomes[BAD] == OUTCOME_ROLLED_BACK
        assert chaos_run.outcomes[BAD] == OUTCOME_ROLLED_BACK

    def test_no_slot_over_admitted(self, chaos_run):
        assert chaos_run.ledger, "fleet committed no slots"
        for row in chaos_run.ledger:
            assert usage_within_budget(dict(row.usage))

    def test_sheds_always_reported(self, chaos_run):
        ledger_sheds = {n for row in chaos_run.ledger for n, _ in row.shed}
        assert set(chaos_run.sheds) == ledger_sheds
        for name in chaos_run.sheds:
            assert chaos_run.outcomes[name] == OUTCOME_SHED


class TestKillMidSlot:
    def test_recovered_run_equals_uncrashed(self, chaos_run):
        fleet_storage = MemoryJournalStorage()
        exp_storages: dict[str, MemoryJournalStorage] = {}

        def factory(name):
            storage = exp_storages.setdefault(name, MemoryJournalStorage())
            return Journal(storage)

        # Kill mid-slot: append 40 lands between a slot's start record
        # and its commit, deep inside the run.
        with pytest.raises(OrchestratorKilled):
            FleetOrchestrator(
                chaos_schedule(),
                world=WORLD,
                faults=FAULTS,
                config=chaos_config(),
                fleet_journal=Journal(fleet_storage),
                journal_factory=factory,
                crash_after_appends=40,
            ).run()

        recovered = recover_fleet(Journal(fleet_storage), factory)
        result = recovered.run()
        assert result.recovered
        assert result.digest() == chaos_run.digest()

"""A supervised fleet: Fenrir's plan runs through Bifrost and survives.

The fleet orchestrator closes the dissertation's loop: a Fenrir
schedule of overlapping experiments executes as a fleet of bulkheaded
Bifrost engines under per-slot admission control.  This example runs an
eight-experiment fleet through a hostile slate — one experiment
crash-loops until its restart budget is spent, one version crashes once
mid-flight and is restarted, one version is genuinely bad and rolls
back — then kills the orchestrator mid-slot and recovers it from the
fleet WAL, finishing with a result identical to the run that never
crashed.  The outcomes finally feed Fenrir reevaluation, which revives
the shed experiment in a fresh plan.

Run with::

    python examples/fleet_orchestrator.py
"""

from repro.bifrost.journal import Journal, MemoryJournalStorage
from repro.fenrir.model import ExperimentSpec, SchedulingProblem
from repro.fenrir.reevaluation import build_reevaluation_from_fleet
from repro.fenrir.schedule import Gene, Schedule
from repro.fleet.orchestrator import (
    ExperimentFaults,
    FleetConfig,
    FleetOrchestrator,
    OrchestratorKilled,
    fleet_outcomes_for_reevaluation,
)
from repro.fleet.recovery import recover_fleet
from repro.traffic.profile import TrafficProfile, UserGroup

WAVE = 4
DURATION = 2
LOOPER_DURATION = 6

FAULTS = {
    "checkout": ExperimentFaults(crash_loop=True),
    "search": ExperimentFaults(crash_slots=(0,)),
}
WORLD = {"payments": 0.4}  # the one genuinely bad candidate version

NAMES = (
    "checkout", "search", "catalog", "payments",
    "reviews", "shipping", "profile", "billing",
)


def build_schedule() -> Schedule:
    """Two waves of four experiments on one shared user group."""
    horizon = 2 * DURATION + LOOPER_DURATION + 2
    profile = TrafficProfile([40_000.0] * horizon, [UserGroup("all", 1.0)])
    specs = [
        ExperimentSpec(
            name=name,
            required_samples=100.0,
            min_traffic_fraction=0.01,
            max_traffic_fraction=1.0,
            max_duration_slots=horizon,
        )
        for name in NAMES
    ]
    genes = [
        Gene(
            start=(i // WAVE) * DURATION,
            duration=LOOPER_DURATION if i == 0 else DURATION,
            fraction=0.1,
            groups=frozenset({"all"}),
        )
        for i in range(len(NAMES))
    ]
    return Schedule(SchedulingProblem(profile, specs), genes)


def config() -> FleetConfig:
    return FleetConfig(
        slot_seconds=30.0,
        check_interval_seconds=10.0,
        base_error=0.0,
        restart_max=2,
        seed=3,
    )


def main() -> None:
    schedule = build_schedule()

    print("== fleet run under faults ==")
    result = FleetOrchestrator(
        schedule, world=WORLD, faults=FAULTS, config=config()
    ).run()
    print(f"slots run: {result.slots_run}, aborted: {result.aborted}")
    for name in NAMES:
        note = ""
        if name in result.sheds:
            note = f" (shed: {result.sheds[name]})"
        elif result.restarts.get(name):
            note = f" (restarts: {result.restarts[name]})"
        print(f"  {name:<9} -> {result.outcomes[name]}{note}")

    print("\n== kill mid-slot, recover from the fleet WAL ==")
    fleet_storage = MemoryJournalStorage()
    exp_storages: dict[str, MemoryJournalStorage] = {}

    def journal_factory(name: str) -> Journal:
        return Journal(exp_storages.setdefault(name, MemoryJournalStorage()))

    try:
        FleetOrchestrator(
            schedule,
            world=WORLD,
            faults=FAULTS,
            config=config(),
            fleet_journal=Journal(fleet_storage),
            journal_factory=journal_factory,
            crash_after_appends=8,
        ).run()
    except OrchestratorKilled:
        print("orchestrator killed before fleet-WAL append 9")
    recovered = recover_fleet(Journal(fleet_storage), journal_factory).run()
    print(f"recovered run matches uncrashed run: "
          f"{recovered.digest() == result.digest()}")

    print("\n== outcomes feed Fenrir reevaluation ==")
    plan = build_reevaluation_from_fleet(
        schedule,
        now_slot=result.slots_run - 1,
        outcomes=fleet_outcomes_for_reevaluation(result),
    )
    print(f"finished, dropped from the plan: {', '.join(sorted(plan.finished))}")
    print(f"revived for a fresh attempt: {', '.join(sorted(plan.revived))}")


if __name__ == "__main__":
    main()

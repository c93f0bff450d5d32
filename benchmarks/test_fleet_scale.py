"""Fleet-scale benchmark: 100+ supervised strategies under one orchestrator.

Extends the engine scaling study of Figs 4.7–4.10 by a layer: instead of
N bare strategies on one engine, N *fleets* of bulkheaded engines run a
Fenrir schedule end to end — admission control, supervision, watchdog,
and the fleet WAL all on the measured path.  Each sweep point injects a
fixed fault mix (one crash-looper, a wave of crashing versions, one
genuinely bad version) so the supervision machinery is exercised, not
idle.  Reported per fleet size: wall-clock, slots, outcomes, restarts,
sheds, and the aggregated engine CPU/delay numbers (each bulkhead's
journal priced by ``engine_load``) that the dissertation tracks ("more
than a hundred experiments in parallel without ... significant
performance degradation").

``FLEET_SMOKE=1`` switches to a reduced configuration for CI: fewer and
smaller fleets, same fault mix, same invariants.
"""

import json
import os
import time

from _util import OUTPUT_DIR, emit, format_rows

from repro.bifrost.engine import engine_load
from repro.errors import SimulationError
from repro.fenrir.model import ExperimentSpec, SchedulingProblem
from repro.fenrir.schedule import Gene, Schedule
from repro.fleet.admission import usage_within_budget
from repro.fleet.orchestrator import (
    OUTCOME_PROMOTED,
    OUTCOME_SHED,
    ExperimentFaults,
    FleetConfig,
    FleetOrchestrator,
)
from repro.traffic.profile import TrafficProfile, UserGroup

SMOKE = os.environ.get("FLEET_SMOKE") == "1"
FLEET_SIZES = (10, 25, 50) if SMOKE else (25, 50, 100, 200)
WAVE = 10
DURATION = 2
FRACTION = 0.05
LOOPER_DURATION = 6
MAX_WALL_SECONDS = 30.0 if SMOKE else 120.0


def build_schedule(n: int) -> Schedule:
    """Back-to-back waves of WAVE experiments, one group, fixed volume."""
    waves = (n + WAVE - 1) // WAVE
    horizon = waves * DURATION + LOOPER_DURATION + 2
    profile = TrafficProfile([40_000.0] * horizon, [UserGroup("all", 1.0)])
    specs = [
        ExperimentSpec(
            name=f"exp{i:03d}",
            required_samples=100.0,
            min_traffic_fraction=0.01,
            max_traffic_fraction=1.0,
            max_duration_slots=horizon,
        )
        for i in range(n)
    ]
    genes = [
        Gene(
            start=(i // WAVE) * DURATION,
            duration=LOOPER_DURATION if i == 0 else DURATION,
            fraction=FRACTION,
            groups=frozenset({"all"}),
        )
        for i in range(n)
    ]
    return Schedule(SchedulingProblem(profile, specs), genes)


def build_faults(n: int) -> dict[str, ExperimentFaults]:
    """One crash-looper, one crasher per wave, errors on a mid-fleet wave."""
    faults: dict[str, ExperimentFaults] = {
        "exp000": ExperimentFaults(crash_loop=True)
    }
    for i in range(5, n, WAVE):  # one mid-wave crasher per wave
        faults[f"exp{i:03d}"] = ExperimentFaults(
            crash_slots=((i // WAVE) * DURATION,)
        )
    for i in range(1, min(4, n)):
        faults[f"exp{i:03d}"] = ExperimentFaults(
            check_error_slots=tuple(range(16))
        )
    return faults


def measure(n: int) -> dict[str, float]:
    schedule = build_schedule(n)
    faults = build_faults(n)
    world = {f"exp{n - 1:03d}": 0.4}  # one genuinely bad version
    orchestrator = FleetOrchestrator(
        schedule,
        world=world,
        faults=faults,
        config=FleetConfig(
            slot_seconds=30.0,
            check_interval_seconds=10.0,
            restart_max=2,
            seed=3,
        ),
    )
    started = time.perf_counter()
    result = orchestrator.run()
    wall = time.perf_counter() - started

    # Invariants ride along with the measurement: a fast fleet that
    # over-admits or loses outcomes is not a result worth reporting.
    assert not result.aborted
    assert len(result.outcomes) == n
    for row in result.ledger:
        assert usage_within_budget(dict(row.usage))
    assert result.sheds.get("exp000") is not None  # looper gave up
    assert result.outcomes[f"exp{n - 1:03d}"] != OUTCOME_PROMOTED

    # Aggregate the per-bulkhead engine loads into fleet-wide CPU/delay
    # numbers, weighting means by task count.
    tasks = 0
    busy_weighted = 0.0
    delay_weighted = 0.0
    p95 = 0.0
    worst = 0.0
    for bulkhead in orchestrator.bulkheads.values():
        try:
            report = engine_load(bulkhead.journal.records()).report()
        except SimulationError:  # engine never ran a task (shed early)
            continue
        tasks += report.tasks
        busy_weighted += report.utilization * report.tasks
        delay_weighted += report.delay_stats.mean * report.tasks
        p95 = max(p95, report.delay_stats.p95)
        worst = max(worst, report.delay_stats.maximum)
    return {
        "experiments": n,
        "slots": result.slots_run,
        "promoted": sum(
            1 for o in result.outcomes.values() if o == OUTCOME_PROMOTED
        ),
        "shed": sum(1 for o in result.outcomes.values() if o == OUTCOME_SHED),
        "restarts": sum(result.restarts.values()),
        "engine_tasks": tasks,
        "cpu_utilization": busy_weighted / tasks if tasks else 0.0,
        "mean_delay_ms": (delay_weighted / tasks if tasks else 0.0) * 1000.0,
        "p95_delay_ms": p95 * 1000.0,
        "max_delay_ms": worst * 1000.0,
        "wall_s": wall,
    }


def test_fleet_scaling_curve():
    """Sweep fleet sizes; degradation must stay sub-linear and bounded."""
    rows = [measure(n) for n in FLEET_SIZES]

    # The dissertation's claim, one layer up: scaling the fleet by an
    # order of magnitude must not blow up per-check delay or wall-clock.
    total_wall = sum(row["wall_s"] for row in rows)
    assert total_wall <= MAX_WALL_SECONDS, (
        f"fleet sweep took {total_wall:.1f}s, over the "
        f"{MAX_WALL_SECONDS:.0f}s budget"
    )
    if not SMOKE:
        assert rows[-1]["experiments"] >= 100
    smallest, largest = rows[0], rows[-1]
    growth = largest["experiments"] / smallest["experiments"]
    if smallest["wall_s"] > 0.05:  # below that, timer noise dominates
        assert largest["wall_s"] <= smallest["wall_s"] * growth * 4.0, (
            "fleet wall-clock grew super-linearly: "
            f"{smallest['wall_s']:.2f}s @ {smallest['experiments']} vs "
            f"{largest['wall_s']:.2f}s @ {largest['experiments']}"
        )

    artifact = "BENCH fleet scale (Figs 4.7-4.10, fleet layer)"
    emit(artifact, format_rows(rows))
    report = {
        "smoke": SMOKE,
        "fleet_sizes": list(FLEET_SIZES),
        "rows": rows,
    }
    with open(os.path.join(OUTPUT_DIR, "BENCH_fleet_scale.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)

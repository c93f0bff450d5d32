"""Reevaluating existing schedules (Section 3.6.4).

Experimentation is dominated by *uncertainty*: experiments finish, get
canceled, or new ones arrive while a schedule is already executing.
Reevaluation rebuilds the scheduling problem at the current slot:

- experiments that already **finished** drop out,
- **canceled** experiments free their reserved traffic,
- **running** experiments are *locked* — they keep their start, duration,
  fraction, and groups (experiments must not be interrupted),
- not-yet-started and **new** experiments are (re)optimized, constrained
  to start no earlier than the current slot.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

from repro.errors import ValidationError
from repro.fenrir.base import SearchAlgorithm, SearchResult
from repro.fenrir.fitness import FitnessWeights
from repro.fenrir.model import ExperimentSpec, SchedulingProblem
from repro.fenrir.schedule import Gene, Schedule


@dataclass
class ReevaluationPlan:
    """The rebuilt problem plus bookkeeping about what happened."""

    problem: SchedulingProblem
    initial: Schedule
    locked: frozenset[int]
    finished: tuple[str, ...]
    canceled: tuple[str, ...]
    added: tuple[str, ...]
    revived: tuple[str, ...] = ()


#: Fleet outcomes that settle an experiment for good: the question the
#: experiment asked has been answered (or deliberately abandoned), so
#: reevaluation drops it like any finished experiment.
DECIDED_OUTCOMES = frozenset({"promoted", "rolled_back", "aborted"})

#: Fleet outcomes that leave the question open: the experiment consumed
#: traffic but produced no verdict, so reevaluation re-plans it from the
#: current slot with a fresh traffic reservation.
REVIVABLE_OUTCOMES = frozenset({"inconclusive", "shed"})

FLEET_OUTCOMES = DECIDED_OUTCOMES | REVIVABLE_OUTCOMES


def build_reevaluation(
    schedule: Schedule,
    now_slot: int,
    canceled: set[str] | None = None,
    new_experiments: list[ExperimentSpec] | None = None,
) -> ReevaluationPlan:
    """Construct the reevaluation problem from a running *schedule*."""
    canceled = canceled or set()
    new_experiments = new_experiments or []
    old_problem = schedule.problem

    specs: list[ExperimentSpec] = []
    genes: list[Gene] = []
    locked_indices: list[int] = []
    finished: list[str] = []
    dropped: list[str] = []

    for spec, gene in schedule:
        if spec.name in canceled:
            dropped.append(spec.name)
            continue
        if gene.end <= now_slot:
            finished.append(spec.name)
            continue
        if gene.start <= now_slot:
            # Running: keep verbatim and lock.
            locked_indices.append(len(specs))
            specs.append(spec)
            genes.append(gene)
        else:
            # Not yet started: free to re-plan, but not into the past.
            specs.append(replace(spec, earliest_start=max(spec.earliest_start, now_slot)))
            genes.append(gene if gene.start >= now_slot else gene.with_(start=now_slot))

    added: list[str] = []
    for spec in new_experiments:
        specs.append(replace(spec, earliest_start=max(spec.earliest_start, now_slot)))
        added.append(spec.name)

    problem = SchedulingProblem(old_problem.profile, specs)
    # Seed genes for brand-new experiments: a naive immediate plan the
    # search will refine.
    from repro.fenrir.operators import random_gene  # local import: avoids cycle
    from repro.simulation.rng import SeededRng

    rng = SeededRng(now_slot + 1)
    for spec in specs[len(genes):]:
        genes.append(random_gene(problem, spec, rng))
    initial = Schedule(problem, genes)
    return ReevaluationPlan(
        problem=problem,
        initial=initial,
        locked=frozenset(locked_indices),
        finished=tuple(finished),
        canceled=tuple(dropped),
        added=tuple(added),
    )


def build_reevaluation_from_fleet(
    schedule: Schedule,
    now_slot: int,
    outcomes: Mapping[str, str],
    new_experiments: list[ExperimentSpec] | None = None,
) -> ReevaluationPlan:
    """Rebuild the problem from real fleet outcomes instead of hand deltas.

    *outcomes* maps experiment names to the terminal outcome the fleet
    orchestrator reported (see :data:`FLEET_OUTCOMES`):

    - ``promoted`` / ``rolled_back`` / ``aborted`` — decided; drops out
      like a finished experiment,
    - ``inconclusive`` / ``shed`` — undecided; *revived*: re-planned from
      the current slot exactly like a not-yet-started experiment, so the
      next schedule reserves traffic to re-run it,
    - experiments absent from *outcomes* are still running (locked) or
      not yet started (re-planned), as in :func:`build_reevaluation`.
    """
    new_experiments = new_experiments or []
    known = {spec.name for spec, _ in schedule}
    for name, outcome in outcomes.items():
        if name not in known:
            raise ValidationError(
                f"fleet outcome for unknown experiment {name!r}"
            )
        if outcome not in FLEET_OUTCOMES:
            raise ValidationError(
                f"unknown fleet outcome {outcome!r} for {name!r}; "
                f"known: {sorted(FLEET_OUTCOMES)}"
            )
    old_problem = schedule.problem

    specs: list[ExperimentSpec] = []
    genes: list[Gene] = []
    locked_indices: list[int] = []
    finished: list[str] = []
    revived: list[str] = []

    for spec, gene in schedule:
        outcome = outcomes.get(spec.name)
        if outcome in DECIDED_OUTCOMES:
            finished.append(spec.name)
            continue
        if outcome in REVIVABLE_OUTCOMES:
            revived.append(spec.name)
            specs.append(
                replace(spec, earliest_start=max(spec.earliest_start, now_slot))
            )
            genes.append(gene.with_(start=max(gene.start, now_slot)))
            continue
        if gene.start <= now_slot:
            # Still running under the fleet: keep verbatim and lock.
            locked_indices.append(len(specs))
            specs.append(spec)
            genes.append(gene)
        else:
            specs.append(
                replace(spec, earliest_start=max(spec.earliest_start, now_slot))
            )
            genes.append(gene if gene.start >= now_slot else gene.with_(start=now_slot))

    added: list[str] = []
    for spec in new_experiments:
        specs.append(replace(spec, earliest_start=max(spec.earliest_start, now_slot)))
        added.append(spec.name)

    problem = SchedulingProblem(old_problem.profile, specs)
    from repro.fenrir.operators import random_gene  # local import: avoids cycle
    from repro.simulation.rng import SeededRng

    rng = SeededRng(now_slot + 1)
    for spec in specs[len(genes):]:
        genes.append(random_gene(problem, spec, rng))
    initial = Schedule(problem, genes)
    return ReevaluationPlan(
        problem=problem,
        initial=initial,
        locked=frozenset(locked_indices),
        finished=tuple(finished),
        canceled=(),
        added=tuple(added),
        revived=tuple(revived),
    )


def reevaluate(
    schedule: Schedule,
    now_slot: int,
    algorithm: SearchAlgorithm,
    canceled: set[str] | None = None,
    new_experiments: list[ExperimentSpec] | None = None,
    budget: int = 2000,
    seed: int = 0,
    weights: FitnessWeights | None = None,
) -> tuple[ReevaluationPlan, SearchResult]:
    """Rebuild the problem at *now_slot* and re-optimize with *algorithm*.

    LS and SA start from the existing (typically GA-produced) schedule —
    the reason the paper observed the fitness gap between algorithms to
    narrow under reevaluation.
    """
    plan = build_reevaluation(schedule, now_slot, canceled, new_experiments)
    result = algorithm.optimize(
        plan.problem,
        budget=budget,
        seed=seed,
        weights=weights,
        initial=plan.initial,
        locked=plan.locked,
    )
    return plan, result

"""Fitness and constraint evaluation of schedules (Sections 3.4.3–3.4.4).

A schedule is *valid* iff it satisfies all experiment constraints
(non-interruption is structural; bounds on start/duration/fraction;
minimum sample size) and the overarching constraint (no user group is
oversubscribed in any slot — experiments must not overlap).

The fitness of a valid schedule is a weighted combination of three
objectives per experiment, each normalized to [0, 1]:

- **duration**: shorter is better ("experiments should not last longer
  than needed"),
- **start time**: earlier is better ("experiments should start as soon as
  possible"),
- **group coverage**: run on the preferred user groups when specified.

Search algorithms additionally use a *penalized* score — the raw fitness
minus a penalty proportional to constraint violations — so they can move
through infeasible regions toward feasible optima.

The per-gene helpers (:func:`_gene_constraints`, :func:`_gene_objectives`,
:func:`_finalize`) are shared with :mod:`repro.fenrir.fastfit`'s
scorer, so the reference and the memoized path cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.fenrir.model import ExperimentSpec, SchedulingProblem
from repro.fenrir.schedule import Gene, Schedule


@dataclass(frozen=True)
class FitnessWeights:
    """Relative weights of the three objectives; must sum to 1."""

    duration: float = 0.4
    start: float = 0.4
    coverage: float = 0.2

    def __post_init__(self) -> None:
        total = self.duration + self.start + self.coverage
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(f"fitness weights must sum to 1, got {total}")
        if min(self.duration, self.start, self.coverage) < 0:
            raise ConfigurationError("fitness weights must be >= 0")


@dataclass(frozen=True)
class ScheduleEvaluation:
    """Full evaluation result of one schedule."""

    fitness: float
    valid: bool
    penalized: float
    violations: tuple[str, ...] = field(default=())
    per_experiment: tuple[float, ...] = field(default=())

    @classmethod
    def worst(cls) -> "ScheduleEvaluation":
        """A sentinel ranking below every real evaluation.

        Used to pad population scores once the evaluation budget is spent:
        the penalized score of ``-inf`` keeps ranking well-defined while
        guaranteeing padded entries never win a tournament or elitism slot.
        """
        return cls(fitness=0.0, valid=False, penalized=float("-inf"))


def _gene_objective_components(
    spec: ExperimentSpec, gene: Gene, horizon: int
) -> tuple[float, float, float]:
    """(duration, start, coverage) objective scores of one gene, each in [0, 1]."""
    dur_span = spec.max_duration_slots - spec.min_duration_slots
    if dur_span > 0:
        duration_score = 1.0 - (gene.duration - spec.min_duration_slots) / dur_span
    else:
        duration_score = 1.0
    duration_score = min(1.0, max(0.0, duration_score))

    start_span = max(1, horizon - 1 - spec.earliest_start)
    start_score = 1.0 - (gene.start - spec.earliest_start) / start_span
    start_score = min(1.0, max(0.0, start_score))

    if spec.preferred_groups:
        overlap = len(gene.groups & spec.preferred_groups)
        coverage_score = overlap / len(gene.groups | spec.preferred_groups)
    else:
        coverage_score = 1.0

    return duration_score, start_score, coverage_score


def _gene_objectives(
    spec: ExperimentSpec, gene: Gene, horizon: int, weights: FitnessWeights
) -> float:
    duration_score, start_score, coverage_score = _gene_objective_components(
        spec, gene, horizon
    )
    return (
        weights.duration * duration_score
        + weights.start * start_score
        + weights.coverage * coverage_score
    )


def _gene_constraints(
    problem: SchedulingProblem, spec: ExperimentSpec, gene: Gene
) -> tuple[list[str], float]:
    """Per-gene violation messages and sample-size shortfall (0.0 if met)."""
    horizon = problem.horizon
    violations: list[str] = []
    if gene.start < spec.earliest_start:
        violations.append(
            f"{spec.name}: starts at {gene.start} before earliest "
            f"{spec.earliest_start}"
        )
    if gene.end > horizon:
        violations.append(
            f"{spec.name}: ends at {gene.end} beyond horizon {horizon}"
        )
    if not spec.min_duration_slots <= gene.duration <= spec.max_duration_slots:
        violations.append(
            f"{spec.name}: duration {gene.duration} outside "
            f"[{spec.min_duration_slots}, {spec.max_duration_slots}]"
        )
    if not spec.min_traffic_fraction <= gene.fraction <= spec.max_traffic_fraction:
        violations.append(
            f"{spec.name}: fraction {gene.fraction:.4f} outside "
            f"[{spec.min_traffic_fraction}, {spec.max_traffic_fraction}]"
        )
    collected = (
        problem.window_volume(gene.start, gene.end, gene.groups) * gene.fraction
    )
    shortfall = 0.0
    if collected < spec.required_samples:
        violations.append(
            f"{spec.name}: collects {collected:.0f} of "
            f"{spec.required_samples:.0f} required samples"
        )
        shortfall = 1.0 - collected / spec.required_samples
    return violations, shortfall


def _oversubscription_message(slot: int, group: str, used: float) -> str:
    return (
        f"slot {slot}, group {group}: traffic "
        f"oversubscribed ({used:.2f} > 1.0)"
    )


def _finalize(
    scores: list[float],
    violations: list[str],
    shortfall_penalty: float,
    overlap_penalty: float,
    total_weight: float,
) -> ScheduleEvaluation:
    """Assemble the final evaluation from its accumulated components."""
    raw = sum(scores) / total_weight if scores else 0.0
    valid = not violations
    penalty = 0.15 * len(violations) + 0.3 * shortfall_penalty + 0.3 * overlap_penalty
    penalized = raw - penalty
    return ScheduleEvaluation(
        fitness=raw if valid else 0.0,
        valid=valid,
        penalized=penalized,
        violations=tuple(violations),
        per_experiment=tuple(scores),
    )


def evaluate(
    schedule: Schedule, weights: FitnessWeights | None = None
) -> ScheduleEvaluation:
    """Evaluate *schedule*: constraints, fitness, and penalized score.

    The strict ``fitness`` is 0.0 for invalid schedules; ``penalized`` is
    always defined and guides the search algorithms.
    """
    weights = weights or FitnessWeights()
    problem = schedule.problem
    horizon = problem.horizon
    violations: list[str] = []
    scores: list[float] = []
    shortfall_penalty = 0.0

    for spec, gene in schedule:
        gene_violations, shortfall = _gene_constraints(problem, spec, gene)
        violations.extend(gene_violations)
        shortfall_penalty += shortfall
        scores.append(spec.weight * _gene_objectives(spec, gene, horizon, weights))

    # Overarching constraint: user groups must never be oversubscribed.
    overlap_penalty = 0.0
    group_names = problem.group_names
    group_index = problem.group_index
    n_groups = len(group_names)
    usage = [0.0] * (horizon * n_groups)
    for gene in schedule.genes:
        gidxs = [group_index[g] for g in gene.groups]
        fraction = gene.fraction
        for slot in range(gene.start, min(gene.end, horizon)):
            base = slot * n_groups
            for gi in gidxs:
                usage[base + gi] += fraction
    for flat, used in enumerate(usage):
        if used > 1.0 + 1e-9:
            slot, gi = divmod(flat, n_groups)
            violations.append(
                _oversubscription_message(slot, group_names[gi], used)
            )
            overlap_penalty += used - 1.0

    return _finalize(
        scores, violations, shortfall_penalty, overlap_penalty, problem.total_weight
    )


def max_fitness() -> float:
    """The theoretical maximum fitness of any schedule (normalization)."""
    return 1.0

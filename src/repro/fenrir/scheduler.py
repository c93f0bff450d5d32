"""The Fenrir facade: the public entry point to experiment scheduling."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InfeasibleScheduleError
from repro.fenrir.base import SearchAlgorithm, SearchResult
from repro.fenrir.genetic import GeneticAlgorithm
from repro.fenrir.model import ExperimentSpec, SchedulingProblem
from repro.fenrir.schedule import Schedule
from repro.obs.events import FENRIR_SCHEDULE
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.traffic.profile import TrafficProfile


@dataclass
class SchedulingResult:
    """A convenience wrapper pairing the search result with its problem."""

    problem: SchedulingProblem
    search: SearchResult

    @property
    def schedule(self) -> Schedule:
        """The best schedule found."""
        return self.search.best_schedule

    @property
    def fitness(self) -> float:
        """Strict fitness of the best schedule."""
        return self.search.fitness

    @property
    def valid(self) -> bool:
        """Whether the best schedule satisfies every constraint."""
        return self.search.best_evaluation.valid

    def plan_table(self) -> list[dict[str, object]]:
        """Human-readable plan rows: one per experiment."""
        rows: list[dict[str, object]] = []
        for index, (spec, gene) in enumerate(self.schedule):
            rows.append(
                {
                    "experiment": spec.name,
                    "start_slot": gene.start,
                    "end_slot": gene.end,
                    "duration_slots": gene.duration,
                    "traffic_fraction": round(gene.fraction, 4),
                    "groups": sorted(gene.groups),
                    "required_samples": spec.required_samples,
                    "expected_samples": round(
                        self.schedule.samples_collected(index)
                    ),
                }
            )
        return rows


class Fenrir:
    """Plans experiment schedules with a pluggable search algorithm.

    Defaults to the genetic algorithm — the configuration the paper's
    evaluation found to dominate the alternatives on larger instances.
    """

    def __init__(
        self,
        algorithm: SearchAlgorithm | None = None,
        observer: Observer | None = None,
    ) -> None:
        self.algorithm = algorithm or GeneticAlgorithm()
        self.observer = observer or NULL_OBSERVER

    def schedule(
        self,
        profile: TrafficProfile,
        experiments: list[ExperimentSpec],
        budget: int = 3000,
        seed: int = 0,
        require_valid: bool = False,
    ) -> SchedulingResult:
        """Search for a schedule of *experiments* over *profile*.

        With ``require_valid`` an :class:`InfeasibleScheduleError` is
        raised when the search ends without a constraint-satisfying
        schedule; otherwise the least-bad schedule is returned and the
        caller can inspect ``result.valid``.
        """
        problem = SchedulingProblem(profile, list(experiments))
        with self.observer.timed(
            "fenrir_schedule_seconds", algorithm=self.algorithm.name
        ):
            search = self.algorithm.optimize(
                problem,
                budget=budget,
                seed=seed,
                observer=self.observer,
            )
        if self.observer.enabled:
            self.observer.emit(
                FENRIR_SCHEDULE,
                float(search.evaluations_used),
                algorithm=self.algorithm.name,
                experiments=len(problem.experiments),
                budget=budget,
                seed=seed,
                fitness=search.fitness,
                valid=search.best_evaluation.valid,
            )
        if require_valid and not search.best_evaluation.valid:
            raise InfeasibleScheduleError(
                "no valid schedule found within budget; violations: "
                + "; ".join(search.best_evaluation.violations[:5])
            )
        return SchedulingResult(problem, search)

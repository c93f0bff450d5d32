"""Shared infrastructure of the four search algorithms.

All algorithms consume the same *fitness-evaluation budget* so their
comparison (Figs 3.4–3.6, Tables 3.2–3.3) is apples-to-apples, and report
both their final best schedule and the wall-clock moment they last
improved ("time to best") — the paper's execution-time comparison hinges
on how quickly an algorithm reaches its final quality.

Every evaluation a search requests is computed and charged, the
paper's accounting: a schedule proposed twice costs two budget units.
The evaluator computes them with a :class:`~repro.fenrir.fastfit.Scorer`
that reuses each gene's components across candidates, which saves work
but never budget.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.fenrir.fastfit import EvalStats, Scorer
from repro.fenrir.fitness import FitnessWeights, ScheduleEvaluation, evaluate
from repro.fenrir.model import SchedulingProblem
from repro.fenrir.schedule import Schedule
from repro.obs.events import FENRIR_SEARCH_COMPLETED
from repro.obs.observer import NULL_OBSERVER, Observer


@dataclass
class SearchResult:
    """Outcome of one optimization run."""

    algorithm: str
    best_schedule: Schedule
    best_evaluation: ScheduleEvaluation
    evaluations_used: int
    wall_time_s: float
    time_to_best_s: float
    history: list[tuple[int, float]] = field(default_factory=list)
    eval_stats: EvalStats | None = None

    @property
    def fitness(self) -> float:
        """Strict fitness of the best schedule (0.0 when invalid)."""
        return self.best_evaluation.fitness


class BudgetedEvaluator:
    """Counts fitness evaluations and tracks the incumbent best.

    The incumbent ordering prefers *valid* schedules by strict fitness and
    falls back to the penalized score among invalid ones, so a search that
    never finds a feasible schedule still returns its least-bad attempt.
    Every :meth:`evaluate` call is charged one budget unit.
    """

    def __init__(
        self,
        budget: int,
        weights: FitnessWeights | None = None,
        observer: Observer | None = None,
    ) -> None:
        self.budget = budget
        self.weights = weights or FitnessWeights()
        self.used = 0
        self.stats = EvalStats()
        self.best_schedule: Schedule | None = None
        self.best_evaluation: ScheduleEvaluation | None = None
        self.history: list[tuple[int, float]] = []
        self._start = time.perf_counter()
        self.time_to_best_s = 0.0
        self._scorer: Scorer | None = None
        self.obs: Observer = observer or NULL_OBSERVER

    @property
    def exhausted(self) -> bool:
        """Whether the evaluation budget is spent."""
        return self.used >= self.budget

    def _better(self, e: ScheduleEvaluation) -> bool:
        incumbent = self.best_evaluation
        if incumbent is None:
            return True
        if e.valid != incumbent.valid:
            return e.valid
        if e.valid:
            return e.fitness > incumbent.fitness
        return e.penalized > incumbent.penalized

    def _consider(
        self, schedule: Schedule, evaluation: ScheduleEvaluation, used_at: int
    ) -> None:
        if self._better(evaluation):
            self.best_schedule = schedule.copy()
            self.best_evaluation = evaluation
            self.history.append((used_at, evaluation.fitness))
            self.time_to_best_s = time.perf_counter() - self._start

    def _fast_path(self, schedule: Schedule) -> bool:
        """Whether the scorer applies to *schedule*.

        It is bound to the first problem the evaluator sees; schedules of
        a different problem instance (a misuse, but a cheap one to
        survive) bypass it and are evaluated by the reference.
        """
        if self._scorer is None:
            self._scorer = Scorer(schedule.problem, self.weights)
        return schedule.problem is self._scorer.problem

    def evaluate(self, schedule: Schedule) -> ScheduleEvaluation:
        """Evaluate and charge one schedule: scorer, then incumbent."""
        t0 = time.perf_counter()
        self.used += 1
        self.stats.full_evals += 1
        if self._fast_path(schedule):
            evaluation = self._scorer.evaluate(schedule)
        else:
            evaluation = evaluate(schedule, self.weights)
        self._consider(schedule, evaluation, self.used)
        self.stats.wall_time_s += time.perf_counter() - t0
        return evaluation

    def evaluate_population(self, schedules: Sequence[Schedule]) -> list[ScheduleEvaluation]:
        """Score a population in order, one :meth:`evaluate` per schedule.

        Every schedule past exhaustion is padded with
        :meth:`ScheduleEvaluation.worst`, keeping rankings well-defined.
        """
        out: list[ScheduleEvaluation] = []
        for schedule in schedules:
            if self.exhausted:
                out.append(ScheduleEvaluation.worst())
            else:
                out.append(self.evaluate(schedule))
        return out

    def result(self, algorithm: str) -> SearchResult:
        """Finalize into a :class:`SearchResult`.

        When a glass-box observer is wired in, the evaluation count is
        bridged into a registry counter (labeled by algorithm) and a
        ``fenrir.search_completed`` event is emitted with the logical
        timestamp set to evaluations consumed.
        """
        assert self.best_schedule is not None and self.best_evaluation is not None
        stats = self.stats.copy()
        if self.obs.enabled:
            self.obs.metrics.counter(
                "fenrir_full_evals_total", algorithm=algorithm
            ).increment(stats.full_evals)
            # Events must be seed-reproducible; wall_time_s is the one
            # wall-clock field in EvalStats, so it stays out of the
            # payload (SearchResult.eval_stats still carries it).
            counters = {
                k: v for k, v in stats.as_dict().items() if k != "wall_time_s"
            }
            self.obs.emit(
                FENRIR_SEARCH_COMPLETED,
                float(self.used),
                algorithm=algorithm,
                evaluations_used=self.used,
                fitness=self.best_evaluation.fitness,
                penalized=self.best_evaluation.penalized,
                valid=self.best_evaluation.valid,
                stats=counters,
            )
        return SearchResult(
            algorithm=algorithm,
            best_schedule=self.best_schedule,
            best_evaluation=self.best_evaluation,
            evaluations_used=self.used,
            wall_time_s=time.perf_counter() - self._start,
            time_to_best_s=self.time_to_best_s,
            history=list(self.history),
            eval_stats=stats,
        )


class SearchAlgorithm(abc.ABC):
    """Interface every scheduler implements."""

    name: str = "abstract"

    @abc.abstractmethod
    def optimize(
        self,
        problem: SchedulingProblem,
        budget: int = 2000,
        seed: int = 0,
        weights: FitnessWeights | None = None,
        initial: Schedule | None = None,
        locked: frozenset[int] = frozenset(),
        observer: Observer | None = None,
    ) -> SearchResult:
        """Search for a high-fitness schedule.

        Args:
            problem: the scheduling instance.
            budget: number of fitness evaluations the algorithm may spend.
            seed: RNG seed.
            weights: fitness objective weights.
            initial: an existing schedule to improve (reevaluation mode).
            locked: indices of genes that must not change (already-running
                experiments during reevaluation).
            observer: a glass-box observer the search emits progress and
                completion events into (logical timestamp = evaluations
                consumed); ``None`` runs dark.
        """

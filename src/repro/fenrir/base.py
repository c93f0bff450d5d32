"""Shared infrastructure of the four search algorithms.

All algorithms consume the same *fitness-evaluation budget* so their
comparison (Figs 3.4–3.6, Tables 3.2–3.3) is apples-to-apples, and report
both their final best schedule and the wall-clock moment they last
improved ("time to best") — the paper's execution-time comparison hinges
on how quickly an algorithm reaches its final quality.

The evaluator is layered over :mod:`repro.fenrir.fastfit`: evaluations
are memoized by chromosome fingerprint (switched off by
:data:`repro.fenrir.fastfit.SEED_OPTIONS`, the paper's accounting) and
computed by a :class:`~repro.fenrir.fastfit.Scorer` that reuses each
gene's components across candidates.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.fenrir.fastfit import EvalStats, EvaluatorOptions, FitnessCache, Scorer
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

    Budget semantics: only *computed* evaluations consume budget;
    memo-cache hits are free.  Because free hits let a converged
    search loop without spending budget, :attr:`exhausted` additionally
    trips after ``50 × budget`` total evaluation requests — a stall guard
    that never fires on healthy runs.
    """

    def __init__(
        self,
        budget: int,
        weights: FitnessWeights | None = None,
        options: EvaluatorOptions | None = None,
    ) -> None:
        self.budget = budget
        self.weights = weights or FitnessWeights()
        self.options = options or EvaluatorOptions()
        self.used = 0
        self.calls = 0
        self._call_cap = max(budget * 50, budget + 1000)
        self.stats = EvalStats()
        self.best_schedule: Schedule | None = None
        self.best_evaluation: ScheduleEvaluation | None = None
        self.history: list[tuple[int, float]] = []
        self._start = time.perf_counter()
        self.time_to_best_s = 0.0
        self._cache = FitnessCache() if self.options.use_cache else None
        self._scorer: Scorer | None = None
        self.obs: Observer = self.options.observer or NULL_OBSERVER

    @property
    def exhausted(self) -> bool:
        """Whether the evaluation budget (or the stall guard) is spent."""
        return self.used >= self.budget or self.calls >= self._call_cap

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
        """Whether the cache and the scorer apply to *schedule*.

        They are bound to the first problem the evaluator sees; schedules
        of a different problem instance (a misuse, but a cheap one to
        survive) bypass them and are evaluated by the reference.
        """
        if self._scorer is None:
            self._scorer = Scorer(schedule.problem, self.weights)
        return schedule.problem is self._scorer.problem

    def evaluate(self, schedule: Schedule) -> ScheduleEvaluation:
        """Evaluate one schedule: cache, then scorer, then incumbent."""
        t0 = time.perf_counter()
        self.calls += 1
        fast = self._fast_path(schedule)
        cache = self._cache if fast else None
        if cache is not None:
            key = schedule.key()
            hit = cache.get(key)
            if hit is not None:
                self.stats.cache_hits += 1
                self.stats.wall_time_s += time.perf_counter() - t0
                return hit
        self.used += 1
        self.stats.full_evals += 1
        if fast:
            evaluation = self._scorer.evaluate(schedule)
        else:
            evaluation = evaluate(schedule, self.weights)
        if cache is not None:
            cache.put(key, evaluation)
        self._consider(schedule, evaluation, self.used)
        self.stats.wall_time_s += time.perf_counter() - t0
        return evaluation

    def evaluate_population(
        self, schedules: Sequence[Schedule], enforce_budget: bool = True
    ) -> list[ScheduleEvaluation]:
        """Score a population in order, one :meth:`evaluate` per schedule.

        With ``enforce_budget`` every request past exhaustion is padded
        with :meth:`ScheduleEvaluation.worst`, keeping rankings
        well-defined.
        """
        out: list[ScheduleEvaluation] = []
        for schedule in schedules:
            if enforce_budget and self.exhausted:
                out.append(ScheduleEvaluation.worst())
            else:
                out.append(self.evaluate(schedule))
        return out

    def result(self, algorithm: str) -> SearchResult:
        """Finalize into a :class:`SearchResult`.

        When a glass-box observer is wired through the options, the
        evaluation counters are bridged into registry metrics (labeled
        by algorithm) and a ``fenrir.search_completed`` event is emitted
        with the logical timestamp set to evaluations consumed.
        """
        assert self.best_schedule is not None and self.best_evaluation is not None
        stats = self.stats.copy()
        if self.obs.enabled:
            metrics = self.obs.metrics
            metrics.counter(
                "fenrir_full_evals_total", algorithm=algorithm
            ).increment(stats.full_evals)
            metrics.counter(
                "fenrir_delta_evals_total", algorithm=algorithm
            ).increment(stats.delta_evals)
            metrics.counter(
                "fenrir_cache_hits_total", algorithm=algorithm
            ).increment(stats.cache_hits)
            metrics.gauge(
                "fenrir_cache_hit_rate", algorithm=algorithm
            ).set(stats.cache_hits / max(1, self.calls))
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
                calls=self.calls,
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
        options: EvaluatorOptions | None = None,
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
            options: evaluation-layer configuration (memoization,
                observer).
        """

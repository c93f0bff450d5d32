"""Random sampling baseline (Section 3.5.2): best of N random schedules.

Independent draws share few genes, so the per-gene memo rarely helps
here; draws still flow through the fastfit layer for the evaluation
counters, and every draw is charged.
"""

from __future__ import annotations

from repro.fenrir.base import BudgetedEvaluator, SearchAlgorithm, SearchResult
from repro.fenrir.fitness import FitnessWeights
from repro.fenrir.model import SchedulingProblem
from repro.fenrir.operators import random_schedule
from repro.fenrir.schedule import Schedule
from repro.obs.observer import Observer
from repro.simulation.rng import SeededRng


class RandomSampling(SearchAlgorithm):
    """Draws independent random schedules and keeps the best."""

    name = "random"

    def __init__(self, packed: bool = True) -> None:
        self.packed = packed

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
        rng = SeededRng(seed)
        evaluator = BudgetedEvaluator(budget, weights, observer)
        if initial is not None:
            evaluator.evaluate(initial)
        while not evaluator.exhausted:
            evaluator.evaluate(
                random_schedule(
                    problem, rng, packed=self.packed, initial=initial, locked=locked
                )
            )
        return evaluator.result(self.name)

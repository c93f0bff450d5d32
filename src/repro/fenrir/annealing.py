"""Simulated annealing baseline (Section 3.5.4).

Same single-gene neighborhood as local search, but worse moves are
accepted with probability ``exp(delta / T)`` under an exponentially
cooling temperature, allowing escapes from local optima early on.

Each proposal differs from the current schedule in one gene (unless
repair moved more), so the fastfit layer recomputes only that gene.
"""

from __future__ import annotations

import math

from repro.fenrir.base import BudgetedEvaluator, SearchAlgorithm, SearchResult
from repro.fenrir.fitness import FitnessWeights
from repro.fenrir.local_search import REPAIR_RATE, WARM_START_DRAWS, _warm_start
from repro.fenrir.model import SchedulingProblem
from repro.fenrir.operators import mutate_gene, pack_repair
from repro.fenrir.schedule import Schedule
from repro.obs.observer import Observer
from repro.simulation.rng import SeededRng

#: The temperature cools exponentially from the first to the second over
#: the budget.
INITIAL_TEMPERATURE = 0.15
FINAL_TEMPERATURE = 0.001


class SimulatedAnnealing(SearchAlgorithm):
    """Metropolis acceptance over single-gene mutations."""

    name = "annealing"

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
        current, current_score = _warm_start(
            problem, evaluator, rng, initial, locked,
            draws=min(WARM_START_DRAWS, max(1, budget // 10)),
        )
        cooling = (FINAL_TEMPERATURE / INITIAL_TEMPERATURE) ** (1.0 / max(1, budget))
        temperature = INITIAL_TEMPERATURE
        free = [i for i in range(len(current.genes)) if i not in locked]
        while not evaluator.exhausted and free:
            index = rng.choice(free)
            spec = problem.experiments[index]
            neighbor = current.replaced(
                index, mutate_gene(problem, spec, current.genes[index], rng)
            )
            if rng.random() < REPAIR_RATE:
                neighbor = pack_repair(neighbor, rng, locked)
            score = evaluator.evaluate(neighbor).penalized
            delta = score - current_score
            if delta >= 0 or rng.random() < math.exp(delta / max(temperature, 1e-9)):
                current, current_score = neighbor, score
            temperature *= cooling
        return evaluator.result(self.name)

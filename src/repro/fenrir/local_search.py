"""Local search baseline (Section 3.5.3): first-improvement hill climbing
with random restarts.

Neighbors differ from the incumbent in one gene (unless repair moved
more), so scoring one through the fastfit layer recomputes only the
genes it has not seen before.
"""

from __future__ import annotations

from repro.fenrir.base import BudgetedEvaluator, SearchAlgorithm, SearchResult
from repro.fenrir.fitness import FitnessWeights
from repro.fenrir.model import SchedulingProblem
from repro.fenrir.operators import mutate_gene, pack_repair, random_schedule
from repro.fenrir.schedule import Schedule
from repro.obs.observer import Observer
from repro.simulation.rng import SeededRng

#: A search starts from the best of this many random packed schedules
#: (fewer on a small budget), and repairs this share of its neighbors.
WARM_START_DRAWS = 25
REPAIR_RATE = 0.2
#: Non-improving neighbors in a row before local search restarts.
STALL_LIMIT = 250


def _warm_start(
    problem: SchedulingProblem,
    evaluator: BudgetedEvaluator,
    rng: SeededRng,
    initial: Schedule | None,
    locked: frozenset[int],
    draws: int,
) -> tuple[Schedule, float]:
    """Best of *draws* random packed schedules (plus *initial* if given)."""
    best: Schedule | None = None
    best_score = float("-inf")
    candidates: list[Schedule] = []
    if initial is not None:
        candidates.append(initial.copy())
    for _ in range(max(1, draws - len(candidates))):
        candidates.append(
            random_schedule(problem, rng, initial=initial, locked=locked)
        )
    for candidate in candidates:
        if evaluator.exhausted and best is not None:
            break
        score = evaluator.evaluate(candidate).penalized
        if score > best_score:
            best, best_score = candidate, score
    assert best is not None
    return best, best_score


class LocalSearch(SearchAlgorithm):
    """Hill climbing over single-gene mutations."""

    name = "local-search"

    def _neighbor(
        self,
        problem: SchedulingProblem,
        schedule: Schedule,
        rng: SeededRng,
        locked: frozenset[int],
    ) -> Schedule:
        """A neighbor: one free gene mutated, then repaired at a rate."""
        free = [i for i in range(len(schedule.genes)) if i not in locked]
        if not free:
            return schedule.copy()
        index = rng.choice(free)
        spec = problem.experiments[index]
        neighbor = schedule.replaced(
            index, mutate_gene(problem, spec, schedule.genes[index], rng)
        )
        if rng.random() < REPAIR_RATE:
            neighbor = pack_repair(neighbor, rng, locked)
        return neighbor

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
        stall = 0
        while not evaluator.exhausted:
            neighbor = self._neighbor(problem, current, rng, locked)
            score = evaluator.evaluate(neighbor).penalized
            if score > current_score:
                current, current_score = neighbor, score
                stall = 0
            else:
                stall += 1
                if stall >= STALL_LIMIT:
                    current = random_schedule(
                        problem, rng, initial=initial, locked=locked
                    )
                    if evaluator.exhausted:
                        break
                    current_score = evaluator.evaluate(current).penalized
                    stall = 0
        return evaluator.result(self.name)

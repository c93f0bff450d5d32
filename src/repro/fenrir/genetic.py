"""The genetic algorithm — Fenrir's core solver (Section 3.5.1).

Operates on the value-encoded chromosome (Fig 3.1): tournament selection
on the penalized score, one-point crossover at experiment boundaries
(Fig 3.2), per-gene mutation, a greedy overlap repair applied to a share
of the offspring, and elitism.

Offspring are scored through the fastfit layer: genes a child shares with
schedules already scored reuse their memoized components.  Every scored
individual is charged, elites and the initial population included.
"""

from __future__ import annotations

from repro.fenrir.base import BudgetedEvaluator, SearchAlgorithm, SearchResult
from repro.fenrir.fitness import FitnessWeights, ScheduleEvaluation
from repro.fenrir.model import SchedulingProblem
from repro.fenrir.operators import crossover, mutate_gene, pack_repair, random_schedule
from repro.fenrir.schedule import Schedule
from repro.obs.events import FENRIR_GENERATION
from repro.obs.observer import Observer
from repro.simulation.rng import SeededRng

#: Schedules carried unchanged into each generation, and the entrants of
#: each selection tournament.
ELITE = 2
TOURNAMENT_SIZE = 2


class GeneticAlgorithm(SearchAlgorithm):
    """Population-based search over schedules."""

    name = "genetic"

    def __init__(
        self,
        population_size: int = 36,
        crossover_rate: float = 0.9,
        repair_rate: float = 0.35,
    ) -> None:
        self.population_size = population_size
        self.crossover_rate = crossover_rate
        self.repair_rate = repair_rate

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
        n_genes = len(problem.experiments)
        mutation_rate = min(0.5, 2.0 / max(1, n_genes))

        population: list[Schedule] = []
        for i in range(self.population_size):
            if initial is not None and i < max(1, self.population_size // 4):
                candidate = initial.copy()
                if i > 0:
                    candidate, _ = self._mutated(
                        problem, candidate, rng, 1.5 * mutation_rate, locked
                    )
            else:
                candidate = random_schedule(
                    problem, rng, packed=True, initial=initial, locked=locked
                )
            population.append(candidate)
        scores: list[ScheduleEvaluation] = evaluator.evaluate_population(population)

        obs = evaluator.obs
        generation = 0
        while not evaluator.exhausted:
            ranked = sorted(
                range(len(population)),
                key=lambda i: scores[i].penalized,
                reverse=True,
            )
            next_population: list[Schedule] = [
                population[i] for i in ranked[:ELITE]
            ]
            # Penalized score of each child's parent (None for elites), so
            # the observer can report how many offspring beat their parent.
            parent_scores: list[float | None] = [None] * len(next_population)
            crossovers = mutations = repairs = 0
            while len(next_population) < self.population_size:
                ia = self._tournament(population, scores, rng)
                ib = self._tournament(population, scores, rng)
                parent_a, parent_b = population[ia], population[ib]
                crossed = rng.random() < self.crossover_rate
                if crossed:
                    child_a, child_b = crossover(parent_a, parent_b, rng)
                    crossovers += 1
                else:
                    child_a, child_b = parent_a.copy(), parent_b.copy()
                for child, pi in ((child_a, ia), (child_b, ib)):
                    mutated, mutated_idx = self._mutated(
                        problem, child, rng, mutation_rate, locked
                    )
                    mutations += len(mutated_idx)
                    if rng.random() < self.repair_rate:
                        mutated = pack_repair(mutated, rng, locked)
                        repairs += 1
                    next_population.append(mutated)
                    parent_scores.append(scores[pi].penalized)
                    if len(next_population) >= self.population_size:
                        break
            population = next_population
            scores = evaluator.evaluate_population(population)
            generation += 1
            if obs.enabled:
                offspring = [
                    (score, parent_score)
                    for score, parent_score in zip(scores, parent_scores)
                    if parent_score is not None
                ]
                accepted = sum(
                    1
                    for score, parent_score in offspring
                    if score.penalized > parent_score
                )
                best = max(scores, key=lambda s: s.penalized)
                # Budget exhaustion mid-scoring leaves -inf sentinels on
                # unevaluated individuals; keep the mean finite.
                finite = [
                    s.penalized
                    for s in scores
                    if s.penalized != float("-inf")
                ]
                obs.emit(
                    FENRIR_GENERATION,
                    float(evaluator.used),
                    algorithm=self.name,
                    generation=generation,
                    evaluations_used=evaluator.used,
                    best_penalized=best.penalized,
                    best_fitness=best.fitness,
                    mean_penalized=(
                        sum(finite) / len(finite) if finite else best.penalized
                    ),
                    offspring=len(offspring),
                    accepted=accepted,
                    crossovers=crossovers,
                    mutations=mutations,
                    repairs=repairs,
                )
                obs.metrics.counter(
                    "fenrir_generations_total", algorithm=self.name
                ).increment()
                obs.metrics.gauge(
                    "fenrir_best_penalized", algorithm=self.name
                ).set(best.penalized)
        return evaluator.result(self.name)

    def _tournament(
        self,
        population: list[Schedule],
        scores: list[ScheduleEvaluation],
        rng: SeededRng,
    ) -> int:
        """Index of the tournament winner (callers index the population)."""
        best_index = rng.randint(0, len(population) - 1)
        for _ in range(TOURNAMENT_SIZE - 1):
            challenger = rng.randint(0, len(population) - 1)
            if scores[challenger].penalized > scores[best_index].penalized:
                best_index = challenger
        return best_index

    def _mutated(
        self,
        problem: SchedulingProblem,
        schedule: Schedule,
        rng: SeededRng,
        rate: float,
        locked: frozenset[int],
    ) -> tuple[Schedule, frozenset[int]]:
        """Mutate free genes at *rate*; returns the touched indices too."""
        genes = list(schedule.genes)
        touched: set[int] = set()
        for index, spec in enumerate(problem.experiments):
            if index in locked:
                continue
            if rng.random() < rate:
                genes[index] = mutate_gene(problem, spec, genes[index], rng)
                touched.add(index)
        return Schedule(problem, genes), frozenset(touched)

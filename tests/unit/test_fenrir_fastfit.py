"""The fastfit evaluation layer: population scoring, budget accounting
(every evaluation is charged), and the evaluation counters surfaced in
results."""

from __future__ import annotations

import pytest

from repro.fenrir.base import BudgetedEvaluator
from repro.fenrir.fitness import ScheduleEvaluation, evaluate
from repro.fenrir.genetic import GeneticAlgorithm
from repro.fenrir.generator import SampleSizeBand, random_experiments
from repro.fenrir.local_search import LocalSearch
from repro.fenrir.model import ExperimentSpec, SchedulingProblem
from repro.fenrir.operators import random_schedule
from repro.fenrir.random_sampling import RandomSampling
from repro.fenrir.annealing import SimulatedAnnealing
from repro.obs.observer import Observer
from repro.simulation.rng import SeededRng


@pytest.fixture
def problem(profile) -> SchedulingProblem:
    experiments = random_experiments(
        profile, count=5, band=SampleSizeBand.LOW, seed=2
    )
    return SchedulingProblem(profile, experiments)


def distinct_schedules(problem, count, seed=0):
    rng = SeededRng(seed)
    out = []
    while len(out) < count:
        s = random_schedule(problem, rng)
        if all(s.genes != other.genes for other in out):
            out.append(s)
    return out


class TestWorstSentinel:
    def test_fields(self):
        worst = ScheduleEvaluation.worst()
        assert worst.fitness == 0.0
        assert worst.valid is False
        assert worst.penalized == float("-inf")
        assert worst.violations == ()
        assert worst.per_experiment == ()

    def test_ranks_below_any_real_evaluation(self, problem):
        real = evaluate(random_schedule(problem, SeededRng(0)))
        assert ScheduleEvaluation.worst().penalized < real.penalized


class TestBudgetedEvaluatorAccounting:
    def test_budget_exhaustion_boundary(self, problem):
        evaluator = BudgetedEvaluator(3)
        for s in distinct_schedules(problem, 3, seed=8):
            assert not evaluator.exhausted
            evaluator.evaluate(s)
        assert evaluator.used == 3
        assert evaluator.exhausted

    def test_same_chromosome_twice_is_charged_twice(self, problem):
        evaluator = BudgetedEvaluator(2)
        schedule = random_schedule(problem, SeededRng(9))
        first = evaluator.evaluate(schedule)
        again = evaluator.evaluate(schedule.copy())  # same chromosome, new object
        assert again == first
        assert evaluator.used == evaluator.stats.full_evals == 2
        assert evaluator.exhausted

    def test_seed_options_disable_cache_and_delta(self, problem):
        # The seed's accounting is now the only one: no cache, no delta path.
        evaluator = BudgetedEvaluator(5)
        schedule = random_schedule(problem, SeededRng(11))
        evaluator.evaluate(schedule)
        evaluator.evaluate(schedule)
        assert evaluator.used == 2
        assert evaluator.stats.cache_hits == 0
        assert evaluator.stats.delta_evals == 0
        assert evaluator.stats.full_evals == 2

    def test_used_matches_computed_evals(self, problem):
        result = LocalSearch().optimize(problem, budget=120, seed=1)
        stats = result.eval_stats
        assert stats is not None
        assert result.evaluations_used == stats.full_evals
        assert stats.delta_evals == 0


class TestTelemetryExport:
    def test_search_result_counts_match_store(self, problem):
        observer = Observer()
        result = SimulatedAnnealing().optimize(
            problem, budget=100, seed=2, observer=observer
        )
        recorded = observer.metrics.counter(
            "fenrir_full_evals_total", algorithm="annealing"
        ).value
        assert recorded == result.eval_stats.full_evals == 100


class TestEvaluatePopulation:
    @pytest.mark.parametrize(
        "budget, scored",
        [
            (20, 9),  # budget to spare
            (5, 5),  # exhausted mid-population: padded from there on
        ],
        ids=["within-budget", "padded"],
    )
    def test_matches_explicit_loop(self, problem, budget, scored):
        population = distinct_schedules(problem, 8, seed=14)
        population.insert(2, population[0].copy())  # an intra-population duplicate
        loop = BudgetedEvaluator(budget)
        expected = []
        for schedule in population:
            if loop.exhausted:
                expected.append(ScheduleEvaluation.worst())
            else:
                expected.append(loop.evaluate(schedule))
        evaluator = BudgetedEvaluator(budget)
        scores = evaluator.evaluate_population(population)
        assert scores == expected
        assert scores[:scored] == [evaluate(s) for s in population[:scored]]
        assert scores[scored:] == [ScheduleEvaluation.worst()] * (9 - scored)
        # The duplicate is charged like any other schedule.
        assert evaluator.used == evaluator.stats.full_evals == scored
        assert evaluator.stats.cache_hits == evaluator.stats.delta_evals == 0
        assert evaluator.used == loop.used
        assert evaluator.history == loop.history
        assert evaluator.best_evaluation == loop.best_evaluation


ALGORITHMS = pytest.mark.parametrize(
    "algorithm",
    [
        GeneticAlgorithm(population_size=12),
        LocalSearch(),
        SimulatedAnnealing(),
        RandomSampling(),
    ],
    ids=["ga", "ls", "sa", "random"],
)


class TestAlgorithmsUnderOptions:
    @ALGORITHMS
    def test_deterministic_per_options(self, problem, algorithm):
        kwargs = dict(budget=150, seed=5)
        first = algorithm.optimize(problem, **kwargs)
        second = algorithm.optimize(problem, **kwargs)
        assert first.fitness == second.fitness
        assert first.best_schedule.genes == second.best_schedule.genes

    @ALGORITHMS
    @pytest.mark.parametrize("budget", [1, 7, 150])
    def test_spends_exactly_the_budget(self, problem, algorithm, budget):
        # Every iteration is charged, so each loop ends on the budget:
        # none can spin on repeats, and none scores past it.
        result = algorithm.optimize(problem, budget=budget, seed=5)
        assert result.evaluations_used == result.eval_stats.full_evals == budget

    def test_foreign_problem_bypasses_fast_path(self, problem):
        other = SchedulingProblem(
            problem.profile,
            [ExperimentSpec(name="solo", required_samples=500.0)],
        )
        evaluator = BudgetedEvaluator(10)
        evaluator.evaluate(random_schedule(problem, SeededRng(17)))
        foreign = random_schedule(other, SeededRng(18))
        got = evaluator.evaluate(foreign)
        assert got == evaluate(foreign)
        assert evaluator.used == 2

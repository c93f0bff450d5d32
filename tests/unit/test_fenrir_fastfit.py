"""The fastfit evaluation layer: memoization, population scoring, budget
accounting, and the evaluation counters surfaced in results."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.fenrir.base import BudgetedEvaluator
from repro.fenrir.fastfit import SEED_OPTIONS, EvaluatorOptions, FitnessCache
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
    seen = set()
    while len(out) < count:
        s = random_schedule(problem, rng)
        if s.key() not in seen:
            seen.add(s.key())
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


class TestFitnessCache:
    def test_rejects_nonpositive_size(self):
        with pytest.raises(ConfigurationError):
            FitnessCache(0)

    def test_hit_and_miss_counters(self):
        cache = FitnessCache(4)
        assert cache.get(("a",)) is None
        cache.put(("a",), ScheduleEvaluation.worst())
        assert cache.get(("a",)) is not None
        assert cache.misses == 1
        assert cache.hits == 1

    def test_lru_eviction_prefers_recently_used(self):
        cache = FitnessCache(2)
        cache.put(("a",), ScheduleEvaluation.worst())
        cache.put(("b",), ScheduleEvaluation.worst())
        cache.get(("a",))  # refresh "a" so "b" is least recently used
        cache.put(("c",), ScheduleEvaluation.worst())
        assert cache.get(("a",)) is not None
        assert cache.get(("b",)) is None
        assert len(cache) == 2


class TestBudgetedEvaluatorAccounting:
    def test_budget_exhaustion_boundary(self, problem):
        evaluator = BudgetedEvaluator(3)
        for s in distinct_schedules(problem, 3, seed=8):
            assert not evaluator.exhausted
            evaluator.evaluate(s)
        assert evaluator.used == 3
        assert evaluator.exhausted

    def test_cache_hit_is_free_by_default(self, problem):
        evaluator = BudgetedEvaluator(2)
        schedule = random_schedule(problem, SeededRng(9))
        first = evaluator.evaluate(schedule)
        again = evaluator.evaluate(schedule.copy())  # same chromosome, new object
        assert again == first
        assert evaluator.used == 1
        assert evaluator.stats.cache_hits == 1
        assert not evaluator.exhausted

    def test_stall_guard_trips_on_endless_cache_hits(self, problem):
        evaluator = BudgetedEvaluator(1)
        schedule = random_schedule(problem, SeededRng(10))
        evaluator.evaluate(schedule)
        spins = 0
        while not evaluator.exhausted:
            evaluator.evaluate(schedule)
            spins += 1
            assert spins <= 2000, "stall guard never tripped"
        assert evaluator.used == 1  # only the first evaluation was computed

    def test_seed_options_disable_cache_and_delta(self, problem):
        evaluator = BudgetedEvaluator(5, options=SEED_OPTIONS)
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
            problem, budget=100, seed=2, options=EvaluatorOptions(observer=observer)
        )
        stats = result.eval_stats
        for metric in ("full_evals", "delta_evals", "cache_hits"):
            recorded = observer.metrics.counter(
                f"fenrir_{metric}_total", algorithm="annealing"
            ).value
            assert recorded == stats.as_dict()[metric]


class TestEvaluatePopulation:
    @pytest.mark.parametrize(
        "budget, enforce_budget, scored",
        [
            (20, True, 9),  # budget to spare
            (5, True, 6),  # exhausted mid-population: padded from there on
            (5, False, 9),  # same population, budget not enforced
        ],
        ids=["within-budget", "padded", "unenforced"],
    )
    def test_matches_explicit_loop(self, problem, budget, enforce_budget, scored):
        population = distinct_schedules(problem, 8, seed=14)
        population.insert(2, population[0].copy())  # an intra-population duplicate
        loop = BudgetedEvaluator(budget)
        expected = []
        for schedule in population:
            if enforce_budget and loop.exhausted:
                expected.append(ScheduleEvaluation.worst())
            else:
                expected.append(loop.evaluate(schedule))
        evaluator = BudgetedEvaluator(budget)
        scores = evaluator.evaluate_population(
            population, enforce_budget=enforce_budget
        )
        assert scores == expected
        assert scores[:scored] == [evaluate(s) for s in population[:scored]]
        assert scores[scored:] == [ScheduleEvaluation.worst()] * (9 - scored)
        assert evaluator.stats.cache_hits == 1  # the duplicate, free
        assert evaluator.calls == scored
        assert evaluator.used == scored - 1
        assert evaluator.used == loop.used
        assert evaluator.calls == loop.calls
        assert evaluator.history == loop.history
        assert evaluator.best_evaluation == loop.best_evaluation


class TestAlgorithmsUnderOptions:
    @pytest.mark.parametrize(
        "algorithm",
        [
            GeneticAlgorithm(population_size=12),
            LocalSearch(),
            SimulatedAnnealing(),
            RandomSampling(),
        ],
        ids=["ga", "ls", "sa", "random"],
    )
    def test_deterministic_per_options(self, problem, algorithm):
        kwargs = dict(budget=150, seed=5)
        first = algorithm.optimize(problem, **kwargs)
        second = algorithm.optimize(problem, **kwargs)
        assert first.fitness == second.fitness
        assert first.best_schedule.key() == second.best_schedule.key()
        seeded = algorithm.optimize(problem, options=SEED_OPTIONS, **kwargs)
        seeded2 = algorithm.optimize(problem, options=SEED_OPTIONS, **kwargs)
        assert seeded.fitness == seeded2.fitness
        assert seeded.best_schedule.key() == seeded2.best_schedule.key()

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

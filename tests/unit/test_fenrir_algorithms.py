"""Unit tests for the four search algorithms and the Fenrir facade."""

import pytest

from repro.errors import InfeasibleScheduleError
from repro.fenrir.annealing import SimulatedAnnealing
from repro.fenrir.base import BudgetedEvaluator
from repro.fenrir.generator import SampleSizeBand, random_experiments
from repro.fenrir.genetic import GeneticAlgorithm
from repro.fenrir.local_search import LocalSearch
from repro.fenrir.model import ExperimentSpec, SchedulingProblem
from repro.fenrir.operators import random_schedule
from repro.fenrir.random_sampling import RandomSampling
from repro.fenrir.scheduler import Fenrir
from repro.simulation.rng import SeededRng
from tests.unit.test_fenrir_model import make_spec

ALGORITHMS = [
    GeneticAlgorithm(population_size=12),
    RandomSampling(),
    LocalSearch(),
    SimulatedAnnealing(),
]


@pytest.fixture
def small_problem_specs(profile):
    return [make_spec(f"e{i}", required_samples=600) for i in range(5)]


class TestBudgetedEvaluator:
    def test_counts_evaluations(self, profile, small_problem_specs):
        problem = SchedulingProblem(profile, small_problem_specs)
        evaluator = BudgetedEvaluator(budget=10)
        rng = SeededRng(1)
        for _ in range(10):
            evaluator.evaluate(random_schedule(problem, rng))
        assert evaluator.used == 10
        assert evaluator.exhausted

    def test_prefers_valid_over_invalid(self, profile):
        problem = SchedulingProblem(
            profile, [make_spec(required_samples=600)]
        )
        evaluator = BudgetedEvaluator(budget=100)
        rng = SeededRng(2)
        from repro.fenrir.schedule import Gene, Schedule

        invalid = Schedule(problem, [Gene(0, 2, 0.01, frozenset({"eu"}))])
        valid = Schedule(problem, [Gene(10, 5, 0.3, frozenset({"eu"}))])
        evaluator.evaluate(invalid)
        evaluator.evaluate(valid)
        evaluator.evaluate(invalid)
        assert evaluator.best_evaluation.valid
        assert evaluator.best_schedule.genes[0].start == 10

    def test_history_monotone(self, profile, small_problem_specs):
        problem = SchedulingProblem(profile, small_problem_specs)
        evaluator = BudgetedEvaluator(budget=200)
        rng = SeededRng(3)
        while not evaluator.exhausted:
            evaluator.evaluate(random_schedule(problem, rng))
        fitness_values = [f for _, f in evaluator.history if f > 0]
        assert fitness_values == sorted(fitness_values)


@pytest.mark.parametrize("algorithm", ALGORITHMS, ids=lambda a: a.name)
class TestAlgorithmContract:
    def test_respects_budget(self, profile, small_problem_specs, algorithm):
        problem = SchedulingProblem(profile, small_problem_specs)
        result = algorithm.optimize(problem, budget=300, seed=1)
        assert result.evaluations_used <= 300 + 15  # small overshoot tolerated

    def test_finds_valid_schedule_on_easy_instance(
        self, profile, small_problem_specs, algorithm
    ):
        problem = SchedulingProblem(profile, small_problem_specs)
        result = algorithm.optimize(problem, budget=400, seed=2)
        assert result.best_evaluation.valid
        assert result.fitness > 0.3

    def test_deterministic_for_seed(self, profile, small_problem_specs, algorithm):
        problem = SchedulingProblem(profile, small_problem_specs)
        a = algorithm.optimize(problem, budget=200, seed=5)
        b = algorithm.optimize(problem, budget=200, seed=5)
        assert a.fitness == b.fitness

    def test_respects_locked_genes(self, profile, small_problem_specs, algorithm):
        problem = SchedulingProblem(profile, small_problem_specs)
        rng = SeededRng(4)
        initial = random_schedule(problem, rng)
        locked = frozenset({0})
        result = algorithm.optimize(
            problem, budget=200, seed=3, initial=initial, locked=locked
        )
        assert result.best_schedule.genes[0] == initial.genes[0]


class TestGeneticAlgorithmSpecifics:
    def test_more_budget_does_not_hurt(self, profile):
        specs = [make_spec(f"e{i}", required_samples=900) for i in range(8)]
        problem = SchedulingProblem(profile, specs)
        ga = GeneticAlgorithm(population_size=12)
        small = ga.optimize(problem, budget=150, seed=1).fitness
        large = ga.optimize(problem, budget=1200, seed=1).fitness
        assert large >= small - 0.02

    def test_beats_random_on_crowded_instance(self, week_profile):
        experiments = random_experiments(
            week_profile, 20, SampleSizeBand.HIGH, seed=6
        )
        problem = SchedulingProblem(week_profile, experiments)
        ga = GeneticAlgorithm(population_size=20).optimize(problem, budget=900, seed=1)
        rs = RandomSampling().optimize(problem, budget=900, seed=1)
        assert ga.best_evaluation.penalized >= rs.best_evaluation.penalized - 0.05


class TestFenrirFacade:
    def test_schedule_returns_plan_table(self, week_profile):
        experiments = random_experiments(week_profile, 6, seed=2)
        result = Fenrir().schedule(week_profile, experiments, budget=600, seed=1)
        rows = result.plan_table()
        assert len(rows) == 6
        for row in rows:
            assert row["expected_samples"] >= 0
            assert row["end_slot"] <= week_profile.num_slots

    def test_require_valid_raises_on_impossible(self, profile):
        impossible = [
            ExperimentSpec(
                name="huge",
                required_samples=1e9,
                min_duration_slots=2,
                max_duration_slots=4,
                max_traffic_fraction=0.1,
            )
        ]
        with pytest.raises(InfeasibleScheduleError):
            Fenrir().schedule(
                profile, impossible, budget=120, seed=1, require_valid=True
            )

    def test_generator_bands_scale(self, week_profile):
        low = random_experiments(week_profile, 5, SampleSizeBand.LOW, seed=1)
        high = random_experiments(week_profile, 5, SampleSizeBand.HIGH, seed=1)
        assert sum(e.required_samples for e in high) > sum(
            e.required_samples for e in low
        )

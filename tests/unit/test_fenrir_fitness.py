"""Unit tests for Fenrir's fitness and constraint evaluation."""

import pytest

from repro.errors import ConfigurationError
from repro.fenrir.fitness import FitnessWeights, evaluate
from repro.fenrir.model import SchedulingProblem
from repro.fenrir.schedule import Gene, Schedule
from tests.unit.test_fenrir_model import make_spec


def make_problem(profile, specs):
    return SchedulingProblem(profile, specs)


class TestFitnessWeights:
    def test_default_sums_to_one(self):
        weights = FitnessWeights()
        assert weights.duration + weights.start + weights.coverage == pytest.approx(1.0)

    def test_invalid_sum(self):
        with pytest.raises(ConfigurationError):
            FitnessWeights(0.5, 0.5, 0.5)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            FitnessWeights(1.2, -0.1, -0.1)


class TestConstraints:
    def test_valid_schedule(self, profile):
        problem = make_problem(profile, [make_spec(required_samples=500)])
        schedule = Schedule(problem, [Gene(0, 5, 0.3, frozenset({"eu"}))])
        evaluation = evaluate(schedule)
        assert evaluation.valid
        assert evaluation.fitness > 0

    def test_sample_shortfall_detected(self, profile):
        problem = make_problem(profile, [make_spec(required_samples=100_000)])
        schedule = Schedule(problem, [Gene(0, 5, 0.3, frozenset({"eu"}))])
        evaluation = evaluate(schedule)
        assert not evaluation.valid
        assert any("samples" in v for v in evaluation.violations)

    def test_early_start_violation(self, profile):
        problem = make_problem(profile, [make_spec(earliest_start=10)])
        schedule = Schedule(problem, [Gene(5, 5, 0.3, frozenset({"eu"}))])
        assert any("earliest" in v for v in evaluate(schedule).violations)

    def test_horizon_overflow(self, profile):
        spec = make_spec(required_samples=100, max_duration_slots=20)
        problem = make_problem(profile, [spec])
        schedule = Schedule(problem, [Gene(45, 10, 0.3, frozenset({"eu"}))])
        assert any("horizon" in v for v in evaluate(schedule).violations)

    def test_duration_bounds(self, profile):
        problem = make_problem(profile, [make_spec(required_samples=10)])
        schedule = Schedule(problem, [Gene(0, 1, 0.3, frozenset({"eu"}))])
        assert any("duration" in v for v in evaluate(schedule).violations)

    def test_fraction_bounds(self, profile):
        problem = make_problem(profile, [make_spec(required_samples=10)])
        schedule = Schedule(problem, [Gene(0, 5, 0.9, frozenset({"eu"}))])
        assert any("fraction" in v for v in evaluate(schedule).violations)

    def test_overlap_detected(self, profile):
        specs = [make_spec("a", required_samples=100), make_spec("b", required_samples=100)]
        problem = make_problem(profile, specs)
        schedule = Schedule(
            problem,
            [
                Gene(0, 5, 0.5, frozenset({"eu"})),
                Gene(2, 5, 0.6, frozenset({"eu"})),  # 1.1 in slots 2-4
            ],
        )
        evaluation = evaluate(schedule)
        assert any("oversubscribed" in v for v in evaluation.violations)

    def test_disjoint_groups_may_fill_completely(self, profile):
        specs = [
            make_spec("a", required_samples=100),
            make_spec("b", required_samples=100),
        ]
        problem = make_problem(profile, specs)
        schedule = Schedule(
            problem,
            [
                Gene(0, 5, 0.5, frozenset({"eu"})),
                Gene(0, 5, 0.5, frozenset({"na"})),
            ],
        )
        assert evaluate(schedule).valid

    def test_invalid_fitness_is_zero(self, profile):
        problem = make_problem(profile, [make_spec(required_samples=1e9)])
        schedule = Schedule(problem, [Gene(0, 5, 0.3, frozenset({"eu"}))])
        evaluation = evaluate(schedule)
        assert evaluation.fitness == 0.0
        # The penalized score keeps guiding the search: it is the raw
        # objective score minus the violation penalty.
        raw = sum(evaluation.per_experiment)
        assert evaluation.penalized < raw


class TestObjectives:
    def test_earlier_start_scores_higher(self, profile):
        problem = make_problem(profile, [make_spec(required_samples=100)])
        early = Schedule(problem, [Gene(0, 5, 0.3, frozenset({"eu"}))])
        late = Schedule(problem, [Gene(40, 5, 0.3, frozenset({"eu"}))])
        assert evaluate(early).fitness > evaluate(late).fitness

    def test_shorter_duration_scores_higher(self, profile):
        problem = make_problem(profile, [make_spec(required_samples=100)])
        short = Schedule(problem, [Gene(0, 2, 0.3, frozenset({"eu"}))])
        long = Schedule(problem, [Gene(0, 10, 0.3, frozenset({"eu"}))])
        assert evaluate(short).fitness > evaluate(long).fitness

    def test_preferred_group_coverage_scores_higher(self, profile):
        spec = make_spec(required_samples=100, preferred_groups=frozenset({"eu"}))
        problem = make_problem(profile, [spec])
        on_preferred = Schedule(problem, [Gene(0, 2, 0.3, frozenset({"eu"}))])
        off_preferred = Schedule(problem, [Gene(0, 2, 0.3, frozenset({"na"}))])
        assert evaluate(on_preferred).fitness > evaluate(off_preferred).fitness

    def test_perfect_schedule_approaches_max(self, profile):
        spec = make_spec(required_samples=10, min_duration_slots=2)
        problem = make_problem(profile, [spec])
        schedule = Schedule(problem, [Gene(0, 2, 0.3, frozenset({"eu", "na"}))])
        evaluation = evaluate(schedule)
        assert evaluation.fitness == pytest.approx(1.0)

    def test_weights_shift_scores(self, profile):
        problem = make_problem(profile, [make_spec(required_samples=100)])
        late = Schedule(problem, [Gene(40, 2, 0.3, frozenset({"eu"}))])
        start_heavy = evaluate(late, FitnessWeights(0.1, 0.8, 0.1))
        duration_heavy = evaluate(late, FitnessWeights(0.8, 0.1, 0.1))
        assert duration_heavy.fitness > start_heavy.fitness

    def test_per_experiment_scores_present(self, profile):
        specs = [make_spec("a", required_samples=10), make_spec("b", required_samples=10)]
        problem = make_problem(profile, specs)
        schedule = Schedule(
            problem,
            [Gene(0, 2, 0.3, frozenset({"eu"})), Gene(0, 2, 0.3, frozenset({"na"}))],
        )
        assert len(evaluate(schedule).per_experiment) == 2

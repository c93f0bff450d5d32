"""Unit tests for Fenrir's problem model and schedule representation."""

import pytest

from repro.errors import ConfigurationError, ValidationError
from repro.fenrir.model import ExperimentSpec, SchedulingProblem
from repro.fenrir.schedule import Gene, Schedule


def make_spec(name="exp0", **kwargs) -> ExperimentSpec:
    defaults = dict(
        name=name,
        required_samples=1000.0,
        min_duration_slots=2,
        max_duration_slots=10,
        min_traffic_fraction=0.01,
        max_traffic_fraction=0.5,
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


class TestExperimentSpec:
    def test_valid(self):
        spec = make_spec()
        assert spec.name == "exp0"

    def test_requires_positive_samples(self):
        with pytest.raises(ConfigurationError):
            make_spec(required_samples=0)

    def test_duration_ordering(self):
        with pytest.raises(ConfigurationError):
            make_spec(min_duration_slots=5, max_duration_slots=3)

    def test_fraction_ordering(self):
        with pytest.raises(ConfigurationError):
            make_spec(min_traffic_fraction=0.6, max_traffic_fraction=0.5)

    def test_negative_start(self):
        with pytest.raises(ConfigurationError):
            make_spec(earliest_start=-1)


class TestSchedulingProblem:
    def test_duplicate_names_rejected(self, profile):
        with pytest.raises(ConfigurationError):
            SchedulingProblem(profile, [make_spec("a"), make_spec("a")])

    def test_unknown_preferred_group(self, profile):
        with pytest.raises(ConfigurationError):
            SchedulingProblem(
                profile, [make_spec(preferred_groups=frozenset({"mars"}))]
            )

    def test_start_beyond_horizon(self, profile):
        with pytest.raises(ConfigurationError):
            SchedulingProblem(profile, [make_spec(earliest_start=48)])

    def test_window_volume_matches_sum(self, profile):
        problem = SchedulingProblem(profile, [make_spec()])
        groups = frozenset({"eu"})
        manual = sum(problem.group_volume(s, groups) for s in range(3, 9))
        assert problem.window_volume(3, 9, groups) == pytest.approx(manual)

    def test_window_volume_clamps(self, profile):
        problem = SchedulingProblem(profile, [make_spec()])
        assert problem.window_volume(40, 100, frozenset({"eu"})) == pytest.approx(
            8 * 600.0
        )

    def test_group_share(self, profile):
        problem = SchedulingProblem(profile, [make_spec()])
        assert problem.group_share(frozenset({"eu", "na"})) == pytest.approx(1.0)

    def test_group_share_rejects_unknown_group(self, profile):
        problem = SchedulingProblem(profile, [make_spec()])
        with pytest.raises(KeyError, match="mars"):
            problem.group_share(frozenset({"eu", "mars"}))

    def test_spec_lookup(self, profile):
        problem = SchedulingProblem(profile, [make_spec("a")])
        assert problem.spec("a").name == "a"
        with pytest.raises(ConfigurationError):
            problem.spec("z")


class TestGene:
    def test_end_and_slots(self):
        gene = Gene(3, 4, 0.2, frozenset({"eu"}))
        assert gene.end == 7
        assert list(gene.slots()) == [3, 4, 5, 6]

    def test_validation(self):
        with pytest.raises(ValidationError):
            Gene(-1, 1, 0.5, frozenset({"eu"}))
        with pytest.raises(ValidationError):
            Gene(0, 0, 0.5, frozenset({"eu"}))
        with pytest.raises(ValidationError):
            Gene(0, 1, 0.0, frozenset({"eu"}))
        with pytest.raises(ValidationError):
            Gene(0, 1, 0.5, frozenset())

    def test_with_helper(self):
        gene = Gene(0, 2, 0.1, frozenset({"eu"}))
        assert gene.with_(start=5).start == 5
        assert gene.start == 0


class TestSchedule:
    def test_gene_count_enforced(self, profile):
        problem = SchedulingProblem(profile, [make_spec("a"), make_spec("b")])
        with pytest.raises(ValidationError):
            Schedule(problem, [Gene(0, 2, 0.1, frozenset({"eu"}))])

    def test_samples_collected(self, profile):
        problem = SchedulingProblem(profile, [make_spec("a")])
        schedule = Schedule(problem, [Gene(0, 5, 0.2, frozenset({"eu"}))])
        # 5 slots * 1000 volume * 0.6 share * 0.2 fraction
        assert schedule.samples_collected(0) == pytest.approx(600.0)

    def test_samples_clamped_at_horizon(self, profile):
        problem = SchedulingProblem(profile, [make_spec("a")])
        schedule = Schedule(problem, [Gene(46, 10, 0.2, frozenset({"eu"}))])
        assert schedule.samples_collected(0) == pytest.approx(2 * 1000 * 0.6 * 0.2)

    def test_consumption_per_slot(self, profile):
        problem = SchedulingProblem(profile, [make_spec("a"), make_spec("b")])
        schedule = Schedule(
            problem,
            [
                Gene(0, 2, 0.5, frozenset({"eu"})),
                Gene(1, 2, 0.5, frozenset({"na"})),
            ],
        )
        consumption = schedule.consumption_per_slot()
        assert consumption[0] == pytest.approx(300.0)
        assert consumption[1] == pytest.approx(300.0 + 200.0)

    def test_group_usage_sums_fractions(self, profile):
        problem = SchedulingProblem(profile, [make_spec("a"), make_spec("b")])
        schedule = Schedule(
            problem,
            [
                Gene(0, 2, 0.4, frozenset({"eu"})),
                Gene(0, 1, 0.5, frozenset({"eu"})),
            ],
        )
        usage = schedule.group_usage()
        assert usage[(0, "eu")] == pytest.approx(0.9)
        assert usage[(1, "eu")] == pytest.approx(0.4)

    def test_replaced_does_not_mutate(self, profile):
        problem = SchedulingProblem(profile, [make_spec("a")])
        schedule = Schedule(problem, [Gene(0, 2, 0.1, frozenset({"eu"}))])
        other = schedule.replaced(0, Gene(5, 2, 0.1, frozenset({"eu"})))
        assert schedule.genes[0].start == 0
        assert other.genes[0].start == 5

"""Unit tests for traffic profiles, users, and workloads."""

import pytest

from repro.errors import ConfigurationError
from repro.simulation.rng import SeededRng
from repro.traffic.profile import (
    TrafficProfile,
    UserGroup,
    consumption_series,
    diurnal_profile,
)
from repro.toggles.store import FeatureToggle
from repro.traffic.users import UserPopulation, bucket_user
from repro.traffic.workload import WorkloadGenerator
from tests.unit.test_population_columns import group_of, user_ids


class TestUserGroup:
    def test_valid(self):
        assert UserGroup("eu", 0.5).share == 0.5

    @pytest.mark.parametrize("share", [0.0, 1.5, -0.2])
    def test_invalid_share(self, share):
        with pytest.raises(ConfigurationError):
            UserGroup("eu", share)


class TestTrafficProfile:
    def test_group_shares_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            TrafficProfile([1.0], [UserGroup("a", 0.5), UserGroup("b", 0.4)])

    def test_duplicate_groups_rejected(self):
        with pytest.raises(ConfigurationError):
            TrafficProfile([1.0], [UserGroup("a", 0.5), UserGroup("a", 0.5)])

    def test_group_volume_scales_by_share(self, profile):
        assert profile.group_volume(0, "eu") == pytest.approx(600.0)
        assert profile.group_volume(0, "na") == pytest.approx(400.0)

    def test_unknown_group(self, profile):
        with pytest.raises(ConfigurationError):
            profile.group_volume(0, "asia")

    def test_total_volume(self, profile):
        assert profile.total_volume() == pytest.approx(48_000.0)

    def test_rate_per_second(self, profile):
        assert profile.rate_per_second(0) == pytest.approx(1000.0 / 3600.0)

    def test_empty_slots_rejected(self, groups):
        with pytest.raises(ConfigurationError):
            TrafficProfile([], groups)

    def test_negative_volume_rejected(self, groups):
        with pytest.raises(ConfigurationError):
            TrafficProfile([-1.0], groups)


class TestDiurnalProfile:
    def test_shape_has_day_night_cycle(self):
        profile = diurnal_profile(days=1, noise=0.0)
        volumes = profile.volumes()
        night = volumes[4]   # 04:00
        evening = volumes[20]  # 20:00 peak
        assert evening > 3 * night

    def test_weekend_factor(self):
        profile = diurnal_profile(days=7, noise=0.0, weekend_factor=0.5)
        weekday_peak = profile.volume(20)       # Monday 20:00
        saturday_peak = profile.volume(5 * 24 + 20)
        assert saturday_peak == pytest.approx(weekday_peak * 0.5, rel=0.01)

    def test_deterministic_by_seed(self):
        a = diurnal_profile(seed=1).volumes()
        b = diurnal_profile(seed=1).volumes()
        assert a == b

    def test_hours_per_day(self):
        assert diurnal_profile(days=3).num_slots == 72

    def test_invalid_days(self):
        with pytest.raises(ConfigurationError):
            diurnal_profile(days=0)

    def test_consumption_series_pairs(self, profile):
        series = consumption_series(profile, {0: 100.0, 2: 50.0})
        assert len(series) == profile.num_slots
        assert series[0] == (1000.0, 100.0)
        assert series[1] == (1000.0, 0.0)


class TestBucketing:
    def test_deterministic(self):
        assert bucket_user("alice", "exp1") == bucket_user("alice", "exp1")

    def test_salt_changes_assignment(self):
        buckets_a = {bucket_user(f"u{i}", "exp1", 2) for i in range(50)}
        different = sum(
            bucket_user(f"u{i}", "exp1", 2) != bucket_user(f"u{i}", "exp2", 2)
            for i in range(50)
        )
        assert buckets_a == {0, 1}
        assert different > 10  # independent streams

    def test_uniformity(self):
        counts = [0, 0]
        for i in range(2000):
            counts[bucket_user(f"user{i}", "salt", 2)] += 1
        assert abs(counts[0] - counts[1]) < 200

    def test_invalid_buckets(self):
        with pytest.raises(ConfigurationError):
            bucket_user("u", "s", 0)

    def test_in_rollout_monotone(self):
        # A user inside a 10% rollout stays inside all larger rollouts.
        users = [f"u{i}" for i in range(500)]
        small, large = (FeatureToggle("exp", "svc", rollout_fraction=f) for f in (0.1, 0.5))
        inside_small = [u for u in users if small.evaluate(u)]
        assert inside_small and all(large.evaluate(u) for u in inside_small)

    def test_in_rollout_bounds(self):
        with pytest.raises(ConfigurationError):
            FeatureToggle("s", "svc", rollout_fraction=1.5)


class TestUserPopulation:
    def test_size(self, population):
        assert len(population) == 200

    def test_group_assignment_consistent(self, population):
        for user in user_ids(population)[:20]:
            group = group_of(population, user)
            assert user in population.members(group)

    def test_shares_approximate(self, groups):
        population = UserPopulation(5000, groups, seed=1)
        eu_share = len(population.members("eu")) / 5000
        assert eu_share == pytest.approx(0.6, abs=0.05)

    def test_sample_restricted_to_group(self, population):
        rng = SeededRng(1)
        for _ in range(10):
            user = population.sample(rng, groups=["na"])
            assert group_of(population, user) == "na"

    def test_invalid_size(self, groups):
        with pytest.raises(ConfigurationError):
            UserPopulation(0, groups)


class TestWorkloadGenerator:
    def test_poisson_count_approximates_rate(self, population):
        generator = WorkloadGenerator(population, seed=1)
        requests = list(generator.poisson(100.0, 10.0))
        assert 800 <= len(requests) <= 1200

    def test_poisson_timestamps_in_range(self, population):
        generator = WorkloadGenerator(population, seed=2)
        requests = list(generator.poisson(50.0, 5.0, start=100.0))
        assert all(100.0 <= r.timestamp < 105.0 for r in requests)

    def test_timestamps_monotone(self, population):
        generator = WorkloadGenerator(population, seed=3)
        times = [r.timestamp for r in generator.poisson(50.0, 5.0)]
        assert times == sorted(times)

    def test_constant_spacing(self, population):
        generator = WorkloadGenerator(population, seed=4)
        requests = list(generator.constant(0.5, 4))
        assert [r.timestamp for r in requests] == [0.0, 0.5, 1.0, 1.5]

    def test_request_carries_group_and_headers(self, population):
        generator = WorkloadGenerator(population, seed=5)
        request = next(iter(generator.constant(1.0, 1)))
        assert request.group == group_of(population, request.user_id)
        assert request.headers["user-id"] == request.user_id

    def test_unique_request_ids(self, population):
        generator = WorkloadGenerator(population, seed=7)
        ids = [r.request_id for r in generator.constant(1.0, 100)]
        assert len(set(ids)) == 100

    def test_invalid_rate(self, population):
        generator = WorkloadGenerator(population)
        with pytest.raises(ConfigurationError):
            list(generator.poisson(0.0, 1.0))

    def test_bad_arguments_raise_at_the_call(self, population):
        # Regression: validation used to wait for the first next(), mid-run.
        generator = WorkloadGenerator(population)
        with pytest.raises(ConfigurationError):
            generator.poisson(0.0, 10.0)
        with pytest.raises(ConfigurationError):
            generator.heavy_tail(5.0, 10.0, alpha=1.0)
        with pytest.raises(ConfigurationError):
            generator.constant(1.0, 0)

"""Traffic-layer edge cases: zero-traffic windows, single-user
populations, half-open window boundaries, heavy tails.

The scenario fuzzer stresses these paths constantly, so each edge gets a
pinned unit test rather than relying on the fuzzer stumbling over it.
"""

import pytest

from repro.errors import ConfigurationError
from repro.traffic.profile import DEFAULT_GROUPS, UserGroup, flat_profile
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator
from tests.unit.test_population_columns import group_of, user_ids

SOLE = (UserGroup("all", 1.0),)


def make_generator(seed: int = 5, population_size: int = 50) -> WorkloadGenerator:
    population = UserPopulation(population_size, DEFAULT_GROUPS, seed=seed)
    return WorkloadGenerator(population, entry="frontend.home", seed=seed + 1)


class TestZeroTrafficWindows:
    def test_zero_rate_per_second(self):
        assert flat_profile(2, 0.0).rate_per_second(1) == 0.0


class TestSingleUserPopulation:
    def test_all_requests_from_the_only_user(self):
        population = UserPopulation(1, SOLE, seed=3)
        generator = WorkloadGenerator(population, entry="frontend.home", seed=4)
        requests = list(generator.poisson(5.0, 20.0))
        assert requests
        assert {r.user_id for r in requests} == {"u0000000"}
        assert {r.group for r in requests} == {"all"}

    def test_single_user_multi_group_population(self):
        # One user still lands in exactly one of the declared groups.
        population = UserPopulation(1, DEFAULT_GROUPS, seed=3)
        [user_id] = user_ids(population)
        assert group_of(population, user_id) in {g.name for g in DEFAULT_GROUPS}

    def test_empty_group_sampling_rejected(self):
        population = UserPopulation(1, DEFAULT_GROUPS, seed=3)
        [user_id] = user_ids(population)
        empty = next(
            g.name for g in DEFAULT_GROUPS if g.name != group_of(population, user_id)
        )
        from repro.simulation.rng import SeededRng

        with pytest.raises(ConfigurationError):
            population.sample(SeededRng(0), groups=[empty])


class TestHalfOpenWindows:
    def test_poisson_excludes_end(self):
        requests = list(make_generator().poisson(50.0, 10.0, start=2.0))
        assert requests
        assert all(2.0 < r.timestamp < 12.0 for r in requests)

    def test_heavy_tail_excludes_end(self):
        requests = list(
            make_generator().heavy_tail(50.0, 10.0, alpha=1.3, start=2.0)
        )
        assert requests
        assert all(2.0 < r.timestamp < 12.0 for r in requests)

    def test_constant_includes_start_excludes_end_count(self):
        requests = list(make_generator().constant(1.0, 5, start=10.0))
        assert [r.timestamp for r in requests] == [10.0, 11.0, 12.0, 13.0, 14.0]


class TestHeavyTailArrivals:
    def test_mean_rate_matches_poisson_calibration(self):
        n = len(list(make_generator(seed=11).heavy_tail(20.0, 400.0, alpha=1.8)))
        assert n == pytest.approx(20.0 * 400.0, rel=0.1)

    def test_small_alpha_burstier_than_poisson(self):
        # Burstiness: coefficient of variation of inter-arrival gaps.
        def cv(timestamps):
            gaps = [b - a for a, b in zip(timestamps, timestamps[1:])]
            mean = sum(gaps) / len(gaps)
            var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
            return var**0.5 / mean

        poisson = [r.timestamp for r in make_generator(seed=2).poisson(10.0, 300.0)]
        bursty = [
            r.timestamp
            for r in make_generator(seed=2).heavy_tail(10.0, 300.0, alpha=1.15)
        ]
        assert cv(bursty) > 1.5 * cv(poisson)

    def test_determinism(self):
        a = [r.timestamp for r in make_generator(seed=8).heavy_tail(5.0, 60.0)]
        b = [r.timestamp for r in make_generator(seed=8).heavy_tail(5.0, 60.0)]
        assert a == b

    def test_validation(self):
        generator = make_generator()
        with pytest.raises(ConfigurationError):
            list(generator.heavy_tail(0.0, 10.0))
        with pytest.raises(ConfigurationError):
            list(generator.heavy_tail(5.0, 0.0))
        with pytest.raises(ConfigurationError):
            list(generator.heavy_tail(5.0, 10.0, alpha=1.0))

"""The columnar ``UserPopulation``: one group-code column, ids on demand.

The golden literals below were recorded by running the commit *before*
the population became columnar (per-user ``weighted_choice`` loop, id
dict, member lists), so they pin that the bulk fill assigns every user
exactly as the loop did.  The property test holds the fill to that
loop's draw, ``random.choices`` over the group shares, for arbitrary
shares; the footprint test pins that nothing but the code column grows
with the population.
"""

import gc
import time
import tracemalloc
from hashlib import sha256

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.simulation.rng import SeededRng
from repro.traffic.profile import DEFAULT_GROUPS, UserGroup
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator

GROUP_NAMES = ("na", "eu", "asia", "beta_testers")

# (size, seed) -> sha256(bytes(group_codes())), last id, members per group.
GOLDEN = {
    (1, 11): (
        "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
        "u0000000",
        (0, 1, 0, 0),
    ),
    (5_000, 11): (
        "81d5c69e6d7596272704554ef9193b87fe115fe5467f18c49634a55f9a0b0aeb",
        "u0004999",
        (1764, 1543, 1187, 506),
    ),
    (100_000, 2): (
        "b9340cdd363936fd3a30f36333631767e200752e88de69ac858a856f11d60295",
        "u0099999",
        (34967, 29967, 25041, 10025),
    ),
    (1_000_000, 2): (
        "f62c35fc3e6a948ac621795f754d937441df101006e306b71cf382cb449d41ea",
        "u0999999",
        (349982, 299708, 250458, 99852),
    ),
}


def loop_codes(size, groups, seed):
    """The per-user draw the column replaced."""
    raw = SeededRng(seed).raw
    shares = [g.share for g in groups]
    return [raw.choices(range(len(groups)), weights=shares, k=1)[0] for _ in range(size)]


def user_ids(population) -> list[str]:
    """Every user id, in index order."""
    return [population.user_at(index) for index in range(len(population))]


def group_of(population, user_id: str) -> str:
    """The group of *user_id*, read from the code column."""
    return population.group_names[population.group_codes()[int(user_id[1:])]]


class TestGoldenFixtures:
    @pytest.mark.parametrize("size,seed", sorted(GOLDEN))
    def test_matches_the_parent_commit(self, size, seed):
        digest, last_id, member_counts = GOLDEN[size, seed]
        population = UserPopulation(size, DEFAULT_GROUPS, seed=seed)
        assert population.group_names == GROUP_NAMES
        assert sha256(bytes(population.group_codes())).hexdigest() == digest
        assert len(population) == size
        assert population.user_at(0) == "u0000000"
        assert population.user_at(size - 1) == population.user_at(-1) == last_id
        assert (
            tuple(len(population.members(name)) for name in GROUP_NAMES)
            == member_counts
        )


_shares = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)


class TestFillEqualsWeightedChoice:
    @given(
        st.integers(1, 2_000),
        st.integers(0, 2**63),
        st.lists(_shares, min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_codes_equal_the_per_user_loop(self, size, seed, shares):
        groups = [UserGroup(f"g{i}", share) for i, share in enumerate(shares)]
        population = UserPopulation(size, groups, seed=seed)
        assert list(population.group_codes()) == loop_codes(size, groups, seed)

    def test_across_a_chunk_boundary(self):
        groups = [UserGroup("a", 0.3), UserGroup("b", 1.0), UserGroup("c", 0.05)]
        size = 65_536 + 3
        population = UserPopulation(size, groups, seed=4)
        assert list(population.group_codes()) == loop_codes(size, groups, 4)

    def test_more_than_256_groups_keep_plain_int_codes(self):
        groups = [UserGroup(f"g{i}", 0.5) for i in range(300)]
        population = UserPopulation(400, groups, seed=9)
        codes = population.group_codes()
        assert list(codes) == loop_codes(400, groups, 9)
        assert max(codes) > 255 and type(codes[0]) is int

    def test_codes_index_to_plain_ints(self):
        codes = UserPopulation(10, DEFAULT_GROUPS).group_codes()
        assert isinstance(codes, bytes) and type(codes[3]) is int


class TestIdsAreDerived:
    def test_user_at_bounds_are_a_tuple_index(self):
        population = UserPopulation(7, DEFAULT_GROUPS)
        ids = user_ids(population)
        assert ids == [f"u{i:07d}" for i in range(7)]
        for index in range(-7, 7):
            assert population.user_at(index) == ids[index]
        for index in (7, -8):
            with pytest.raises(IndexError):
                population.user_at(index)

    def test_members_partition_the_ids_in_order(self):
        population = UserPopulation(500, DEFAULT_GROUPS, seed=3)
        members = {name: population.members(name) for name in GROUP_NAMES}
        assert sorted(sum(members.values(), [])) == user_ids(population)
        for name, ids in members.items():
            assert ids == sorted(ids)
            assert {group_of(population, user_id) for user_id in ids} <= {name}

    @given(st.integers(1, 5_000), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_sample_draws_what_choice_over_the_ids_drew(self, size, seed):
        population = UserPopulation(size, DEFAULT_GROUPS)
        rng, twin = SeededRng(seed), SeededRng(seed)
        assert population.sample(rng) == twin.choice(user_ids(population))
        assert rng.random() == twin.random()


class TestDuplicateGroupNames:
    def test_rejected(self):
        groups = [UserGroup("eu", 0.5), UserGroup("na", 0.2), UserGroup("eu", 0.3)]
        with pytest.raises(ConfigurationError, match="duplicate"):
            UserPopulation(10, groups)


class TestBuildersReadTheColumn:
    def test_scalar_and_batch_requests_carry_the_users_group(self):
        # The scalar stream is the batch rows, built by RequestBatch.request.
        population = UserPopulation(300, DEFAULT_GROUPS, seed=8)
        for request in WorkloadGenerator(population, seed=6).constant(0.01, 500):
            assert request.group == group_of(population, request.user_id)


class TestFootprint:
    def test_a_million_users_in_a_megabyte(self):
        gc.collect()
        tracemalloc.start()
        try:
            started = time.perf_counter()
            population = UserPopulation(1_000_000, DEFAULT_GROUPS, seed=1)
            seconds = time.perf_counter() - started
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        mib = 2.0**20
        print(
            f"1M users: {seconds:.2f} s traced, retained {retained / mib:.2f} MiB, "
            f"peak {peak / mib:.2f} MiB"
        )
        assert len(population) == 1_000_000
        assert retained < 2 * mib
        assert peak < 16 * mib

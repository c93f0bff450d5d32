"""Unit tests for columnar workload generation and traffic hashing.

Covers the :class:`BatchWorkloadGenerator` stream-for-stream equality
contract against the scalar :class:`WorkloadGenerator`, the memoized
``bucket_user`` salt-midstate cache (pinned against reference digests so
the cache can never drift), bulk sticky assignment, and the traffic
profile's prefix-sum volume queries.
"""

import hashlib

import pytest

from repro.errors import ConfigurationError
from repro.routing.assignment import StickyAssigner
from repro.routing.splitter import canary_split
from repro.traffic.batch import BatchWorkloadGenerator
from repro.traffic.profile import (
    DEFAULT_GROUPS,
    TrafficProfile,
    UserGroup,
    diurnal_profile,
)
from repro.traffic.users import UserPopulation, bucket_user, bucket_users
from repro.traffic.workload import WorkloadGenerator


def _pair(seed=5, entry_mix=None, batch_size=64):
    population = UserPopulation(120, DEFAULT_GROUPS, seed=1)
    scalar = WorkloadGenerator(
        population, entry="frontend.index", seed=seed, entry_mix=entry_mix
    )
    batch = BatchWorkloadGenerator(
        population,
        entry="frontend.index",
        seed=seed,
        entry_mix=entry_mix,
        batch_size=batch_size,
    )
    return scalar, batch


def _materialize(batches):
    return [request for batch in batches for request in batch.requests()]


class TestBatchGeneratorEquality:
    """Every stream builder must reproduce the scalar stream exactly:
    same ids, timestamps, users, groups, entries, headers."""

    def test_poisson(self):
        scalar, batch = _pair()
        assert _materialize(batch.poisson(40.0, 10.0)) == list(
            scalar.poisson(40.0, 10.0)
        )

    def test_heavy_tail(self):
        scalar, batch = _pair(seed=11)
        assert _materialize(batch.heavy_tail(40.0, 10.0, alpha=1.6)) == list(
            scalar.heavy_tail(40.0, 10.0, alpha=1.6)
        )

    def test_constant(self):
        scalar, batch = _pair(seed=2)
        assert _materialize(batch.constant(0.25, 100)) == list(
            scalar.constant(0.25, 100)
        )

    def test_entry_mix(self):
        mix = {"frontend.index": 0.7, "frontend.search": 0.3}
        scalar, batch = _pair(seed=9, entry_mix=mix)
        assert _materialize(batch.poisson(40.0, 8.0)) == list(
            scalar.poisson(40.0, 8.0)
        )

    def test_ids_continue_across_streams(self):
        scalar, batch = _pair(seed=4)
        assert _materialize(batch.constant(0.5, 10)) == list(
            scalar.constant(0.5, 10)
        )
        # A second stream from the same generator keeps numbering from
        # where the first left off, exactly like the scalar counter.
        assert _materialize(batch.constant(0.5, 10)) == list(
            scalar.constant(0.5, 10)
        )

    def test_batch_size_does_not_change_content(self):
        _, small = _pair(seed=8, batch_size=7)
        _, large = _pair(seed=8, batch_size=512)
        assert _materialize(small.poisson(40.0, 6.0)) == _materialize(
            large.poisson(40.0, 6.0)
        )

    def test_rejects_bad_batch_size(self):
        population = UserPopulation(10, DEFAULT_GROUPS, seed=1)
        with pytest.raises(ConfigurationError):
            BatchWorkloadGenerator(population, batch_size=0)


class TestBucketHashing:
    # Reference digests computed from first principles:
    # int.from_bytes(md5(f"{salt}:{user}").digest()[:8], "big") % buckets.
    # The memoized salt-midstate cache must reproduce these forever.
    PINNED = [
        (("user0", "catalog-canary", 1000), 343),
        (("user1", "catalog-canary", 1000), 381),
        (("u00042", "exp", 1000), 637),
        (("alice", "", 1000), 286),
        (("user7", "salt", 7), 6),
        (("", "catalog-canary", 1000), 157),
    ]

    def test_bucket_user_pinned_values(self):
        for (user_id, salt, buckets), expected in self.PINNED:
            assert bucket_user(user_id, salt, buckets) == expected

    def test_bucket_user_matches_unmemoized_md5(self):
        for i in range(50):
            user_id, salt = f"u{i:05d}", f"salt{i % 5}"
            digest = hashlib.md5(f"{salt}:{user_id}".encode()).digest()
            expected = int.from_bytes(digest[:8], "big") % 1000
            assert bucket_user(user_id, salt) == expected

    def test_bucket_users_matches_bucket_user(self):
        user_ids = [f"u{i:05d}" for i in range(200)]
        assert bucket_users(user_ids, "exp", 1000) == [
            bucket_user(user_id, "exp", 1000) for user_id in user_ids
        ]

    def test_rejects_non_positive_buckets(self):
        with pytest.raises(ConfigurationError):
            bucket_user("u", "s", 0)
        with pytest.raises(ConfigurationError):
            bucket_users(["u"], "s", -1)


class TestAssignMany:
    def test_matches_repeated_assign(self):
        variants = canary_split("1.0.0", "2.0.0", 0.2)
        user_ids = [f"u{i % 60:04d}" for i in range(200)]  # repeats included
        bulk = StickyAssigner("exp")
        scalar = StickyAssigner("exp")
        assert bulk.assign_many(user_ids, variants) == [
            scalar.assign(user_id, variants) for user_id in user_ids
        ]
        assert bulk._counts == scalar._counts
        assert bulk._seen == scalar._seen

    def test_bulk_then_scalar_stays_sticky(self):
        variants = canary_split("1.0.0", "2.0.0", 0.3)
        assigner = StickyAssigner("exp")
        bulk = assigner.assign_many([f"u{i}" for i in range(50)], variants)
        for i, version in enumerate(bulk):
            assert assigner.assign(f"u{i}", variants) == version
        assert assigner.total_distinct_users() == 50

"""Unit tests for workload generation and traffic hashing.

Covers both generators' streams (pinned by golden fingerprints) and
their ``traffic.generate`` spans, the memoized ``bucket_user``
salt-midstate cache (pinned against reference digests so the cache can
never drift), and bulk sticky assignment.
"""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.routing.assignment import StickyAssigner
from repro.routing.splitter import canary_split
from repro.traffic import batch as batch_module
from repro.traffic.batch import BatchWorkloadGenerator, pack_requests
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.users import UserPopulation, _user_id, bucket_indices, bucket_user
from repro.traffic.workload import Request, WorkloadGenerator

TRACER = Path(__file__).resolve().parents[2] / "benchmarks" / "e2e" / "tracer.py"


def _generators(seed):
    population = UserPopulation(120, DEFAULT_GROUPS, seed=1)
    return WorkloadGenerator(population, seed=seed), BatchWorkloadGenerator(population, seed=seed)


def _fingerprint(requests):
    requests = list(requests)
    return len(requests), hashlib.sha256(repr(requests).encode()).hexdigest()[:16]


class TestBatchGeneratorEquality:
    """Both generators reproduce, request for request, the streams the last
    independent scalar draw loop produced: (count, sha256 of the request
    list) recorded from it.  Regenerate only for a change *meant* to alter
    what a stream draws."""

    def _check(self, seed, streams, golden):
        scalar, batch = _generators(seed)
        rows = [r for name, args in streams for r in getattr(scalar, name)(*args)]
        chunks = [c for name, args in streams for c in getattr(batch, name)(*args)]
        assert _fingerprint(rows) == golden
        assert _fingerprint(r for chunk in chunks for r in chunk.requests()) == golden

    def test_poisson(self):
        # ≈ 20 k requests: the stream crosses a batch boundary.
        self._check(5, [("poisson", (2_000.0, 10.0))], (20005, "9f6bb13a2626e033"))

    def test_heavy_tail(self):
        self._check(11, [("heavy_tail", (40.0, 10.0, 1.6, 3.5))], (294, "fc1021dc209c1eec"))

    def test_constant(self):
        self._check(2, [("constant", (0.25, 100))], (100, "c4d08f84f6f0f0d9"))

    def test_ids_continue_across_streams(self):
        streams = [
            ("poisson", (30.0, 2.0)),
            ("constant", (0.5, 10, 2.0)),
            ("heavy_tail", (30.0, 2.0, 1.6, 7.0)),
        ]
        self._check(4, streams, (133, "7c2d6f60965b3d8f"))


def test_tracer_counts_each_generated_request_once():
    # benchmarks/e2e/tracer.py times both classes' own ``poisson`` as
    # ``traffic.generate``; one running through the other counts twice.
    spec = importlib.util.spec_from_file_location("e2e_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    tracer.install()
    try:
        scalar, batch = _generators(3)
        produced = len(list(scalar.poisson(200.0, 2.0)))
        produced += sum(map(len, batch.poisson(200.0, 2.0)))
    finally:
        tracer.uninstall()
    assert produced > 0
    assert tracer.aggregate()["traffic.generate"]["units"] == produced


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

    def test_bucket_indices_matches_bucket_user(self):
        for size in (200, 2000):  # both sides of the per-row crossover
            indices = np.arange(size) * 7919
            assert bucket_indices(indices, "exp", 1000).tolist() == [
                bucket_user(_user_id(i), "exp", 1000) for i in indices.tolist()
            ]

    def test_rejects_non_positive_buckets(self):
        with pytest.raises(ConfigurationError):
            bucket_user("u", "s", 0)
        with pytest.raises(ConfigurationError):
            bucket_indices(np.arange(3), "s", -1)


class TestAssignMany:
    def test_matches_repeated_assign(self):
        variants = canary_split("1.0.0", "2.0.0", 0.2)
        versions = [v.version for v in variants]
        indices = np.arange(200) % 60  # repeats included
        bulk = StickyAssigner("exp")
        scalar = StickyAssigner("exp")
        population = UserPopulation(60, DEFAULT_GROUPS)
        assert [versions[p] for p in bulk.assign_many(indices, variants, population)] == [
            scalar.assign(_user_id(i), variants) for i in indices.tolist()
        ]
        bulk._settle()
        assert bulk._counts == scalar._counts
        assert bulk._seen == scalar._seen

    def test_bulk_then_scalar_stays_sticky(self):
        variants = canary_split("1.0.0", "2.0.0", 0.3)
        assigner = StickyAssigner("exp")
        bulk = assigner.assign_many(np.arange(50), variants, UserPopulation(50, DEFAULT_GROUPS))
        for i, pick in enumerate(bulk.tolist()):
            assert assigner.assign(_user_id(i), variants) == variants[pick].version
        assert assigner.total_distinct_users() == 50


class TestPackRequests:
    def test_rows_name_the_requests(self):
        stream = [
            Request("a", 1.0, "alice", "eu", "frontend.home"),
            Request("b", 0.5, "u0", "na", "frontend.home"),
            Request("c", 2.0, "alice", "eu", "frontend.home"),
            Request("d", 1.5, "alice", "na", "frontend.other"),
        ]
        first, second = pack_requests(stream)
        assert first.entry == "frontend.home" and second.entry == "frontend.other"
        assert first.population is second.population
        # Running maximum: the request at 0.5 runs at 1.0, the one at 1.5 at 2.0.
        assert first.timestamps.tolist() == [1.0, 1.0, 2.0]
        assert second.timestamps.tolist() == [2.0]
        assert (first.base_id, second.base_id) == (0, 3)
        rows = [first.request(row) for row in range(3)] + [second.request(0)]
        assert [(r.user_id, r.group) for r in rows] == [
            (r.user_id, r.group) for r in stream
        ]
        # One population entry per (user, group) pair, first seen first.
        assert len(first.population) == 3
        assert first.population.group_names == ("eu", "na")

    def test_batches_are_cut_at_batch_size(self, monkeypatch):
        monkeypatch.setattr(batch_module, "BATCH_SIZE", 4)
        stream = [Request(f"r{i}", float(i), f"u{i % 3}", "eu", "f.e") for i in range(10)]
        batches = list(pack_requests(stream))
        assert [len(b) for b in batches] == [4, 4, 2]
        assert [b.base_id for b in batches] == [0, 4, 8]
        assert [b.user_indices.tolist() for b in batches] == [
            [0, 1, 2, 0], [1, 2, 0, 1], [2, 0]
        ]

    def test_nothing_to_pack(self):
        assert list(pack_requests([])) == []

"""Properties of sticky assignment as columns.

:func:`bucket_indices` hashes many user indices with a lane-wise MD5 and
must equal :func:`bucket_user` on each formatted id, whatever the id
width, the salt or the padding.  :meth:`StickyAssigner.assign_many`
leaves its rows pending; every ledger read must still return what an
eager, call-by-call ledger returns at that point.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.routing.assignment import StickyAssigner
from repro.routing.splitter import canary_split, rollout_split
from repro.traffic import users
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.users import (
    ListedPopulation,
    UserPopulation,
    _user_id,
    bucket_indices,
    bucket_user,
)

BUCKETS = (1, 7, 1000, 10000, 2**31 - 1)
CROSSOVER = users._LANE_MD5_MIN


def oracle(indices: np.ndarray, salt: str, buckets: int) -> list[int]:
    return [bucket_user(_user_id(i), salt, buckets) for i in indices.tolist()]


def mixed_indices(seed: int, size: int) -> np.ndarray:
    """7-digit ids plus wider ones (indices >= 10**7 print 9+ chars)."""
    rng = np.random.default_rng(seed)
    narrow = rng.integers(0, 10**7, size)
    wide = rng.integers(10**7, 2**62, size)
    return np.where(rng.random(size) < 0.3, wide, narrow)


@pytest.mark.parametrize("residue", range(50, 64))
def test_every_padding_residue(residue):
    """``len(salt:) + 8`` at every residue mod 64 from 50 to 63: the
    7-digit messages cross from one padded block to two in this range."""
    salt = "s" * ((residue - 9) % 64)
    assert (len(f"{salt}:".encode()) + 8) % 64 == residue
    indices = np.concatenate(
        (mixed_indices(residue, CROSSOVER + 40), [0, 10**7 - 1, 10**7, 2**63 - 1])
    )
    for buckets in BUCKETS:
        assert bucket_indices(indices, salt, buckets).tolist() == oracle(
            indices, salt, buckets
        )


def test_non_ascii_salt_and_empty_indices():
    indices = mixed_indices(3, CROSSOVER * 2)
    for salt in ("é", "实验-ünïcode", "😀" * 20):
        assert bucket_indices(indices, salt, 10000).tolist() == oracle(
            indices, salt, 10000
        )
    empty = bucket_indices(np.array([], np.int64), "exp", 7)
    assert empty.shape == (0,)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.sampled_from((1, CROSSOVER - 1, CROSSOVER, CROSSOVER + 1, 3 * CROSSOVER)),
    salt=st.text(min_size=1, max_size=70),
    buckets=st.sampled_from(BUCKETS),
)
def test_bucket_indices_equals_bucket_user(seed, size, salt, buckets):
    indices = mixed_indices(seed, size)
    assert bucket_indices(indices, salt, buckets).tolist() == oracle(
        indices, salt, buckets
    )


# -- the distinct-user ledger -------------------------------------------------

VERSIONS = ("1.0.0", "2.0.0")

steps = st.lists(
    st.tuples(
        st.sampled_from(("many", "one", "fraction")),
        st.lists(st.integers(0, 80), max_size=40),
        st.floats(0.0, 1.0),
        st.booleans(),  # read the ledger after this step
    ),
    max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(steps=steps)
# A bulk row must be booked before a later scalar call on another split.
@example(
    steps=[
        ("fraction", [], 1.0, False),
        ("many", [1, 2, 3], 0.0, False),
        ("fraction", [], 0.0, False),
        ("one", [1], 0.0, True),
    ]
)
def test_ledger_reads_equal_an_eager_ledger(steps):
    """``assign_many`` over index columns, scalar ``assign`` calls and
    route fraction changes, interleaved: every read equals an eager
    ledger that books each call's users as the call happens."""
    assigner = StickyAssigner("exp")
    versions_of = StickyAssigner("exp")  # computes versions only
    population = UserPopulation(81, DEFAULT_GROUPS)
    seen: set[str] = set()
    counts: Counter[str] = Counter()
    variants = canary_split(*VERSIONS, 0.5)

    def book(user_id: str, version: str) -> None:
        if user_id not in seen:
            seen.add(user_id)
            counts[version] += 1

    for kind, indices, fraction, read in steps:
        if kind == "fraction":
            variants = rollout_split(*VERSIONS, fraction)
        elif kind == "one" and indices:
            user_id = _user_id(indices[0])
            version = assigner.assign(user_id, variants)
            assert version == versions_of.assign(user_id, variants)
            book(user_id, version)
        elif kind == "many":
            picks = assigner.assign_many(np.array(indices, np.int64), variants, population)
            for index, pick in zip(indices, picks.tolist()):
                version = variants[pick].version
                assert version == versions_of.assign(_user_id(index), variants)
                book(_user_id(index), version)
        if read:
            for version in VERSIONS:
                assert assigner.distinct_users(version) == counts[version]
            assert assigner.total_distinct_users() == len(seen)
    assigner._settle()
    assert assigner._seen == seen
    assert assigner._counts == counts


def test_pending_rows_stay_within_distinct_users():
    """The same 1 000 users over 100 unread slices: only first sightings
    wait, so at most 1 000 rows are pending."""
    assigner = StickyAssigner("exp")
    variants = canary_split(*VERSIONS, 0.1)
    rng = np.random.default_rng(5)
    population = UserPopulation(1000, DEFAULT_GROUPS)
    for _ in range(100):
        rows = np.unique(rng.choice(len(population), 600))
        assigner.assign_many(rows, variants, population)
    assert sum(len(rows) for rows, *_ in assigner._pending) <= 1000
    assert assigner.total_distinct_users() == 1000
    assert not assigner._pending


# -- a listed population: ids as the stream spells them -----------------------

IDS = st.one_of(
    st.sampled_from(["alice", "u0", "u1", "u0000000", "u0000003", "", "ünï", "u-1"]),
    st.text(max_size=8),
)


@settings(max_examples=60, deadline=None)
@given(
    ids=st.lists(IDS, min_size=1, max_size=30, unique=True),
    twice=st.booleans(),  # the first id also listed under a second group
    rows=st.lists(st.integers(0, 10**6), min_size=1, max_size=60),
    fraction=st.floats(0.0, 1.0),
)
def test_listed_population_equals_per_id_assign(ids, twice, rows, fraction):
    """``pick_many`` and ``assign_many`` over a :class:`ListedPopulation`
    equal per-id ``assign`` calls, the distinct-user ledger included."""
    listed = [(user_id, "eu") for user_id in ids] + ([(ids[0], "na")] if twice else [])
    population = ListedPopulation(listed)
    indices = np.array([row % len(listed) for row in rows], np.int64)
    variants = rollout_split(*VERSIONS, fraction)
    bulk, scalar = StickyAssigner("exp"), StickyAssigner("exp")
    picked = bulk.pick_many(indices, variants, population)
    assigned = bulk.assign_many(indices, variants, population)
    expected = [scalar.assign(listed[i][0], variants) for i in indices.tolist()]
    assert [variants[p].version for p in picked.tolist()] == expected
    assert [variants[p].version for p in assigned.tolist()] == expected
    for version in VERSIONS:
        assert bulk.distinct_users(version) == scalar.distinct_users(version)
    assert bulk.total_distinct_users() == scalar.total_distinct_users()
    assert bulk._seen == scalar._seen


def test_two_populations_keep_their_own_sightings():
    """Index 0 names ``alice`` in one population and ``u0000000`` in the
    other: both are first sightings, in either order."""
    variants = canary_split(*VERSIONS, 0.5)
    listed = ListedPopulation([("alice", "eu"), ("u0", "eu")])
    canonical = UserPopulation(4, DEFAULT_GROUPS)
    assigner = StickyAssigner("exp")
    for population in (listed, canonical, listed):
        assigner.assign_many(np.array([0, 1]), variants, population)
    assert assigner.total_distinct_users() == 4
    assert assigner._seen == {"alice", "u0", "u0000000", "u0000001"}

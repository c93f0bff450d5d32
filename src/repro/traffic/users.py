"""User populations and deterministic hash bucketing.

Experiment platforms assign users to variants with salted hash bucketing:
``hash(salt + user_id) mod buckets``.  The assignment is sticky (a user
always lands in the same bucket for one experiment) yet independent across
experiments with different salts — the property that lets parallel
experiments use non-overlapping user sets.
"""

from __future__ import annotations

import hashlib
import math
from array import array
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.simulation.rng import SeededRng, cumulative_weights, random_block
from repro.traffic.profile import UserGroup

#: Cap on memoized per-salt MD5 prefix states (see :func:`bucket_user`).
#: Salts are experiment names, so a handful is typical; the cap only
#: guards pathological callers that invent salts per request.
_SALT_CACHE_LIMIT = 256

_salt_digests: dict[str, "hashlib._Hash"] = {}


def _salted_md5(salt: str) -> "hashlib._Hash":
    """Memoized MD5 state pre-fed with ``salt:`` (copied per use)."""
    state = _salt_digests.get(salt)
    if state is None:
        if len(_salt_digests) >= _SALT_CACHE_LIMIT:
            _salt_digests.clear()
        state = hashlib.md5(f"{salt}:".encode("utf-8"))
        _salt_digests[salt] = state
    return state


def bucket_user(user_id: str, salt: str, buckets: int = 1000) -> int:
    """Deterministically map *user_id* to a bucket in ``[0, buckets)``.

    Uses MD5 over ``salt:user_id`` so the mapping is stable across
    processes and Python hash randomization.  The per-salt prefix of the
    digest is memoized — hashing restarts from a copied midstate instead
    of re-digesting ``salt:`` for every request — which is byte-for-byte
    identical to hashing the concatenated string (pinned by a regression
    test so the cache can never drift).
    """
    if buckets <= 0:
        raise ConfigurationError(f"buckets must be positive, got {buckets}")
    state = _salted_md5(salt).copy()
    state.update(user_id.encode("utf-8"))
    return int.from_bytes(state.digest()[:8], "big") % buckets


#: Below this many indices :func:`bucket_indices` hashes row by row: the
#: lane-wise MD5 costs a fixed ≈ 0.4–0.9 ms a call, which per-row hashlib
#: only beats on small slices (measured crossover: docs/PERF_KERNEL_MEASURED.md).
_LANE_MD5_MIN = 512

_MD5_SHIFTS = [7, 12, 17, 22] * 4 + [5, 9, 14, 20] * 4 + [4, 11, 16, 23] * 4 + [6, 10, 15, 21] * 4
_MD5_SINES = [int(abs(math.sin(i)) * 2**32) for i in range(1, 65)]
#: The message word each of the 64 rounds adds, and each quarter's mix.
_MD5_WORDS = [(i, 5 * i + 1, 3 * i + 5, 7 * i)[i // 16] % 16 for i in range(64)]
_MD5_MIX = (
    lambda b, c, d: d ^ (b & (c ^ d)),
    lambda b, c, d: c ^ (d & (b ^ c)),
    lambda b, c, d: b ^ c ^ d,
    lambda b, c, d: c ^ (b | ~d),
)
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)


def _md5_lanes(blocks: np.ndarray) -> list[np.ndarray]:
    """MD5 of many equal-length padded messages at once: *blocks* is
    ``(blocks per message, 16 words, messages)`` little-endian ``uint32``;
    returns the four state words, one lane per message."""
    initial = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476)
    state = [np.full(blocks.shape[2], word, np.uint32) for word in initial]
    for words in blocks:
        a, b, c, d = state
        for i, shift in enumerate(_MD5_SHIFTS):
            f = _MD5_MIX[i // 16](b, c, d)
            f += a
            f += words[_MD5_WORDS[i]]
            f += _MD5_SINES[i]
            a, d, c = d, c, b
            b = b + (f << shift | f >> (32 - shift))
        state = [old + new for old, new in zip(state, (a, b, c, d))]
    return state


def bucket_indices(indices: np.ndarray, salt: str, buckets: int = 1000) -> np.ndarray:
    """:func:`bucket_user` over the ids of many non-negative user indices.

    Element *i* equals ``bucket_user(_user_id(indices[i]), salt, buckets)``
    exactly.  The ``salt:u`` + digits messages are built as a byte matrix
    straight from the integers (one per id width) and hashed in ``uint32``
    lanes, one lane per user; small arrays take the per-row path.
    """
    if buckets <= 0:
        raise ConfigurationError(f"buckets must be positive, got {buckets}")
    indices = np.asarray(indices, np.int64)
    if len(indices) < _LANE_MD5_MIN:
        ids = map(_user_id, indices.tolist())
        return np.array([bucket_user(i, salt, buckets) for i in ids], np.int64)
    prefix = np.frombuffer(f"{salt}:u".encode("utf-8"), np.uint8)
    # Ids are zero-filled to 7 digits; larger indices print wider.
    digits = np.maximum(np.searchsorted(_POWERS_OF_TEN, indices, "right") + 1, 7)
    out = np.empty(len(indices), np.int64)
    for width in np.flatnonzero(np.bincount(digits)).tolist():
        rows = np.flatnonzero(digits == width)
        values = indices[rows]
        size = len(prefix) + width
        padded = (size + 8) // 64 * 64 + 64
        message = np.zeros((len(rows), padded), np.uint8)
        message[:, : len(prefix)] = prefix
        for column in range(size - 1, len(prefix) - 1, -1):
            message[:, column] = values % 10 + 48
            values = values // 10
        message[:, size] = 0x80
        message[:, -8:] = np.frombuffer((8 * size).to_bytes(8, "little"), np.uint8)
        blocks = message.view("<u4").reshape(len(rows), padded // 64, 16)
        a, b, _, _ = _md5_lanes(np.ascontiguousarray(blocks.transpose(1, 2, 0)))
        # The digest's first 8 bytes read big-endian: byte-swapped a, then b.
        head = a.byteswap().astype(np.uint64) << 32 | b.byteswap()
        out[rows] = head % buckets
    return out


#: Users drawn per step of the population fill (bounds the transient floats).
_FILL_CHUNK = 65_536


def _user_id(index: int) -> str:
    # f"u{index:07d}" for index >= 0, at half the cost of a format spec.
    return "u" + str(index).zfill(7)


def _draw_group_codes(
    size: int, shares: Sequence[float], rng: SeededRng
) -> "bytes | array[int]":
    """One group code per user, bit-identical to *size* calls of
    :meth:`SeededRng.weighted_choice`.

    Replays ``random.choices(..., k=1)``: one uniform per user (drawn in
    bulk by :func:`~repro.simulation.rng.random_block`) scaled by
    the total weight and bisected (right) over all but the last of the
    :func:`cumulative_weights`.  Returns ``bytes`` or an ``array``: both
    index to a plain ``int`` at tuple speed (``RequestBatch.request`` reads
    one per row), and both are buffers the request kernel views as an
    ndarray without a copy.
    """
    cum, total = cumulative_weights(shares)
    last = len(cum) - 1
    codes = array("B" if last < 2**8 else "H" if last < 2**16 else "L")
    for lo in range(0, size, _FILL_CHUNK):
        draws = random_block(rng.raw, min(_FILL_CHUNK, size - lo))
        picks = np.searchsorted(cum, draws * total, side="right")
        codes.frombytes(
            np.minimum(picks, last).astype(f"u{codes.itemsize}").tobytes()
        )
    return bytes(codes) if codes.typecode == "B" else codes


class UserPopulation:
    """A synthetic user base partitioned into user groups.

    Users are identified by opaque string ids; each user belongs to
    exactly one :class:`UserGroup` with probability proportional to the
    group's traffic share.  Stored columnar: the size, the group names
    and one group code per user — ids are formatted from the index on
    demand, so a million users cost a megabyte.
    """

    def __init__(
        self, size: int, groups: Sequence[UserGroup], seed: int = 11
    ) -> None:
        if size <= 0:
            raise ConfigurationError(f"population size must be positive, got {size}")
        if not groups:
            raise ConfigurationError("population needs at least one group")
        names = tuple(g.name for g in groups)
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate user group names in {list(names)}")
        self._size = size
        self._group_names_tuple: tuple[str, ...] = names
        self._group_codes = _draw_group_codes(
            size, [g.share for g in groups], SeededRng(seed)
        )

    def __len__(self) -> int:
        return self._size

    @property
    def group_names(self) -> tuple[str, ...]:
        """Group names in declaration order; codes index into this."""
        return self._group_names_tuple

    def group_codes(self) -> Sequence[int]:
        """Per-user group index into :attr:`group_names` (no copy).

        Element *i* is the group of user ``user_at(i)`` — the columnar
        encoding batch workloads carry instead of group-name strings.
        """
        return self._group_codes

    def user_at(self, index: int) -> str:
        """The id of the *index*-th user (generation order)."""
        size = self._size
        if not -size <= index < size:
            raise IndexError("user index out of range")
        return _user_id(index % size)

    def buckets(self, indices: np.ndarray, salt: str, buckets: int) -> np.ndarray:
        """:func:`bucket_user` of the users at *indices*: the lane-wise
        :func:`bucket_indices`, since the ids are formatted from them."""
        return bucket_indices(indices, salt, buckets)

    def members(self, group: str) -> list[str]:
        """All users of *group* in generation order (derived, O(n))."""
        if group not in self._group_names_tuple:
            raise ConfigurationError(f"unknown user group {group!r}")
        code = self._group_names_tuple.index(group)
        return [_user_id(i) for i, c in enumerate(self._group_codes) if c == code]

    def sample(self, rng: SeededRng, groups: Iterable[str] | None = None) -> str:
        """Draw one user uniformly, optionally restricted to *groups*."""
        if groups is None:
            return self.user_at(rng.randrange(self._size))
        pool: list[str] = []
        for group in groups:
            pool.extend(self.members(group))
        if not pool:
            raise ConfigurationError("no users in the requested groups")
        return rng.choice(pool)


class ListedPopulation:
    """The users of a given request stream, listed: one entry per distinct
    ``(user id, group)`` pair, in first-seen order.

    Reads as a :class:`UserPopulation` does where the request kernel and
    the sticky assigner read one (``len``, :attr:`group_names`,
    :meth:`group_codes`, :meth:`user_at`, :meth:`buckets`), but its ids
    are whatever the stream carries (``"alice"``, ``"u0"``), so nothing
    is derived from an index: each id is kept, and hashed with
    :func:`bucket_user`.  Groups are named in first-seen order.
    """

    def __init__(self, users: Sequence[tuple[str, str]]) -> None:
        names = tuple(dict.fromkeys(group for _, group in users))
        code_of = {name: code for code, name in enumerate(names)}
        self._ids = [user_id for user_id, _ in users]
        self._group_names_tuple = names
        self._group_codes = array("L", [code_of[group] for _, group in users])

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def group_names(self) -> tuple[str, ...]:
        """Group names in first-seen order; codes index into this."""
        return self._group_names_tuple

    def group_codes(self) -> Sequence[int]:
        """Per-entry group index into :attr:`group_names` (no copy): an
        ``array``, a buffer as :meth:`UserPopulation.group_codes` is."""
        return self._group_codes

    def user_at(self, index: int) -> str:
        """The id of the *index*-th entry."""
        return self._ids[index]

    def buckets(self, indices: np.ndarray, salt: str, buckets: int) -> np.ndarray:
        """:func:`bucket_user` of the users at *indices*, one id at a time."""
        ids = self._ids
        return np.array(
            [bucket_user(ids[i], salt, buckets) for i in np.asarray(indices).tolist()],
            np.int64,
        )

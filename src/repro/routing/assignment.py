"""Sticky user-to-variant assignment.

Assignment is derived from a salted hash of the user id, so it is
deterministic (the same user always sees the same variant within one
experiment), stateless (no synchronization point — cf. the "single points
of failure" discussion in Section 1.5.2), and independent across
experiments with different names.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.routing.rules import Variant
from repro.traffic.users import bucket_user

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.traffic.users import ListedPopulation, UserPopulation

_BUCKETS = 10_000


class StickyAssigner:
    """Maps users to variants by salted hash bucketing.

    Also counts how many distinct assignments each variant received,
    which experiment analysis uses to track collected sample sizes.
    :meth:`assign_many` takes users as indices into a population (a
    :class:`~repro.traffic.users.UserPopulation` or a
    :class:`~repro.traffic.users.ListedPopulation`), which names and
    buckets them.  It leaves its rows pending and every read settles
    them first, in call order, so each read sees the eager ledger.
    """

    def __init__(self, salt: str) -> None:
        if not salt:
            raise ConfigurationError("assigner salt must be non-empty")
        self.salt = salt
        self._counts: Counter[str] = Counter()
        self._seen: set[str] = set()
        # (user indices, variant picks, versions, population) per
        # assign_many call, holding only indices no earlier call sighted
        # in that population: O(distinct users).
        self._pending: list[tuple] = []
        # Per population, whether each index has been sighted.
        self._sighted: dict[object, np.ndarray] = {}

    def assign(self, user_id: str, variants: Sequence[Variant]) -> str:
        """Return the version of the variant *user_id* falls into."""
        if not variants:
            raise ConfigurationError("cannot assign across zero variants")
        bucket = bucket_user(user_id, self.salt, _BUCKETS)
        cumulative = 0.0
        chosen = variants[-1].version
        for variant in variants:
            cumulative += variant.fraction
            if bucket < cumulative * _BUCKETS:
                chosen = variant.version
                break
        self._settle()
        if user_id not in self._seen:
            self._seen.add(user_id)
            self._counts[chosen] += 1
        return chosen

    def assign_many(
        self,
        indices: np.ndarray,
        variants: Sequence[Variant],
        population: UserPopulation | ListedPopulation,
    ) -> np.ndarray:
        """Assign the users of many *population* indices at once; element
        *i* is the index into *variants* of
        ``assign(population.user_at(indices[i]), variants)``, distinct-user
        bookkeeping included."""
        picks = self.pick_many(indices, variants, population)
        self.record_many(indices, picks, tuple(v.version for v in variants), population)
        return picks

    def record_many(
        self,
        indices: np.ndarray,
        picks: np.ndarray,
        versions: tuple[str, ...],
        population: UserPopulation | ListedPopulation,
    ) -> None:
        """The ledger half of :meth:`assign_many`: the users of *population*
        at *indices* were assigned ``versions[picks[i]]``."""
        indices = np.asarray(indices, np.int64)
        # Only a first sighting can change the ledger, so only those wait.
        sighted = self._sighted.setdefault(population, np.zeros(0, bool))
        if len(indices) and indices.max() >= len(sighted):
            sighted = np.append(sighted, np.zeros(indices.max() + 1, bool))
            self._sighted[population] = sighted
        fresh = ~sighted[indices]
        if fresh.any():
            sighted[indices] = True
            self._pending.append(
                (indices[fresh], np.asarray(picks)[fresh], versions, population)
            )

    def pick_many(
        self,
        indices: np.ndarray,
        variants: Sequence[Variant],
        population: UserPopulation | ListedPopulation,
    ) -> np.ndarray:
        """:meth:`assign_many`'s picks, recording nothing.

        Buckets the whole column with ``population.buckets``, then picks
        variants via a vectorized threshold search.  The thresholds
        are accumulated with the same left-to-right float additions as the
        scalar loop, and the comparison (``bucket < cumulative * buckets``)
        is exact in float64 for bucket counts this small — so the split is
        bit-identical, not merely statistically equivalent.
        """
        if not variants:
            raise ConfigurationError("cannot assign across zero variants")
        indices = np.asarray(indices, np.int64)
        # One variant (a dark launch, a finished rollout) takes every
        # bucket, so no id is hashed.
        if len(variants) > 1:
            buckets = population.buckets(indices, self.salt, _BUCKETS)
        else:
            buckets = np.zeros(len(indices), np.int64)
        thresholds = []
        cumulative = 0.0
        for variant in variants:
            cumulative += variant.fraction
            thresholds.append(cumulative * _BUCKETS)
        # side="right" yields the first threshold strictly above the
        # bucket — the scalar loop's `bucket < cumulative * _BUCKETS`;
        # buckets past every threshold fall to the last variant, like the
        # scalar loop's default.
        return np.minimum(
            np.searchsorted(np.asarray(thresholds), buckets, side="right"),
            len(variants) - 1,
        )

    def _settle(self) -> None:
        """Fold the pending rows into the ledger, in call order."""
        for indices, picks, versions, population in self._pending:
            user_ids = map(population.user_at, indices.tolist())
            for user_id, pick in zip(user_ids, picks.tolist()):
                if user_id not in self._seen:
                    self._seen.add(user_id)
                    self._counts[versions[pick]] += 1
        self._pending.clear()

    def distinct_users(self, version: str) -> int:
        """How many distinct users have been assigned to *version*."""
        self._settle()
        return self._counts[version]

    def total_distinct_users(self) -> int:
        """Distinct users assigned across all variants."""
        self._settle()
        return len(self._seen)

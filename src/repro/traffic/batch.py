"""Bulk workload generation: request streams as columnar numpy arrays.

The scalar :class:`~repro.traffic.workload.WorkloadGenerator` materializes
one :class:`~repro.traffic.workload.Request` object (plus a headers dict)
per arrival — fine for thousands of requests, fatal for the millions the
ROADMAP's north star asks for.  :class:`BatchWorkloadGenerator` produces
the same streams as columns instead: arrival timestamps, user indices
into a :class:`~repro.traffic.users.UserPopulation`, and entry codes,
packed into :class:`RequestBatch` chunks.

Determinism contract (property-tested in
``tests/property/test_batch_equivalence.py``): a batch generator with the
same seed consumes the *same underlying RNG draws in the same order* as
the scalar generator, so the produced arrivals are bit-identical —
the user draw is ``randrange(len(population))`` on both paths, and the
entry-mix pick replays :meth:`random.Random.choices` internals (one
uniform draw, bisect over left-to-right accumulated weights).
:meth:`RequestBatch.request` materializes any row back into a scalar
``Request`` with the id, headers, and group the scalar generator would
have produced — which is what the batch executor's fallback path uses.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.errors import ConfigurationError
from repro.simulation.rng import SeededRng, cumulative_weights
from repro.traffic.users import UserPopulation
from repro.traffic.workload import Request

#: Default rows per :class:`RequestBatch`.  Large enough that per-batch
#: overhead (array construction, slicing) amortizes away, small enough
#: that a batch stays cache-friendly and partial flushes are cheap.
DEFAULT_BATCH_SIZE = 16_384


@dataclass(frozen=True)
class RequestBatch:
    """A contiguous chunk of generated requests in columnar form.

    Attributes:
        base_id: request counter value of row 0; row *i* materializes as
            request id ``r{base_id + i:09d}``, matching the scalar
            generator's numbering.
        timestamps: float64 arrival times, non-decreasing.
        user_indices: int64 user indices (``population.user_at(i)`` is
            the id, ``population.group_codes()[i]`` the group code).
        entry_codes: int16 indices into ``entries``.
        entries: the distinct ``service.endpoint`` entry points.
        population: the issuing user population.
    """

    base_id: int
    timestamps: np.ndarray
    user_indices: np.ndarray
    entry_codes: np.ndarray
    entries: tuple[str, ...]
    population: UserPopulation

    def __len__(self) -> int:
        return len(self.timestamps)

    def request(self, row: int) -> Request:
        """Materialize one row as the scalar :class:`Request` it encodes."""
        population = self.population
        index = int(self.user_indices[row])
        user_id = population.user_at(index)
        return Request(
            request_id=f"r{self.base_id + row:09d}",
            timestamp=float(self.timestamps[row]),
            user_id=user_id,
            group=population.group_names[population.group_codes()[index]],
            entry=self.entries[self.entry_codes[row]],
            headers={"user-id": user_id},
        )

    def requests(self) -> Iterator[Request]:
        """Materialize every row — the scalar view of the batch."""
        for row in range(len(self)):
            yield self.request(row)


class BatchWorkloadGenerator:
    """Generates request streams as :class:`RequestBatch` chunks.

    Mirrors :class:`~repro.traffic.workload.WorkloadGenerator` stream for
    stream — same constructor arguments, same validation, same seeded
    draws — but yields columnar batches instead of per-request objects.
    """

    def __init__(
        self,
        population: UserPopulation,
        entry: str = "frontend.index",
        seed: int = 23,
        entry_mix: Mapping[str, float] | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> None:
        if batch_size <= 0:
            raise ConfigurationError("batch_size must be positive")
        self.population = population
        self.entry = entry
        self._rng = SeededRng(seed)
        self._next_id = 0
        self.batch_size = batch_size
        if entry_mix is not None and not entry_mix:
            raise ConfigurationError("entry_mix must not be empty when given")
        if entry_mix:
            self._entries = tuple(entry_mix)
            self._cum_weights, self._total_weight = cumulative_weights(
                entry_mix.values()
            )
        else:
            self._entries = (entry,)
            self._cum_weights = None
            self._total_weight = 0.0

    # -- stream builders ---------------------------------------------------

    def poisson(
        self, rate_per_second: float, duration: float, start: float = 0.0
    ) -> Iterator[RequestBatch]:
        """Poisson arrivals — the batch form of ``WorkloadGenerator.poisson``."""
        if rate_per_second <= 0:
            raise ConfigurationError("rate_per_second must be positive")
        if duration <= 0:
            raise ConfigurationError("duration must be positive")
        expovariate = self._rng.raw.expovariate
        end = start + duration

        def arrivals() -> Iterator[float]:
            t = start
            while (t := t + expovariate(rate_per_second)) < end:
                yield t

        return self._generate(arrivals())

    def heavy_tail(
        self,
        rate_per_second: float,
        duration: float,
        alpha: float = 1.5,
        start: float = 0.0,
    ) -> Iterator[RequestBatch]:
        """Pareto inter-arrival gaps — the batch form of ``heavy_tail``."""
        if rate_per_second <= 0:
            raise ConfigurationError("rate_per_second must be positive")
        if duration <= 0:
            raise ConfigurationError("duration must be positive")
        if alpha <= 1.0:
            raise ConfigurationError(
                f"alpha must be > 1 for a finite mean gap, got {alpha}"
            )
        mean_gap = 1.0 / rate_per_second
        unit = (alpha - 1.0) / alpha
        paretovariate = self._rng.raw.paretovariate
        end = start + duration

        def arrivals() -> Iterator[float]:
            t = start
            while (t := t + mean_gap * unit * paretovariate(alpha)) < end:
                yield t

        return self._generate(arrivals())

    def constant(
        self, interval: float, count: int, start: float = 0.0
    ) -> Iterator[RequestBatch]:
        """Evenly spaced arrivals — the batch form of ``constant``."""
        if interval <= 0:
            raise ConfigurationError("interval must be positive")
        if count <= 0:
            raise ConfigurationError("count must be positive")
        return self._generate(start + i * interval for i in range(count))

    # -- internals ---------------------------------------------------------

    def _generate(self, arrivals: Iterable[float]) -> Iterator[RequestBatch]:
        """Draw the user and entry columns of each arrival, in batches.

        Draw order matches the scalar ``_make_request``: the user first —
        the body of CPython's ``_randbelow_with_getrandbits``, the same
        words ``randrange(size)`` consumes — then the entry-mix pick (one
        uniform), so the shared stream stays aligned.
        """
        size = len(self.population)
        bits = size.bit_length()
        getrandbits = self._rng.raw.getrandbits
        random = self._rng.raw.random
        cum_weights, total = self._cum_weights, self._total_weight
        last_entry = len(self._entries) - 1
        batch_size = self.batch_size
        timestamps: list[float] = []
        users: list[int] = []
        entries: list[int] = []
        for t in arrivals:
            timestamps.append(t)
            user = getrandbits(bits)
            while user >= size:
                user = getrandbits(bits)
            users.append(user)
            if cum_weights is not None:
                entries.append(bisect(cum_weights, random() * total, 0, last_entry))
            if len(timestamps) >= batch_size:
                yield self._flush(timestamps, users, entries)
                timestamps, users, entries = [], [], []
        if timestamps:
            yield self._flush(timestamps, users, entries)

    def _flush(
        self, timestamps: list[float], users: list[int], entries: list[int]
    ) -> RequestBatch:
        batch = RequestBatch(
            base_id=self._next_id,
            timestamps=np.asarray(timestamps, dtype=np.float64),
            user_indices=np.asarray(users, dtype=np.int64),
            entry_codes=np.asarray(entries or [0] * len(timestamps), dtype=np.int16),
            entries=self._entries,
            population=self.population,
        )
        self._next_id += len(timestamps)
        return batch

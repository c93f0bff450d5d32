"""Workload generation: request streams as columnar numpy arrays.

:class:`BatchWorkloadGenerator` is the repo's one request-stream draw
loop.  It produces arrival timestamps and user indices into a
:class:`~repro.traffic.users.UserPopulation`, packed into
:class:`RequestBatch` chunks of up to :data:`BATCH_SIZE` rows — the form
the batch execution kernel replays for the millions of requests the
ROADMAP's north star asks for.

Determinism contract: the scalar stream *is* these rows.
:class:`~repro.traffic.workload.WorkloadGenerator` holds a batch
generator and yields :meth:`RequestBatch.request` for each row, so the
two paths are bit-identical by construction; golden fingerprints
recorded from the last independent scalar draw loop
(``tests/unit/test_batch_traffic.py``) pin what they draw.  The user
draw is the body of ``randrange(len(population))``, so a stream consumes
the words a per-request ``randrange`` would.

A stream draws up to one batch ahead of what it has yielded: abandoned
half-way, it leaves the RNG and the request-id counter past its whole
current batch, and the next stream from the same generator starts
there.  Every caller in the repo drains its streams.

The other way round, :func:`pack_requests` turns ``Request`` objects
(any stream, hand-built ones included) into rows over a
:class:`~repro.traffic.users.ListedPopulation` of their own users; SIM
runs its workloads on the kernel that way.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, groupby
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.simulation.rng import SeededRng
from repro.traffic.users import ListedPopulation, UserPopulation
from repro.traffic.workload import Request

#: Rows per :class:`RequestBatch`.  Large enough that per-batch overhead
#: (array construction, slicing) amortizes away, small enough that a
#: batch stays cache-friendly and partial flushes are cheap.
BATCH_SIZE = 16_384


@dataclass(frozen=True)
class RequestBatch:
    """A contiguous chunk of generated requests in columnar form.

    Attributes:
        base_id: request counter value of row 0; row *i* materializes as
            request id ``r{base_id + i:09d}``.
        timestamps: float64 arrival times, non-decreasing.
        user_indices: int64 user indices (``population.user_at(i)`` is
            the id, ``population.group_codes()[i]`` the group code).
        entry: the ``service.endpoint`` every row targets.
        population: the issuing user population.
    """

    base_id: int
    timestamps: np.ndarray
    user_indices: np.ndarray
    entry: str
    population: UserPopulation | ListedPopulation

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
            entry=self.entry,
            headers={"user-id": user_id},
        )

    def requests(self) -> Iterator[Request]:
        """Materialize every row — the scalar view of the batch."""
        for row in range(len(self)):
            yield self.request(row)


def pack_requests(requests: Sequence[Request]) -> Iterator[RequestBatch]:
    """*requests* as rows: a batch per run of one ``entry``, cut at
    :data:`BATCH_SIZE` rows, over a :class:`ListedPopulation` of their own
    ``(user_id, group)`` pairs.  Row timestamps are the running maximum of
    the requests' (a request earlier than one before it runs at the later
    time, as ``Bifrost.run`` runs it), so they never decrease."""
    index: dict[tuple[str, str], int] = {}
    users = np.fromiter(
        (index.setdefault((r.user_id, r.group), len(index)) for r in requests),
        np.int64,
        len(requests),
    )
    timestamps = np.fromiter(
        accumulate((r.timestamp for r in requests), max), np.float64, len(requests)
    )
    population = ListedPopulation(list(index))
    lo = 0
    for entry, run in groupby(requests, attrgetter("entry")):
        end = lo + sum(1 for _ in run)
        for start in range(lo, end, BATCH_SIZE):
            stop = min(start + BATCH_SIZE, end)
            yield RequestBatch(
                start, timestamps[start:stop], users[start:stop], entry, population
            )
        lo = end


class BatchWorkloadGenerator:
    """Generates request streams as :class:`RequestBatch` chunks.

    Args:
        population: users issuing the requests.
        entry: the ``service.endpoint`` requests target.
        seed: RNG seed for arrivals and user selection.
    """

    def __init__(
        self,
        population: UserPopulation,
        entry: str = "frontend.index",
        seed: int = 23,
    ) -> None:
        self.population = population
        self.entry = entry
        self._rng = SeededRng(seed)
        self._next_id = 0

    # -- stream builders ---------------------------------------------------

    def poisson(
        self, rate_per_second: float, duration: float, start: float = 0.0
    ) -> Iterator[RequestBatch]:
        """Poisson arrivals at *rate_per_second* for *duration* seconds."""
        return self._generate(self._poisson(rate_per_second, duration, start))

    def heavy_tail(
        self,
        rate_per_second: float,
        duration: float,
        alpha: float = 1.5,
        start: float = 0.0,
    ) -> Iterator[RequestBatch]:
        """Arrivals with Pareto inter-arrival gaps (bursty traffic).

        Gaps are ``(1/rate) * ((alpha-1)/alpha) * X`` with ``X`` a unit
        Pareto of shape *alpha*, so the mean rate matches the Poisson
        generator while small alphas produce the burst-then-lull pattern
        that stresses sliding-window checks and breakers far harder than
        memoryless arrivals.
        """
        return self._generate(
            self._heavy_tail(rate_per_second, duration, alpha, start)
        )

    def constant(
        self, interval: float, count: int, start: float = 0.0
    ) -> Iterator[RequestBatch]:
        """*count* evenly spaced arrivals, one every *interval* s."""
        return self._generate(self._constant(interval, count, start))

    # -- arrival builders ----------------------------------------------------
    #
    # Validate at the call, draw lazily.  ``WorkloadGenerator`` shares these
    # and ``_generate`` rather than the public methods: the e2e tracer times
    # both classes' ``poisson`` as ``traffic.generate``, so nesting one in
    # the other would count every request twice.

    def _poisson(
        self, rate_per_second: float, duration: float, start: float
    ) -> Iterator[float]:
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

        return arrivals()

    def _heavy_tail(
        self, rate_per_second: float, duration: float, alpha: float, start: float
    ) -> Iterator[float]:
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

        return arrivals()

    def _constant(self, interval: float, count: int, start: float) -> Iterator[float]:
        if interval <= 0:
            raise ConfigurationError("interval must be positive")
        if count <= 0:
            raise ConfigurationError("count must be positive")
        return (start + i * interval for i in range(count))

    # -- internals ---------------------------------------------------------

    def _generate(self, arrivals: Iterable[float]) -> Iterator[RequestBatch]:
        """Draw the user of each arrival, in batches of :data:`BATCH_SIZE`.

        The user draw is the body of CPython's
        ``_randbelow_with_getrandbits``, the same words ``randrange(size)``
        consumes, taken right after the arrival's own draw.
        """
        size = len(self.population)
        bits = size.bit_length()
        getrandbits = self._rng.raw.getrandbits
        timestamps: list[float] = []
        users: list[int] = []
        for t in arrivals:
            timestamps.append(t)
            user = getrandbits(bits)
            while user >= size:
                user = getrandbits(bits)
            users.append(user)
            if len(timestamps) >= BATCH_SIZE:
                yield self._flush(timestamps, users)
                timestamps, users = [], []
        if timestamps:
            yield self._flush(timestamps, users)

    def _flush(self, timestamps: list[float], users: list[int]) -> RequestBatch:
        batch = RequestBatch(
            base_id=self._next_id,
            timestamps=np.asarray(timestamps, dtype=np.float64),
            user_indices=np.asarray(users, dtype=np.int64),
            entry=self.entry,
            population=self.population,
        )
        self._next_id += len(timestamps)
        return batch

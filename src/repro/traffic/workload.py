"""Workload generation: request streams for the simulated application.

The Bifrost and topology evaluations drive a simulated microservice
application with end-user requests.  :class:`WorkloadGenerator` yields
Poisson, heavy-tailed or evenly spaced request arrivals at a configurable
rate, each tagged with a user drawn from a
:class:`~repro.traffic.users.UserPopulation`, one :class:`Request` at a
time.  It draws nothing itself: each stream is the rows of the matching
:class:`~repro.traffic.batch.BatchWorkloadGenerator` stream, so it draws
up to one batch ahead of what it has yielded (see that module).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.traffic.users import UserPopulation


@dataclass(frozen=True)
class Request:
    """One end-user request entering the application frontier.

    Attributes:
        request_id: unique id within the generating workload.
        timestamp: simulated arrival time in seconds.
        user_id: the issuing user.
        group: the user's group name.
        entry: the ``service.endpoint`` the request targets.
        headers: opaque key/value metadata routing rules can filter on.
    """

    request_id: str
    timestamp: float
    user_id: str
    group: str
    entry: str
    headers: Mapping[str, str] = field(default_factory=dict)


class WorkloadGenerator:
    """Generates request streams over simulated time, one request at a time.

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
        # Imported here: the batch module imports Request from this one.
        from repro.traffic.batch import BatchWorkloadGenerator

        self._batches = BatchWorkloadGenerator(population, entry, seed)

    def poisson(
        self, rate_per_second: float, duration: float, start: float = 0.0
    ) -> Iterator[Request]:
        """Poisson arrivals at *rate_per_second* for *duration* seconds."""
        return self._rows(self._batches._poisson(rate_per_second, duration, start))

    def heavy_tail(
        self,
        rate_per_second: float,
        duration: float,
        alpha: float = 1.5,
        start: float = 0.0,
    ) -> Iterator[Request]:
        """Pareto inter-arrival gaps (see ``BatchWorkloadGenerator.heavy_tail``)."""
        return self._rows(
            self._batches._heavy_tail(rate_per_second, duration, alpha, start)
        )

    def constant(
        self, interval: float, count: int, start: float = 0.0
    ) -> Iterator[Request]:
        """*count* evenly spaced requests, one every *interval* s."""
        return self._rows(self._batches._constant(interval, count, start))

    def _rows(self, arrivals: Iterator[float]) -> Iterator[Request]:
        for batch in self._batches._generate(arrivals):
            yield from batch.requests()

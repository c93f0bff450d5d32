"""Workload generation: request streams for the simulated application.

The Bifrost and topology evaluations drive a simulated microservice
application with end-user requests.  :class:`WorkloadGenerator` produces
Poisson, heavy-tailed or evenly spaced request arrivals at a configurable
rate, each tagged with a user drawn from a
:class:`~repro.traffic.users.UserPopulation`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.errors import ConfigurationError
from repro.simulation.rng import SeededRng
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
    """Generates request streams over simulated time.

    Args:
        population: users issuing the requests.
        entry: default ``service.endpoint`` requests target.
        seed: RNG seed for arrivals and user selection.
        entry_mix: optional mapping of entry point -> weight to spread
            requests over several frontend endpoints.
    """

    def __init__(
        self,
        population: UserPopulation,
        entry: str = "frontend.index",
        seed: int = 23,
        entry_mix: Mapping[str, float] | None = None,
    ) -> None:
        self.population = population
        self.entry = entry
        self._rng = SeededRng(seed)
        self._counter = itertools.count()
        if entry_mix is not None and not entry_mix:
            raise ConfigurationError("entry_mix must not be empty when given")
        self._entry_mix = dict(entry_mix) if entry_mix else None

    def _make_request(self, timestamp: float) -> Request:
        population = self.population
        index = self._rng.randrange(len(population))
        user_id = population.user_at(index)
        if self._entry_mix:
            entries = list(self._entry_mix)
            weights = [self._entry_mix[e] for e in entries]
            entry = self._rng.weighted_choice(entries, weights)
        else:
            entry = self.entry
        return Request(
            request_id=f"r{next(self._counter):09d}",
            timestamp=timestamp,
            user_id=user_id,
            group=population.group_names[population.group_codes()[index]],
            entry=entry,
            headers={"user-id": user_id},
        )

    def poisson(
        self, rate_per_second: float, duration: float, start: float = 0.0
    ) -> Iterator[Request]:
        """Yield Poisson arrivals at *rate_per_second* for *duration* seconds."""
        if rate_per_second <= 0:
            raise ConfigurationError("rate_per_second must be positive")
        if duration <= 0:
            raise ConfigurationError("duration must be positive")
        t = start
        end = start + duration
        while True:
            t += self._rng.expovariate(rate_per_second)
            if t >= end:
                return
            yield self._make_request(t)

    def heavy_tail(
        self,
        rate_per_second: float,
        duration: float,
        alpha: float = 1.5,
        start: float = 0.0,
    ) -> Iterator[Request]:
        """Yield arrivals with Pareto inter-arrival gaps (bursty traffic).

        Gaps are ``(1/rate) * ((alpha-1)/alpha) * X`` with ``X`` a unit
        Pareto of shape *alpha*, so the mean rate matches the Poisson
        generator while small alphas produce the burst-then-lull pattern
        that stresses sliding-window checks and breakers far harder than
        memoryless arrivals.
        """
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
        t = start
        end = start + duration
        while True:
            t += mean_gap * unit * self._rng.paretovariate(alpha)
            if t >= end:
                return
            yield self._make_request(t)

    def constant(
        self, interval: float, count: int, start: float = 0.0
    ) -> Iterator[Request]:
        """Yield *count* evenly spaced requests, one every *interval* s."""
        if interval <= 0:
            raise ConfigurationError("interval must be positive")
        if count <= 0:
            raise ConfigurationError("count must be positive")
        for i in range(count):
            yield self._make_request(start + i * interval)

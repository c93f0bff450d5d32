"""The simulated wall clock.

All subsystems (microservice runtime, Bifrost engine, telemetry) share one
clock instance so that traces, metrics, and experiment phases line up on a
single timeline.  Time is a float in **seconds** since simulation start.
"""

from __future__ import annotations

from repro.errors import SimulationError


class SimulationClock:
    """Monotonically advancing simulated time in seconds."""

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, delta: float) -> float:
        """Move the clock forward by *delta* seconds and return the new time.

        Negative deltas are rejected: simulated time never flows backwards.
        """
        if delta < 0:
            raise SimulationError(f"cannot advance clock by negative delta {delta}")
        self._now += delta
        return self._now

    def advance_to(self, timestamp: float) -> float:
        """Move the clock forward to an absolute *timestamp*."""
        if timestamp < self._now:
            raise SimulationError(
                f"cannot rewind clock from {self._now} to {timestamp}"
            )
        self._now = float(timestamp)
        return self._now

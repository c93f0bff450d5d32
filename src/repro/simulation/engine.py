"""Discrete-event simulation loop.

A minimal priority-queue event engine: callbacks are scheduled at absolute
simulated timestamps; :meth:`SimulationEngine.run_until` pops events in
time order, advances the shared clock, and invokes them.  Callbacks may
schedule further events (this is how the Bifrost engine re-arms periodic
check evaluations).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import SimulationError
from repro.simulation.clock import SimulationClock


@dataclass(order=True)
class ScheduledEvent:
    """An event in the queue, ordered by (time, insertion sequence)."""

    time: float
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    label: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        self.cancelled = True


class EventQueue:
    """Heap-backed queue of :class:`ScheduledEvent` instances."""

    def __init__(self) -> None:
        self._heap: list[ScheduledEvent] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return sum(1 for event in self._heap if not event.cancelled)

    def push(
        self, time: float, callback: Callable[[], None], label: str = ""
    ) -> ScheduledEvent:
        """Schedule *callback* at absolute simulated *time*."""
        event = ScheduledEvent(time, next(self._counter), callback, label)
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> ScheduledEvent | None:
        """Remove and return the earliest live event, or None when empty."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> float | None:
        """Timestamp of the earliest live event without removing it."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None


class SimulationEngine:
    """Drives the event queue against a shared :class:`SimulationClock`."""

    def __init__(self, clock: SimulationClock | None = None) -> None:
        self.clock = clock or SimulationClock()
        self.queue = EventQueue()
        self.processed_events = 0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.clock.now

    def schedule_at(
        self, time: float, callback: Callable[[], None], label: str = ""
    ) -> ScheduledEvent:
        """Schedule *callback* at absolute time; must not be in the past."""
        if time < self.clock.now:
            raise SimulationError(
                f"cannot schedule event at {time} before now={self.clock.now}"
            )
        return self.queue.push(time, callback, label)

    def step(self) -> bool:
        """Process one event; return False when the queue is empty."""
        event = self.queue.pop()
        if event is None:
            return False
        self.clock.advance_to(max(event.time, self.clock.now))
        event.callback()
        self.processed_events += 1
        return True

    def run_until(self, end_time: float, max_events: int | None = None) -> int:
        """Run events with time <= *end_time*; return how many ran.

        The clock always ends at exactly *end_time* (even if the queue
        drains early), so periodic processes observe a consistent horizon.
        """
        ran = 0
        while True:
            if max_events is not None and ran >= max_events:
                break
            next_time = self.queue.peek_time()
            if next_time is None or next_time > end_time:
                break
            self.step()
            ran += 1
        if end_time > self.clock.now:
            self.clock.advance_to(end_time)
        return ran

    def run(self, max_events: int = 1_000_000) -> int:
        """Run until the queue drains or *max_events* is hit."""
        ran = 0
        while ran < max_events and self.step():
            ran += 1
        return ran

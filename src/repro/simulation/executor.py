"""A simulated single-threaded executor.

The Bifrost evaluation (Sections 4.5.2) reports the engine's CPU
utilization and the *delay* between when a check evaluation is due and
when the engine actually runs it, as the number of parallel strategies or
checks grows.  The prototype measured a Node.js event loop; we reproduce
the same queueing behaviour with an explicit model: one worker, each task
has a simulated processing cost, tasks queue FIFO when the worker is busy.

Utilization and delay then fall out of elementary bookkeeping:

- utilization over a window = busy time / window length,
- delay of a task = start time - arrival (due) time.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.stats.descriptive import SummaryStats, summarize


@dataclass(frozen=True)
class TaskRecord:
    """Bookkeeping for one executed task."""

    arrival: float
    start: float
    finish: float

    @property
    def delay(self) -> float:
        """Queueing delay: how long the task waited past its due time."""
        return self.start - self.arrival

    @property
    def cost(self) -> float:
        """Processing cost of the task."""
        return self.finish - self.start


@dataclass(frozen=True)
class ExecutorReport:
    """Aggregate view over an executor run."""

    tasks: int
    busy_time: float
    span: float
    utilization: float
    delay_stats: SummaryStats


class SimulatedExecutor:
    """Single worker processing tasks in arrival order.

    Tasks must be submitted in non-decreasing arrival order (the
    simulation engine guarantees this).  ``submit`` returns the completed
    :class:`TaskRecord` so callers can observe the induced delay.
    """

    def __init__(self) -> None:
        self._available_at = 0.0
        self._records: list[TaskRecord] = []
        self._busy_time = 0.0

    @property
    def records(self) -> list[TaskRecord]:
        """All completed task records (copy)."""
        return list(self._records)

    @property
    def busy_time(self) -> float:
        """Total simulated seconds the worker spent processing."""
        return self._busy_time

    def submit(self, arrival: float, cost: float) -> TaskRecord:
        """Process a task arriving at *arrival* with processing *cost*."""
        if cost < 0:
            raise SimulationError(f"task cost must be >= 0, got {cost}")
        if self._records and arrival < self._records[-1].arrival:
            raise SimulationError(
                "tasks must be submitted in non-decreasing arrival order "
                f"({arrival} < {self._records[-1].arrival})"
            )
        start = max(arrival, self._available_at)
        finish = start + cost
        self._available_at = finish
        record = TaskRecord(arrival, start, finish)
        self._records.append(record)
        self._busy_time += cost
        return record

    def report(self) -> ExecutorReport:
        """Summarize the whole run."""
        if not self._records:
            raise SimulationError("executor has processed no tasks")
        # FIFO: the last task finishes last.
        span = max(self._available_at - self._records[0].arrival, 1e-12)
        delays = [record.delay for record in self._records]
        return ExecutorReport(
            tasks=len(self._records),
            busy_time=self._busy_time,
            span=span,
            utilization=min(1.0, self._busy_time / span),
            delay_stats=summarize(delays),
        )

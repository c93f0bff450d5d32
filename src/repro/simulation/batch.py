"""The batch driver: :func:`drive`, the one loop that interleaves rows
with engine events, and :func:`run_batches`, which runs each event-free
stretch of a :class:`~repro.traffic.batch.RequestBatch` on the kernel."""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from repro.microservices.kernel.columns import run_slice
from repro.microservices.kernel.core import RequestKernel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.microservices.runtime import Runtime
    from repro.simulation.engine import SimulationEngine
    from repro.traffic.batch import RequestBatch


@dataclass
class BatchRunResult:
    """Aggregate outcome of one :func:`run_batches` replay.

    Every request runs on the kernel, so ``fast_requests == requests``;
    ``fallback_requests``, ``fallback_slices`` and ``fallback_reasons``
    always read 0 and stay only because the benchmark ledger reads them.
    """

    requests: int = 0
    errors: int = 0
    duration_sum_ms: float = 0.0
    fast_requests: int = 0
    fallback_requests: int = 0
    fast_slices: int = 0
    fallback_slices: int = 0
    fallback_reasons: Counter = field(default_factory=Counter)

    @property
    def mean_duration_ms(self) -> float:
        """Mean end-user duration across every executed request."""
        return self.duration_sum_ms / self.requests if self.requests else 0.0

    @property
    def error_rate(self) -> float:
        """Fraction of executed requests that failed."""
        return self.errors / self.requests if self.requests else 0.0

    def _add_fast(self, durations: list, error_count: int) -> None:
        n = len(durations)
        self.requests += n
        self.fast_requests += n
        self.errors += error_count
        self.duration_sum_ms += math.fsum(durations)


def drive(
    simulation: "SimulationEngine",
    timestamps: Sequence[float],
    run_stretch: Callable[[int, int], None],
) -> None:
    """Run rows with non-decreasing *timestamps*, interleaved with events.

    Every event due at or before a row's time (the later of its timestamp
    and the clock) runs before that row.  ``run_stretch(lo, hi)`` executes
    the event-free rows ``[lo, hi)`` and lands their samples before it
    returns, so no event reads a store that lags the rows before it.
    """
    lo, size = 0, len(timestamps)
    while lo < size:
        due = simulation.queue.peek_time()
        if due is None:
            hi = size
        else:
            now = simulation.now
            hi = lo if due <= now else bisect_left(timestamps, due, lo)
            if hi == lo:
                simulation.run_until(max(float(timestamps[lo]), now))
                continue
        run_stretch(lo, hi)
        lo = hi


def run_batches(
    simulation: "SimulationEngine",
    runtime: "Runtime",
    batches: Iterable["RequestBatch"],
    *,
    until: float | None = None,
) -> BatchRunResult:
    """Replay columnar request batches interleaved with engine events.

    Each batch goes through :func:`drive`, so a stretch never spans two
    batches; every stretch runs as one kernel slice.
    """
    result = BatchRunResult()
    for batch in batches:

        def run_stretch(lo: int, hi: int) -> None:
            kernel = RequestKernel(runtime, batch.population)
            now, durations, errors = run_slice(
                kernel, batch, lo, hi, simulation.now
            )
            kernel.flush()
            runtime.clock.advance_to(now)
            result.fast_slices += 1
            result._add_fast(durations, errors)

        drive(simulation, batch.timestamps, run_stretch)
    if until is not None:
        simulation.run_until(until)
    return result

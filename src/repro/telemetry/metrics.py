"""Metric primitives: counters, gauges, histograms.

These mirror the vocabulary of Prometheus-style telemetry stacks the
paper's ecosystem (Istio, Kubernetes) exposes out of the box.
"""

from __future__ import annotations

import bisect
from collections import deque

from repro.errors import ValidationError
from repro.stats.descriptive import SummaryStats, summarize


class Counter:
    """A monotonically increasing count (requests served, errors seen)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    @property
    def value(self) -> float:
        """Current count."""
        return self._value

    def increment(self, amount: float = 1.0) -> None:
        """Add *amount* (must be >= 0) to the counter."""
        if amount < 0:
            raise ValidationError(f"counter increments must be >= 0, got {amount}")
        self._value += amount


class Gauge:
    """A value that can move both ways (in-flight requests, queue depth)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    @property
    def value(self) -> float:
        """Current gauge value."""
        return self._value

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        self._value = float(value)

    def add(self, delta: float) -> None:
        """Adjust the gauge by *delta* (either sign)."""
        self._value += delta


class Histogram:
    """A sorted window of observations with percentile queries.

    Keeps every observation, bounded by *capacity* with sliding-window
    eviction of the oldest (this is FIFO truncation, not reservoir
    sampling) — precision matters more than memory at simulation scale.
    Arrival order lives in a deque so eviction is O(1) at the front;
    the parallel sorted list keeps percentile queries cheap.
    """

    def __init__(self, name: str, capacity: int = 100_000) -> None:
        if capacity <= 0:
            raise ValidationError("histogram capacity must be positive")
        self.name = name
        self._capacity = capacity
        self._sorted: list[float] = []
        self._fifo: deque[float] = deque()

    def __len__(self) -> int:
        return len(self._fifo)

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self._fifo.append(value)
        bisect.insort(self._sorted, value)
        if len(self._fifo) > self._capacity:
            oldest = self._fifo.popleft()
            idx = bisect.bisect_left(self._sorted, oldest)
            self._sorted.pop(idx)

    def values(self) -> list[float]:
        """Retained observations in ascending order (a copy)."""
        return list(self._sorted)

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile over retained observations."""
        if not self._sorted:
            raise ValidationError(f"histogram {self.name!r} is empty")
        if not 0.0 <= q <= 100.0:
            raise ValidationError(f"q must be in [0, 100], got {q}")
        if len(self._sorted) == 1:
            return self._sorted[0]
        rank = (q / 100.0) * (len(self._sorted) - 1)
        low = int(rank)
        frac = rank - low
        if low + 1 >= len(self._sorted):
            return self._sorted[-1]
        return self._sorted[low] * (1 - frac) + self._sorted[low + 1] * frac

    def summary(self) -> SummaryStats:
        """Summary statistics over retained observations."""
        return summarize(self._sorted)

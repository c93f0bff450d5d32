"""A small time-series container shared by telemetry and the benches.

Samples are ``(timestamp, value)`` pairs on the simulation clock.  The
container supports windowed queries ("all response times in the last 30
simulated seconds"), resampling into fixed-width buckets for plotting
series like Fig 4.6, and summary statistics.
"""

from __future__ import annotations

import bisect
from array import array
from itertools import islice
from operator import le
from typing import Iterator

from repro.errors import StatisticsError
from repro.stats.descriptive import SummaryStats, summarize


class TimeSeries:
    """Append-mostly sequence of timestamped float samples.

    Timestamps may arrive slightly out of order (parallel simulated
    services); an insertion sort via :mod:`bisect` keeps the series
    ordered so window queries stay O(log n + k).

    Storage is a pair of ``array('d')`` columns — 8 bytes per sample
    rather than a boxed float object — which is what lets the million-user
    benchmark hold tens of millions of samples in memory.  Because the
    insertion sort is stable (``bisect_right`` places a sample after any
    equal timestamps), the series content is exactly the stable
    timestamp-sort of the append sequence; :meth:`extend_columns` exploits
    that to bulk-load sorted chunks at C speed while staying equivalent to
    repeated :meth:`append`.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._times: array = array("d")
        self._values: array = array("d")

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(zip(self._times, self._values))

    def append(self, timestamp: float, value: float) -> None:
        """Add a sample, keeping the series ordered by timestamp."""
        timestamp = float(timestamp)
        value = float(value)
        if not self._times or timestamp >= self._times[-1]:
            self._times.append(timestamp)
            self._values.append(value)
            return
        idx = bisect.bisect_right(self._times, timestamp)
        self._times.insert(idx, timestamp)
        self._values.insert(idx, value)

    def extend_columns(self, times, values) -> None:
        """Append many samples given as parallel columns.

        Equivalent to appending each sample in order — the final series
        is the same stable timestamp-sort either way — but sorts the chunk
        first (stable numpy argsort, skipped when one O(n) pass finds the
        times already ascending), so everything past the usually tiny
        out-of-order prefix lands via ``frombytes`` with no per-sample
        work and no intermediate copy.  Plain lists (times may also be an
        ``array('d')``) that are already ascending and start at or after
        the series tail need neither sort nor insertion and skip numpy: a
        24-sample flush (one fleet slot) costs less than converting it.
        """
        if (
            type(values) is list
            and (type(times) is list or type(times) is array and times.typecode == "d")
            and len(times) == len(values)
            and times
            and (not self._times or times[0] >= self._times[-1])
            and all(map(le, times, islice(times, 1, None)))
        ):
            # Convert both columns before either grows: a bad value raises
            # here and leaves the series as it was.
            values = array("d", values)
            if type(times) is list:
                times = array("d", times)
            self._times.extend(times)
            self._values.extend(values)
            return
        import numpy as np

        times = np.ascontiguousarray(times, dtype=np.float64)
        values = np.ascontiguousarray(values, dtype=np.float64)
        if len(times) != len(values):
            raise StatisticsError(
                f"column lengths differ: {len(times)} times, {len(values)} values"
            )
        if len(times) == 0:
            return
        if not (times[1:] >= times[:-1]).all():
            order = np.argsort(times, kind="stable")
            times = times[order]
            values = values[order]
        if self._times:
            last = self._times[-1]
            if times[0] < last:
                prefix = int(np.searchsorted(times, last, side="left"))
                for i in range(prefix):
                    self.append(float(times[i]), float(values[i]))
                times = times[prefix:]
                values = values[prefix:]
                if len(times) == 0:
                    return
        self._times.frombytes(memoryview(times).cast("B"))
        self._values.frombytes(memoryview(values).cast("B"))

    @property
    def timestamps(self) -> list[float]:
        """All timestamps in ascending order (copy)."""
        return self._times.tolist()

    @property
    def values(self) -> list[float]:
        """All values, ordered by timestamp (copy)."""
        return self._values.tolist()

    @property
    def columns(self) -> tuple[array, array]:
        """The timestamp and value columns themselves (no copy: read only)."""
        return self._times, self._values

    def window(self, start: float, end: float) -> list[float]:
        """Values in the **half-open** window ``start <= timestamp < end``.

        The start boundary is included, the end boundary excluded — so
        adjacent windows ``[a, b)`` and ``[b, c)`` partition the series
        without double-counting a sample that lands exactly on ``b``.
        Every windowed consumer (``last``, :class:`MetricStore`
        aggregation, Bifrost check evaluation) inherits this convention.
        """
        return self._values[slice(*self._bounds(start, end))].tolist()

    def count(self, start: float, end: float) -> int:
        """How many samples :meth:`window` would return: two bisects."""
        lo, hi = self._bounds(start, end)
        return hi - lo

    def _bounds(self, start: float, end: float) -> tuple[int, int]:
        if end < start:
            raise StatisticsError(f"window end {end} precedes start {start}")
        return bisect.bisect_left(self._times, start), bisect.bisect_left(self._times, end)

    def ones(self, name: str) -> "TimeSeries":
        """A new series on this one's timestamps with every value 1.0 (the
        series of events this one measures, so a windowed count counts them)."""
        derived = TimeSeries(name)
        derived._times = array("d", self._times)
        derived._values = array("d", [1.0]) * len(self._times)
        return derived

    def last(self, duration: float, now: float) -> list[float]:
        """Values in the trailing half-open window ``[now - duration, now)``.

        A sample stamped exactly *now* is **excluded** (it belongs to the
        next window); one stamped exactly ``now - duration`` is included.
        """
        return self.window(now - duration, now)

    def resample(self, bucket_width: float) -> list[tuple[float, float]]:
        """Average values into fixed-width buckets.

        Returns ``(bucket_start, mean_value)`` pairs for every non-empty
        bucket — the representation used to plot moving-average response
        times (Fig 4.6).
        """
        if bucket_width <= 0:
            raise StatisticsError("bucket_width must be positive")
        if not self._times:
            return []
        out: list[tuple[float, float]] = []
        origin = self._times[0]
        bucket_idx = 0
        acc = 0.0
        count = 0
        for ts, value in zip(self._times, self._values):
            idx = int((ts - origin) // bucket_width)
            if idx != bucket_idx and count:
                out.append((origin + bucket_idx * bucket_width, acc / count))
                acc, count = 0.0, 0
            bucket_idx = idx
            acc += value
            count += 1
        if count:
            out.append((origin + bucket_idx * bucket_width, acc / count))
        return out

    def summary(self) -> SummaryStats:
        """Summary statistics over all values."""
        return summarize(self._values)

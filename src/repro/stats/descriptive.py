"""Descriptive statistics used throughout experiment health evaluation.

Bifrost checks (Chapter 4) compare windowed aggregates of runtime metrics
(mean/median/percentile response times) against thresholds, and the
evaluation chapters report summary tables such as Table 4.1.  The helpers
here are thin, well-tested wrappers that accept any iterable of numbers and
fail loudly on empty input instead of silently producing NaNs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.errors import StatisticsError


def _as_list(values: Iterable[float], context: str) -> list[float]:
    data = [float(v) for v in values]
    if not data:
        raise StatisticsError(f"{context} requires at least one value")
    return data


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean of *values*.

    Raises :class:`StatisticsError` on empty input.
    """
    data = _as_list(values, "mean")
    return sum(data) / len(data)


def median(values: Iterable[float]) -> float:
    """Median of *values* (average of the two middle items for even n)."""
    return sorted_median(sorted(_as_list(values, "median")))


def sorted_median(data: list[float]) -> float:
    """:func:`median` of an already-sorted, non-empty list of floats."""
    n = len(data)
    mid = n // 2
    if n % 2 == 1:
        return data[mid]
    return (data[mid - 1] + data[mid]) / 2.0


def stddev(values: Iterable[float], ddof: int = 1) -> float:
    """Standard deviation of *values*.

    Uses the sample standard deviation (``ddof=1``) by default; a single
    observation therefore yields 0.0 rather than a division by zero.
    """
    data = _as_list(values, "stddev")
    n = len(data)
    if n - ddof <= 0:
        return 0.0
    mu = sum(data) / n
    var = sum((x - mu) ** 2 for x in data) / (n - ddof)
    return math.sqrt(var)


def percentile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` (0..100) of *values*."""
    if not 0.0 <= q <= 100.0:
        raise StatisticsError(f"percentile q must be in [0, 100], got {q}")
    return sorted_percentile(sorted(_as_list(values, "percentile")), q)


def sorted_percentile(data: list[float], q: float) -> float:
    """:func:`percentile` of an already-sorted, non-empty list of floats."""
    if len(data) == 1:
        return data[0]
    rank = (q / 100.0) * (len(data) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return data[low]
    frac = rank - low
    return data[low] * (1.0 - frac) + data[high] * frac


@dataclass(frozen=True)
class SummaryStats:
    """Five-number-style summary of a metric sample (cf. Table 4.1)."""

    count: int
    mean: float
    std: float
    minimum: float
    p25: float
    median: float
    p75: float
    p95: float
    p99: float
    maximum: float

    def as_row(self) -> dict[str, float]:
        """Return the summary as a flat dict suitable for table printing."""
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "p25": self.p25,
            "median": self.median,
            "p75": self.p75,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.maximum,
        }


def summarize(values: Iterable[float]) -> SummaryStats:
    """Compute a :class:`SummaryStats` for *values*."""
    data = _as_list(values, "summarize")
    return SummaryStats(
        count=len(data),
        mean=mean(data),
        std=stddev(data),
        minimum=min(data),
        p25=percentile(data, 25),
        median=median(data),
        p75=percentile(data, 75),
        p95=percentile(data, 95),
        p99=percentile(data, 99),
        maximum=max(data),
    )

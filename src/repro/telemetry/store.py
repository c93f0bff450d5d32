"""The windowed metric store Bifrost checks read from.

Samples are timestamped on the shared simulation clock and keyed by
(service, version, metric).  Checks ask questions like "mean response_time
of catalog v2.0.0 over the last 30 s" — :meth:`MetricStore.aggregate`
answers them.

``throughput`` (1.0 per request, so a windowed count is requests served)
is not stored: it is read from ``response_time``'s time column, which has
exactly one sample per span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ValidationError
from repro.stats.descriptive import sorted_median, sorted_percentile
from repro.stats.timeseries import TimeSeries


@dataclass(frozen=True, order=True)
class MetricKey:
    """Identity of one metric stream."""

    service: str
    version: str
    metric: str

    def __str__(self) -> str:
        return f"{self.service}@{self.version}/{self.metric}"


#: The derived metric, and the stored one it is read from.
_THROUGHPUT, _TIMED = "throughput", "response_time"

# Over a window's own list of floats, so no per-element copy: the same
# arithmetic as repro.stats.descriptive, bit for bit.
_AGGREGATIONS: dict[str, Callable[[list[float]], float]] = {
    "mean": lambda xs: sum(xs) / len(xs),
    "median": lambda xs: sorted_median(sorted(xs)),
    "min": min,
    "max": max,
    "sum": sum,
    "count": lambda xs: float(len(xs)),
    "p90": lambda xs: sorted_percentile(sorted(xs), 90),
    "p95": lambda xs: sorted_percentile(sorted(xs), 95),
    "p99": lambda xs: sorted_percentile(sorted(xs), 99),
}


def supported_aggregations() -> list[str]:
    """Names of aggregation functions checks may reference."""
    return sorted(_AGGREGATIONS)


def aggregate_values(aggregation: str, values: list[float]) -> float | None:
    """Apply one named aggregation to already-fetched values.

    The windowless half of :meth:`MetricStore.aggregate`, for callers
    (like the check evaluator) that need the raw window values too —
    e.g. to report a sample count — without fetching the window twice.
    None when *values* (a list of floats) is empty, same as an empty window.
    """
    if aggregation not in _AGGREGATIONS:
        raise ValidationError(
            f"unknown aggregation {aggregation!r}; "
            f"supported: {supported_aggregations()}"
        )
    if not values:
        return None
    return float(_AGGREGATIONS[aggregation](values))


class MetricStore:
    """Timestamped samples per :class:`MetricKey` with windowed aggregation
    (held under plain tuple keys, which hash at C speed)."""

    def __init__(self) -> None:
        self._series: dict[tuple[str, str, str], TimeSeries] = {}

    def _open(self, service: str, version: str, metric: str) -> TimeSeries:
        key = (service, version, metric)
        series = self._series.get(key)
        if series is None:
            if metric == _THROUGHPUT:
                raise ValidationError(
                    f"{MetricKey(*key)} is derived from response_time; record that"
                )
            series = self._series[key] = TimeSeries(str(MetricKey(*key)))
        return series

    def record(
        self, service: str, version: str, metric: str, timestamp: float, value: float
    ) -> None:
        """Record one sample — the one-sample convenience over the same
        columns :meth:`extend_columns` lands in bulk."""
        self._open(service, version, metric).append(timestamp, value)

    def extend_columns(
        self, service: str, version: str, metric: str, times, values
    ) -> None:
        """Bulk-record parallel columns for one key: one key lookup for
        the lot.  Equivalent to calling :meth:`record` per sample, in
        order (see :meth:`TimeSeries.extend_columns` for why)."""
        self._open(service, version, metric).extend_columns(times, values)

    def keys(self) -> list[MetricKey]:
        """All metric keys with at least one sample, ``throughput`` beside
        every ``response_time``."""
        return [MetricKey(*key) for key in self._keys()]

    def _keys(self) -> list[tuple[str, str, str]]:
        keys = list(self._series)
        keys += [(s, v, _THROUGHPUT) for (s, v, m), t in self._series.items() if m == _TIMED and t]
        return sorted(keys)

    def series(self, service: str, version: str, metric: str) -> TimeSeries:
        """The raw time series for a key (empty series if absent); for
        ``throughput`` a new series of 1.0s on ``response_time``'s times."""
        if metric == _THROUGHPUT:
            name = str(MetricKey(service, version, metric))
            return self.series(service, version, _TIMED).ones(name)
        series = self._series.get((service, version, metric))
        if series is None:
            return TimeSeries(str(MetricKey(service, version, metric)))
        return series

    def values_in_window(
        self,
        service: str,
        version: str,
        metric: str,
        start: float,
        end: float,
    ) -> list[float]:
        """All sample values in the **half-open** window ``start <= t < end``.

        Samples on the start boundary are included, samples on the end
        boundary excluded (see :meth:`TimeSeries.window`) — adjacent
        windows therefore never double-count a boundary sample.
        """
        if metric == _THROUGHPUT:
            return [1.0] * self.series(service, version, _TIMED).count(start, end)
        return self.series(service, version, metric).window(start, end)

    def aggregate(
        self,
        service: str,
        version: str,
        metric: str,
        aggregation: str,
        start: float,
        end: float,
    ) -> float | None:
        """Apply *aggregation* to the window; None when the window is empty.

        An empty window is a meaningful outcome (the check is
        *inconclusive*, cf. Section 4.3.2), not an error.
        """
        if metric == _THROUGHPUT and aggregation == "count":
            served = self.series(service, version, _TIMED).count(start, end)
            return float(served) if served else None
        return aggregate_values(
            aggregation,
            self.values_in_window(service, version, metric, start, end),
        )

    def snapshot(self) -> dict:
        """JSON-compatible dump of every series, for durability checkpoints."""
        return {
            "series": [
                {
                    "service": service,
                    "version": version,
                    "metric": metric,
                    "samples": [[ts, value] for ts, value in self.series(service, version, metric)],
                }
                for service, version, metric in self._keys()
            ]
        }

    def restore(self, data: dict) -> None:
        """Replace all contents with a :meth:`snapshot` dump.

        Raises :class:`ValidationError` on a malformed document, or one
        whose ``throughput`` entries are not its ``response_time`` times,
        so a corrupt checkpoint surfaces during recovery, not as a later
        aggregation error.
        """
        try:
            entries = [
                (
                    str(entry["service"]),
                    str(entry["version"]),
                    str(entry["metric"]),
                    [float(ts) for ts, _ in entry["samples"]],
                    [float(value) for _, value in entry["samples"]],
                )
                for entry in data["series"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed metric snapshot: {exc}") from exc
        restored = MetricStore()
        for service, version, metric, times, values in entries:
            if times and metric != _THROUGHPUT:
                restored.extend_columns(service, version, metric, times, values)
        claimed = {(s, v): (t, x) for s, v, m, t, x in entries if m == _THROUGHPUT and t}
        derived = {
            (s, v): (series.timestamps, [1.0] * len(series))
            for (s, v, m), series in restored._series.items() if m == _TIMED and series
        }
        if claimed != derived:
            raise ValidationError("malformed metric snapshot: throughput is not response_time's")
        self._series = restored._series

"""Monitors: the bridge from the runtime to the metric store.

Every completed span becomes the standard application-level metrics the
dissertation's checks consume: ``response_time`` (ms), ``error`` (0/1 per
request, so a windowed mean is the error rate), and ``throughput`` (1 per
request, so a windowed count is requests served).  A
:class:`SpanSampleBuffer` is their one writer; a :class:`Monitor` owns
the store and reads them back.

Resilience events (retries, timeouts, fallbacks, breaker transitions)
are recorded as ``resilience.<kind>`` count metrics per (service,
version), so Bifrost checks and trace analysis can reason about them
with the same windowed aggregations as any other metric.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.telemetry.store import MetricStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.microservices.resilience import ResilienceEvent


#: Keys with up to this many buffered samples (a fleet slot has 24) flush as
#: plain lists; longer ones (a batch slice has ~10^5) convert the start column
#: their three metrics share once, which numpy's per-call cost then repays.
_LIST_FLUSH_MAX = 64


class SpanSampleBuffer:
    """Span samples on their way to a store, as per-(service, version) columns.

    The one writer of the ``response_time``/``error``/``throughput`` triple
    for every simulated driver (batch slices, ``Runtime.execute`` and ``replay``,
    REPLAY, the fleet feed): :meth:`add` samples, or append to a key's
    :meth:`columns` in place, then :meth:`flush`.  Per key the store ends
    up exactly as if every sample had been recorded one at a time, in
    order.
    """

    def __init__(self) -> None:
        self._columns: dict[tuple[str, str], tuple[list, list, list]] = {}

    def columns(self, service: str, version: str) -> tuple[list, list, list]:
        """The key's parallel (starts, durations ms, errors) lists."""
        return self._columns.setdefault((service, version), ([], [], []))

    def add(
        self, service: str, version: str, start: float, duration_ms: float, error
    ) -> None:
        """Buffer one span's sample."""
        starts, durations, errors = self.columns(service, version)
        starts.append(start)
        durations.append(duration_ms)
        errors.append(error)

    def add_spans(self, spans) -> None:
        """Buffer every span's sample, in order."""
        for span in spans:
            self.add(span.service, span.version, span.start, span.duration_ms, span.error)

    def flush(self, store: MetricStore) -> None:
        """Land every buffered sample in *store* and empty the buffer."""
        for (service, version), (starts, durations, errors) in self._columns.items():
            count = len(starts)
            if not count:
                continue
            if count > _LIST_FLUSH_MAX:
                times, ones = np.asarray(starts, dtype=np.float64), np.ones(count)
            else:
                times, ones = starts, [1.0] * count
            store.extend_columns(service, version, "response_time", times, durations)
            store.extend_columns(service, version, "error", times, errors)
            store.extend_columns(service, version, "throughput", times, ones)
            starts.clear()
            durations.clear()
            errors.clear()


class Monitor:
    """Per-service-version metrics: the store, resilience and durability
    writers, and the windowed reads checks use."""

    def __init__(self, store: MetricStore | None = None) -> None:
        self.store = store or MetricStore()

    def observe_resilience(self, event: "ResilienceEvent") -> None:
        """Record one resilience event as a count metric sample.

        Events carrying a version are recorded under that real version,
        so per-version queries of ``resilience.<kind>`` see them.  Only
        events with *no* version (breaker transitions observed outside
        any request, for example) fall back to the ``"*"`` wildcard
        version — those are invisible to per-version queries by design.
        """
        version = event.version if event.version else "*"
        self.store.record(
            event.service,
            version,
            f"resilience.{event.kind}",
            event.time,
            1.0,
        )

    def observe_durability(self, kind: str, time: float, value: float = 1.0) -> None:
        """Record one engine-durability event (crash, restart, recovery).

        Durability events describe the *experiment infrastructure* rather
        than a service version, so they are recorded under the synthetic
        ``("bifrost", "engine")`` key as ``durability.<kind>`` metrics —
        queryable with the same windowed aggregations as everything else.
        """
        self.store.record("bifrost", "engine", f"durability.{kind}", time, value)

    def durability_count(self, kind: str, start: float, end: float) -> float:
        """How many ``durability.<kind>`` events fell in the window."""
        value = self.store.aggregate(
            "bifrost", "engine", f"durability.{kind}", "count", start, end
        )
        return value or 0.0

    def error_rate(
        self, service: str, version: str, start: float, end: float
    ) -> float | None:
        """Fraction of failed requests in the window (None if no traffic)."""
        return self.store.aggregate(service, version, "error", "mean", start, end)

    def mean_response_time(
        self, service: str, version: str, start: float, end: float
    ) -> float | None:
        """Mean response time in ms over the window (None if no traffic)."""
        return self.store.aggregate(
            service, version, "response_time", "mean", start, end
        )

    def throughput(
        self, service: str, version: str, start: float, end: float
    ) -> float:
        """Requests served in the window."""
        value = self.store.aggregate(
            service, version, "throughput", "count", start, end
        )
        return value or 0.0

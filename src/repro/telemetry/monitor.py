"""Monitors: the bridge from the runtime to the metric store.

Every completed span becomes the standard application-level metrics the
dissertation's checks consume: ``response_time`` (ms), ``error`` (0/1 per
request, so a windowed mean is the error rate), and ``throughput`` (1 per
request, so a windowed count is requests served; the store reads it from
``response_time``'s times instead of storing it).  A
:class:`SpanSampleBuffer` is the one writer of the stored pair; a
:class:`Monitor` owns the store and reads all three back.

Resilience events (retries, fallbacks, breaker transitions) are
recorded as ``resilience.<kind>`` count metrics per (service,
version), so Bifrost checks and trace analysis can reason about them
with the same windowed aggregations as any other metric.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING

import numpy as np

from repro.telemetry.store import MetricStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.microservices.resilience import ResilienceEvent


#: A key's list-only samples, up to this many (a fleet slot has 24), land
#: with their start column as one ``array('d')`` shared by both metrics and
#: no numpy call; above it (a batch slice has ~10^5) they take numpy's sort.
_LIST_FLUSH_MAX = 64


class SpanSampleBuffer:
    """Span samples on their way to a store, as per-(service, version) columns.

    The one writer of the ``response_time``/``error`` pair for every driver
    (batch slices, ``Runtime.execute`` and ``Bifrost.run``, REPLAY, LIVE,
    the fleet feed): :meth:`add` samples, append to a key's :meth:`columns`
    in place, or hand over numpy blocks with :meth:`add_columns`, then
    :meth:`flush`.  Per key the store ends up exactly as if every sample
    had been recorded one at a time, in order.
    """

    def __init__(self) -> None:
        self._columns: dict[tuple[str, str], tuple[list, list, list]] = {}
        # Per key, numpy (starts, durations, errors) blocks in arrival
        # order, ahead of whatever its lists hold.
        self._chunks: dict[tuple[str, str], list[tuple]] = {}

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

    def add_columns(
        self, service: str, version: str, starts, durations, errors
    ) -> None:
        """Buffer a block of samples given as numpy columns (held, not copied)."""
        pending = self.columns(service, version)
        chunks = self._chunks.setdefault((service, version), [])
        if pending[0]:
            # Samples added one at a time before this block land before it.
            chunks.append(tuple(np.array(column) for column in pending))
            for column in pending:
                column.clear()
        chunks.append((starts, durations, errors))

    def flush(self, store: MetricStore) -> None:
        """Land every buffered sample in *store* and empty the buffer: per
        key one stable sort by start, whose times both metrics share."""
        for key, pending in self._columns.items():
            chunks = self._chunks.pop(key, [])
            starts, durations, errors = pending
            if not chunks and len(starts) <= _LIST_FLUSH_MAX:
                if not starts:
                    continue
                times = array("d", starts)
            else:
                if starts:
                    chunks.append(pending)
                starts, durations, errors = (
                    np.concatenate([chunk[i] for chunk in chunks]) for i in range(3)
                )
                order = np.argsort(starts, kind="stable")
                times, durations, errors = starts[order], durations[order], errors[order]
            store.extend_columns(*key, "response_time", times, durations)
            store.extend_columns(*key, "error", times, errors)
            for column in pending:
                column.clear()


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

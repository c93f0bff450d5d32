"""The trace collector: in-memory span ingestion and trace assembly.

Beyond batch assembly (:meth:`TraceCollector.traces`), the collector is a
*stream source*: subscribers are notified whenever a trace becomes
assemblable (and again when an already-complete trace grows, e.g. by
late-arriving dark-launch duplicates), which is what the streaming
topology pipeline (:mod:`repro.topology.streaming`) builds on.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ValidationError
from repro.tracing.span import Span
from repro.tracing.trace import Trace

#: Default bound of the eviction-tombstone set when the collector itself
#: is unbounded in capacity terms (see :class:`TraceCollector`).
DEFAULT_TOMBSTONES = 1024


@dataclass
class _BucketState:
    """Incremental assembly bookkeeping of one trace bucket.

    Maintained per recorded span so completion detection is O(1) per
    span instead of an O(n) assembly attempt: a bucket is *assemblable*
    when it has exactly one root, no unresolved parent references, and
    no duplicate span ids.
    """

    span_ids: set[str] = field(default_factory=set)
    missing_parents: set[str] = field(default_factory=set)
    roots: int = 0
    duplicate: bool = False

    def add(self, span: Span) -> None:
        if span.span_id in self.span_ids:
            self.duplicate = True
            return
        self.span_ids.add(span.span_id)
        self.missing_parents.discard(span.span_id)
        if span.parent_id is None:
            self.roots += 1
        elif span.parent_id not in self.span_ids:
            self.missing_parents.add(span.parent_id)

    @property
    def assemblable(self) -> bool:
        return self.roots == 1 and not self.missing_parents and not self.duplicate


class TraceCollector:
    """Collects spans as services emit them and assembles traces on demand.

    Spans may arrive in any order (children before parents happens with
    real tracers too); assembly validates tree structure lazily.

    With a *capacity*, the oldest trace is evicted FIFO when a new trace
    would exceed the bound.  Evicted trace ids are remembered in a
    bounded tombstone set so a late span of an evicted trace is dropped
    (counted on :attr:`late_spans_dropped`) instead of resurrecting the
    trace as a rootless partial bucket that would poison later assembly.
    """

    def __init__(
        self, capacity: int | None = None, tombstones: int | None = None
    ) -> None:
        """*capacity* bounds the number of retained traces (FIFO eviction);
        *tombstones* bounds the evicted-id memory (defaults to 4× the
        capacity, or :data:`DEFAULT_TOMBSTONES` when unbounded)."""
        if capacity is not None and capacity <= 0:
            raise ValidationError("capacity must be positive when given")
        if tombstones is not None and tombstones <= 0:
            raise ValidationError("tombstones must be positive when given")
        self._spans_by_trace: dict[str, list[Span]] = {}
        self._assembly: dict[str, _BucketState] = {}
        self._capacity = capacity
        self._tombstone_capacity = tombstones or (
            capacity * 4 if capacity is not None else DEFAULT_TOMBSTONES
        )
        self._tombstones: OrderedDict[str, None] = OrderedDict()
        # Imported lazily: repro.telemetry.monitor imports repro.tracing,
        # so a module-level import here would cycle during package init.
        from repro.telemetry.metrics import Counter

        self.late_spans_dropped = Counter("tracing.late_spans_dropped")
        self._complete_subscribers: list[Callable[[Trace], None]] = []
        self._evict_subscribers: list[Callable[[str], None]] = []

    # -- streaming subscriptions ------------------------------------------

    def subscribe(
        self,
        on_complete: Callable[[Trace], None],
        on_evict: Callable[[str], None] | None = None,
    ) -> None:
        """Register a trace-stream subscriber.

        *on_complete* receives every trace that becomes assemblable — and
        receives the trace again, re-assembled, when more spans arrive
        for it later (subscribers must treat notifications as cumulative
        snapshots, not deltas).  *on_evict* receives the trace id when a
        trace is evicted under the capacity bound.
        """
        self._complete_subscribers.append(on_complete)
        if on_evict is not None:
            self._evict_subscribers.append(on_evict)

    @property
    def has_subscribers(self) -> bool:
        """Whether any stream subscriber is attached.

        The batch execution kernel checks this once per slice: it
        materializes spans and feeds :meth:`record_trace` exactly while
        subscribers are present, so the streaming pipeline is never
        starved.
        """
        return bool(self._complete_subscribers or self._evict_subscribers)

    def _notify_complete(self, trace_id: str) -> None:
        if not self._complete_subscribers:
            return
        state = self._assembly.get(trace_id)
        if state is None or not state.assemblable:
            return
        trace = Trace(trace_id, self._spans_by_trace[trace_id])
        for subscriber in self._complete_subscribers:
            subscriber(trace)

    # -- ingestion ---------------------------------------------------------

    def record(self, span: Span) -> None:
        """Ingest one span (dropping late spans of evicted traces)."""
        self._ingest(span)
        self._notify_complete(span.trace_id)

    def record_all(self, spans: list[Span]) -> None:
        """Ingest many spans, notifying completion once per touched trace."""
        touched: dict[str, None] = {}
        for span in spans:
            self._ingest(span)
            touched[span.trace_id] = None
        for trace_id in touched:
            self._notify_complete(trace_id)

    def record_trace(self, trace_id: str, spans: list[Span]) -> None:
        """Bulk-ingest spans known to belong to one trace.

        Equivalent to :meth:`record_all` on the same spans (same eviction,
        tombstone, and notification behavior) but skips the per-span
        trace-id grouping — the batch execution kernel emits whole traces
        at once, so the grouping is already known.
        """
        if trace_id in self._tombstones:
            for _ in spans:
                self.late_spans_dropped.increment()
            return
        if not spans:
            return
        bucket = self._spans_by_trace.setdefault(trace_id, [])
        state = self._assembly.setdefault(trace_id, _BucketState())
        bucket.extend(spans)
        for span in spans:
            state.add(span)
        if self._capacity is not None and len(self._spans_by_trace) > self._capacity:
            oldest = next(iter(self._spans_by_trace))
            self._evict(oldest)
            if oldest == trace_id:
                return
        self._notify_complete(trace_id)

    def _ingest(self, span: Span) -> None:
        if span.trace_id in self._tombstones:
            self.late_spans_dropped.increment()
            return
        bucket = self._spans_by_trace.setdefault(span.trace_id, [])
        bucket.append(span)
        self._assembly.setdefault(span.trace_id, _BucketState()).add(span)
        if self._capacity is not None and len(self._spans_by_trace) > self._capacity:
            oldest = next(iter(self._spans_by_trace))
            self._evict(oldest)

    def _evict(self, trace_id: str) -> None:
        del self._spans_by_trace[trace_id]
        self._assembly.pop(trace_id, None)
        self._tombstones[trace_id] = None
        while len(self._tombstones) > self._tombstone_capacity:
            self._tombstones.popitem(last=False)
        for subscriber in self._evict_subscribers:
            subscriber(trace_id)

    @property
    def trace_ids(self) -> list[str]:
        """Ids of all retained traces, in ingestion order."""
        return list(self._spans_by_trace)

    @property
    def evicted_ids(self) -> list[str]:
        """Remembered (tombstoned) evicted trace ids, oldest first."""
        return list(self._tombstones)

    def __len__(self) -> int:
        return len(self._spans_by_trace)

    def trace(self, trace_id: str) -> Trace:
        """Assemble the trace with the given id."""
        if trace_id not in self._spans_by_trace:
            raise ValidationError(f"no spans recorded for trace {trace_id!r}")
        return Trace(trace_id, self._spans_by_trace[trace_id])

    def traces(self, strict: bool = False) -> list[Trace]:
        """Assemble all retained traces.

        Buckets that do not assemble into a valid trace (rootless
        partials, unresolved parents, duplicate span ids) are *skipped*
        by default so one broken trace cannot take down a whole graph
        build; with ``strict=True`` they raise :class:`ValidationError`.
        """
        out: list[Trace] = []
        for trace_id in self._spans_by_trace:
            try:
                out.append(self.trace(trace_id))
            except ValidationError:
                if strict:
                    raise
        return out

    def clear(self) -> None:
        """Discard all retained spans (tombstones survive)."""
        self._spans_by_trace.clear()
        self._assembly.clear()

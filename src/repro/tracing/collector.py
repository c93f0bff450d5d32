"""The trace collector: each trace recorded whole, once.

Every producer hands the collector one request's spans at once
(:meth:`TraceCollector.record_trace`), under a trace id nothing else
uses.  The collector builds the :class:`~repro.tracing.trace.Trace`
(which validates the tree), keeps it, and notifies each subscriber once,
with that same object: the stream the streaming topology pipeline
(:mod:`repro.topology.streaming`) builds on.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ValidationError
from repro.telemetry.metrics import Counter
from repro.tracing.span import Span
from repro.tracing.trace import Trace


class TraceCollector:
    """Keeps every recorded trace, in recording order, and streams each
    one to the subscribers as it is recorded."""

    def __init__(self) -> None:
        self._traces: dict[str, Trace] = {}
        # No span is ever dropped, so this reads 0; the benchmark ledger
        # reports it.
        self.late_spans_dropped = Counter("tracing.late_spans_dropped")
        self._subscribers: list[Callable[[Trace], None]] = []
        self._column_subscribers: list[Callable[..., None]] | None = []

    # -- streaming subscriptions ------------------------------------------

    def subscribe(
        self,
        on_complete: Callable[[Trace], None],
        on_columns: Callable[..., None] | None = None,
    ) -> None:
        """Register a trace-stream subscriber.

        *on_complete* receives every trace once, when it is recorded.
        *on_columns* is the subscriber's column entry point (see
        :attr:`column_subscribers`).
        """
        self._subscribers.append(on_complete)
        if on_columns is None:
            self._column_subscribers = None
        elif self._column_subscribers is not None:
            self._column_subscribers.append(on_columns)

    @property
    def has_subscribers(self) -> bool:
        """Whether any stream subscriber is attached.

        The batch execution kernel checks this once per slice: while
        subscribers are present it hands :attr:`column_subscribers` its
        columns, or else builds spans and feeds :meth:`record_trace`.
        """
        return bool(self._subscribers)

    @property
    def column_subscribers(self) -> list[Callable[..., None]] | None:
        """The column entry points, while every subscriber has one: the
        columnar slice then records no trace and calls each per sub-block
        with ``(keys, rows, hops, starts, ends, ranks)`` — ``(service,
        version, endpoint)`` keys; per hop in (row, ``Trace.walk``) order
        its row, ``(caller, callee, duration, error)`` (keys as indexes, -1
        for an entry call) and start; each row's root end; per hop its
        completion rank (a row's spans, as a trace iterates them, are its
        hops in ascending rank)."""
        return self._column_subscribers or None

    # -- ingestion ---------------------------------------------------------

    def record(self, span: Span) -> None:
        """Record a trace of one span."""
        self.record_all([span])

    def record_all(self, spans: list[Span]) -> None:
        """Record *spans* as whole traces, one per trace id, in the order
        each id first appears."""
        by_trace: dict[str, list[Span]] = {}
        for span in spans:
            by_trace.setdefault(span.trace_id, []).append(span)
        for trace_id, trace_spans in by_trace.items():
            self.record_trace(trace_id, trace_spans)

    def record_trace(self, trace_id: str, spans: list[Span]) -> Trace:
        """Record the whole trace *trace_id* made of *spans*, notify every
        subscriber with it and return it.

        Raises :class:`ValidationError`, storing and notifying nothing,
        when the id is already recorded or the spans do not form one
        tree of that trace (see :class:`Trace`).
        """
        if trace_id in self._traces:
            raise ValidationError(f"trace {trace_id!r} is already recorded")
        trace = Trace(trace_id, spans)
        self._traces[trace_id] = trace
        for subscriber in self._subscribers:
            subscriber(trace)
        return trace

    def __len__(self) -> int:
        return len(self._traces)

    def trace(self, trace_id: str) -> Trace:
        """The trace recorded under *trace_id*."""
        try:
            return self._traces[trace_id]
        except KeyError:
            raise ValidationError(f"no spans recorded for trace {trace_id!r}") from None

    def traces(self) -> list[Trace]:
        """All recorded traces, in recording order."""
        return list(self._traces.values())

    def clear(self) -> None:
        """Discard all recorded traces."""
        self._traces.clear()

"""The bridge from the runtime to the metric store.

Every completed span becomes the standard application-level metrics the
dissertation's checks consume: ``response_time`` (ms), ``error`` (0/1 per
request, so a windowed mean is the error rate), and ``throughput`` (1 per
request, so a windowed count is requests served; the store reads it from
``response_time``'s times instead of storing it).  A
:class:`SpanSampleBuffer` is the one writer of the stored pair; the
runtime owns the store (``Runtime.store``), and checks read all three
back with ``MetricStore.aggregate``.
"""

from __future__ import annotations

from array import array

import numpy as np

from repro.telemetry.store import MetricStore


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

"""Query API over collected traces.

Chapter 5's tool extracts, per application variant, the traces belonging
to an experiment (or to the stable baseline) within a time window — the
"parameters for considered traces" in Fig 1.3.  :class:`TraceQuery` is a
small fluent filter over a :class:`TraceCollector`.
"""

from __future__ import annotations

from typing import Callable

from repro.tracing.collector import TraceCollector
from repro.tracing.trace import Trace


class TraceQuery:
    """Immutable, chainable trace filter."""

    def __init__(
        self,
        collector: TraceCollector,
        predicates: tuple[Callable[[Trace], bool], ...] = (),
    ) -> None:
        self._collector = collector
        self._predicates = predicates

    def _with(self, predicate: Callable[[Trace], bool]) -> "TraceQuery":
        return TraceQuery(self._collector, self._predicates + (predicate,))

    def in_window(self, start: float, end: float) -> "TraceQuery":
        """Keep traces whose root span starts within [start, end)."""
        return self._with(lambda t: start <= t.root.start < end)

    def entry(self, service: str, endpoint: str | None = None) -> "TraceQuery":
        """Keep traces entering through the given frontend service/endpoint."""
        def predicate(t: Trace) -> bool:
            if t.root.service != service:
                return False
            return endpoint is None or t.root.endpoint == endpoint

        return self._with(predicate)

    def run(self, limit: int | None = None) -> list[Trace]:
        """Execute the query and return matching traces."""
        out: list[Trace] = []
        for trace in self._collector.traces():
            if all(pred(trace) for pred in self._predicates):
                out.append(trace)
                if limit is not None and len(out) >= limit:
                    break
        return out

    def count(self) -> int:
        """Number of matching traces."""
        return len(self.run())

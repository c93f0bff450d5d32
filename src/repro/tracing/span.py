"""Spans: the atoms of distributed traces.

A span records one operation of one service version — which endpoint ran,
when, for how long, whether it failed, and which span caused it.  The
(service, version, endpoint) triple is exactly the node identity the
Chapter 5 interaction graphs are built from.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ValidationError

SpanId = str

_span_counter = itertools.count(1)


def next_span_id() -> SpanId:
    """Allocate a process-unique span id."""
    return f"s{next(_span_counter):010x}"


@dataclass(frozen=True)
class Span:
    """One timed operation within a trace.

    Attributes:
        span_id: unique id of this span.
        trace_id: id of the trace the span belongs to.
        parent_id: span id of the caller, or None for the root span.
        service: logical service name (e.g. ``"catalog"``).
        version: concrete deployed version (e.g. ``"1.4.0"``).
        endpoint: operation name within the service (e.g. ``"search"``).
        start: simulated start time in seconds.
        duration_ms: wall time of the operation in milliseconds.
        error: whether the operation failed.
        tags: free-form annotations (experiment name, user group, ...).
    """

    span_id: SpanId
    trace_id: str
    parent_id: SpanId | None
    service: str
    version: str
    endpoint: str
    start: float
    duration_ms: float
    error: bool = False
    tags: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.duration_ms < 0:
            raise ValidationError(
                f"span duration must be >= 0, got {self.duration_ms}"
            )
        if not self.service or not self.endpoint:
            raise ValidationError("span requires non-empty service and endpoint")

    @property
    def end(self) -> float:
        """Simulated end time in seconds."""
        return self.start + self.duration_ms / 1000.0

"""Traces: trees of spans describing one end-to-end request."""

from __future__ import annotations

from operator import attrgetter
from typing import Iterator

from repro.errors import ValidationError
from repro.tracing.span import Span, SpanId

_START = attrgetter("start")


class Trace:
    """All spans of one distributed request, indexed for tree traversal."""

    def __init__(self, trace_id: str, spans: list[Span]) -> None:
        if not spans:
            raise ValidationError(f"trace {trace_id!r} has no spans")
        self.trace_id = trace_id
        self._spans = by_id = {}
        self._children: dict[SpanId, list[Span]] = {}
        roots = []
        foreign = False
        for span in spans:
            foreign = foreign or span.trace_id != trace_id
            by_id[span.span_id] = span
            if span.parent_id is None:
                roots.append(span)
            else:
                self._children.setdefault(span.parent_id, []).append(span)
        if foreign:
            raise ValidationError(f"trace {trace_id!r} contains foreign spans")
        if len(by_id) != len(spans):
            raise ValidationError(f"trace {trace_id!r} has duplicate span ids")
        if len(roots) != 1:
            raise ValidationError(
                f"trace {trace_id!r} must have exactly one root span, "
                f"found {len(roots)}"
            )
        self._root = roots[0]
        if not by_id.keys() >= self._children.keys():
            orphan = next(s for s in spans if s.parent_id not in (None, *by_id))
            raise ValidationError(
                f"span {orphan.span_id} references unknown parent {orphan.parent_id}"
            )
        for children in self._children.values():
            children.sort(key=_START)

    def __len__(self) -> int:
        return len(self._spans)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._spans.values())

    @property
    def root(self) -> Span:
        """The entry span of the request."""
        return self._root

    @property
    def spans(self) -> list[Span]:
        """All spans (copy, unordered)."""
        return list(self._spans.values())

    def children(self, span_id: SpanId) -> list[Span]:
        """Direct child spans of *span_id*, ordered by start time."""
        return list(self._children.get(span_id, []))

    def walk(self) -> Iterator[tuple[Span, Span | None]]:
        """Yield (span, parent) pairs in depth-first pre-order."""
        stack: list[tuple[Span, Span | None]] = [(self._root, None)]
        while stack:
            span, parent = stack.pop()
            yield span, parent
            for child in reversed(self._children.get(span.span_id, ())):
                stack.append((child, span))

    @property
    def duration_ms(self) -> float:
        """End-to-end duration: the root span's duration."""
        return self._root.duration_ms

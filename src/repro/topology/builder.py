"""Building interaction graphs from distributed traces.

Equivalent to the paper's extraction from Jaeger/Zipkin: every span
becomes (or updates) a node, every parent→child span pair an edge.
Shadow (dark-launched) spans are always included — dark launches are
exactly the situations where the experimental topology diverges.

:func:`trace_observations` is the single source of truth for how a trace
translates into graph observations; the batch builder below and the
streaming builder (:mod:`repro.topology.streaming`) both consume it, so
the two are identical by construction.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from repro.topology.graph import InteractionGraph, NodeKey
from repro.tracing.trace import Trace


class Observation(NamedTuple):
    """One span's contribution to an interaction graph."""

    caller: NodeKey | None
    callee: NodeKey
    duration_ms: float
    error: bool
    start: float


def trace_observations(trace: Trace) -> list[Observation]:
    """Extract *trace*'s graph observations in depth-first walk order."""
    out: list[Observation] = []
    keys: dict[str, NodeKey] = {}  # span id -> its node key, built once
    for span, parent in trace.walk():
        key = keys[span.span_id] = NodeKey(span.service, span.version, span.endpoint)
        caller = keys[parent.span_id] if parent is not None else None
        out.append(Observation(caller, key, span.duration_ms, span.error, span.start))
    return out


def build_interaction_graph(
    traces: Iterable[Trace], name: str = "graph"
) -> InteractionGraph:
    """Aggregate *traces* into an :class:`InteractionGraph`.

    Args:
        traces: the traces to aggregate (e.g. from a
            :class:`~repro.tracing.query.TraceQuery`).
        name: a label for the resulting graph.
    """
    graph = InteractionGraph(name)
    for trace in traces:
        for obs in trace_observations(trace):
            graph.observe_call(obs.caller, obs.callee, obs.duration_ms, obs.error)
    return graph

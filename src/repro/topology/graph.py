"""Interaction graphs (Section 5.4.2).

Nodes denote *endpoints of services in specific versions*; edges denote
observed calls between them.  Both carry aggregate runtime statistics
(call counts, response times, errors) extracted from traces, which the
response-time heuristic consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from repro.errors import TopologyError


class NodeKey(NamedTuple):
    """Identity of an interaction-graph node."""

    service: str
    version: str
    endpoint: str

    @property
    def service_endpoint(self) -> tuple[str, str]:
        """The version-agnostic (service, endpoint) identity."""
        return (self.service, self.endpoint)

    def __str__(self) -> str:
        return f"{self.service}@{self.version}/{self.endpoint}"


@dataclass
class NodeStats:
    """Aggregate runtime behaviour of one node."""

    calls: int = 0
    errors: int = 0
    total_response_ms: float = 0.0

    def observe(self, duration_ms: float, error: bool) -> None:
        """Fold in one observed call."""
        self.calls += 1
        self.total_response_ms += duration_ms
        if error:
            self.errors += 1

    @property
    def mean_response_ms(self) -> float:
        """Mean response time across observed calls (0 when unobserved)."""
        return self.total_response_ms / self.calls if self.calls else 0.0


@dataclass
class EdgeStats:
    """Aggregate behaviour of one caller→callee edge."""

    calls: int = 0
    errors: int = 0
    total_response_ms: float = 0.0

    def observe(self, duration_ms: float, error: bool) -> None:
        """Fold in one observed call over this edge."""
        self.calls += 1
        self.total_response_ms += duration_ms
        if error:
            self.errors += 1


@dataclass
class InteractionGraph:
    """A directed multigraph of service-version-endpoint interactions."""

    name: str = "graph"
    _nodes: dict[NodeKey, NodeStats] = field(default_factory=dict)
    _succ: dict[NodeKey, dict[NodeKey, EdgeStats]] = field(default_factory=dict)
    _pred: dict[NodeKey, set[NodeKey]] = field(default_factory=dict)
    #: ``(caller, callee)`` -> (callee's node stats, edge stats or None):
    #: records are never replaced, so the pair resolves once.
    _observed: dict = field(default_factory=dict, compare=False, repr=False)

    # -- construction --------------------------------------------------------

    def add_node(self, key: NodeKey) -> NodeStats:
        """Ensure *key* exists; return its stats record."""
        stats = self._nodes.get(key)
        if stats is None:
            stats = NodeStats()
            self._nodes[key] = stats
            self._succ.setdefault(key, {})
            self._pred.setdefault(key, set())
        return stats

    def add_edge(self, caller: NodeKey, callee: NodeKey) -> EdgeStats:
        """Ensure the caller→callee edge exists; return its stats record."""
        self.add_node(caller)
        self.add_node(callee)
        edges = self._succ[caller]
        stats = edges.get(callee)
        if stats is None:
            stats = EdgeStats()
            edges[callee] = stats
            self._pred[callee].add(caller)
        return stats

    def records(self, caller: NodeKey | None, callee: NodeKey) -> tuple:
        """The (node stats, edge stats or None) one call updates, both
        registered on the pair's first call."""
        records = self._observed.get((caller, callee))
        if records is None:
            node = self.add_node(callee)
            edge = None if caller is None else self.add_edge(caller, callee)
            records = self._observed[caller, callee] = (node, edge)
        return records

    def observe_call(
        self,
        caller: NodeKey | None,
        callee: NodeKey,
        duration_ms: float,
        error: bool,
    ) -> None:
        """Record one observed call (caller None for entry requests)."""
        node, edge = self._observed.get((caller, callee)) or self.records(caller, callee)
        node.observe(duration_ms, error)
        if edge is not None:
            edge.observe(duration_ms, error)

    # -- queries --------------------------------------------------------------

    @property
    def nodes(self) -> list[NodeKey]:
        """All node keys."""
        return list(self._nodes)

    @property
    def node_count(self) -> int:
        """Number of nodes."""
        return len(self._nodes)

    def has_node(self, key: NodeKey) -> bool:
        """Whether *key* exists."""
        return key in self._nodes

    def has_edge(self, caller: NodeKey, callee: NodeKey) -> bool:
        """Whether the edge exists."""
        return callee in self._succ.get(caller, {})

    def node_stats(self, key: NodeKey) -> NodeStats:
        """Stats of node *key*."""
        try:
            return self._nodes[key]
        except KeyError:
            raise TopologyError(f"graph {self.name!r} has no node {key}") from None

    def edge_stats(self, caller: NodeKey, callee: NodeKey) -> EdgeStats:
        """Stats of the caller→callee edge."""
        try:
            return self._succ[caller][callee]
        except KeyError:
            raise TopologyError(
                f"graph {self.name!r} has no edge {caller} -> {callee}"
            ) from None

    def successors(self, key: NodeKey) -> list[NodeKey]:
        """Callees of *key*."""
        return list(self._succ.get(key, {}))

    def predecessors(self, key: NodeKey) -> list[NodeKey]:
        """Callers of *key*."""
        return list(self._pred.get(key, set()))

    def edges(self) -> Iterable[tuple[NodeKey, NodeKey, EdgeStats]]:
        """Iterate all (caller, callee, stats) triples."""
        for caller, targets in self._succ.items():
            for callee, stats in targets.items():
                yield caller, callee, stats

    def roots(self) -> list[NodeKey]:
        """Nodes without callers (the application frontier)."""
        return [key for key in self._nodes if not self._pred.get(key)]

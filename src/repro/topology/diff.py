"""Constructing the topological difference (Section 5.5.1).

The diff overlays the baseline and experimental interaction graphs on the
version-agnostic (service, endpoint) plane: entries are classified as
added (green in Fig 5.2), removed (red), updated (yellow — version
changed), or unchanged.  From the edge-level comparison the concrete
:class:`~repro.topology.change_types.Change` records are derived.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.topology.change_types import Change, ChangeType
from repro.topology.graph import InteractionGraph, NodeKey


class DiffStatus(enum.Enum):
    """Status of a node or edge in the topological difference."""

    ADDED = "added"
    REMOVED = "removed"
    UPDATED = "updated"
    UNCHANGED = "unchanged"


@dataclass(frozen=True)
class DiffEntry:
    """One (service, endpoint) node of the difference overlay."""

    service: str
    endpoint: str
    status: DiffStatus
    baseline_versions: frozenset[str]
    experimental_versions: frozenset[str]


@dataclass
class TopologyDiff:
    """The full topological difference between two graph variants."""

    baseline: InteractionGraph
    experimental: InteractionGraph
    entries: dict[tuple[str, str], DiffEntry] = field(default_factory=dict, init=False)
    changes: list[Change] = field(default_factory=list, init=False)

    def changed_entries(self) -> list[DiffEntry]:
        """Entries whose status is not UNCHANGED."""
        return [e for e in self.entries.values() if e.status is not DiffStatus.UNCHANGED]

    def summary(self) -> dict[str, int]:
        """Counts per status plus the number of identified changes."""
        counts = {status.value: 0 for status in DiffStatus}
        for entry in self.entries.values():
            counts[entry.status.value] += 1
        counts["changes"] = len(self.changes)
        return counts


def versions_by_service_endpoint(
    graph: InteractionGraph,
) -> dict[tuple[str, str], set[str]]:
    """Version sets per (service, endpoint) — the diff's node index."""
    out: dict[tuple[str, str], set[str]] = {}
    for key in graph.nodes:
        out.setdefault(key.service_endpoint, set()).add(key.version)
    return out


def edges_by_service_endpoint(
    graph: InteractionGraph,
) -> dict[tuple[tuple[str, str], tuple[str, str]], list[tuple[NodeKey, NodeKey]]]:
    """Concrete edge instances per SE-plane edge — the diff's edge index."""
    out: dict[
        tuple[tuple[str, str], tuple[str, str]], list[tuple[NodeKey, NodeKey]]
    ] = {}
    for caller, callee, _stats in graph.edges():
        key = (caller.service_endpoint, callee.service_endpoint)
        out.setdefault(key, []).append((caller, callee))
    return out


def diff_graphs(
    baseline: InteractionGraph, experimental: InteractionGraph
) -> TopologyDiff:
    """Compute the topological difference and classify all changes."""
    return diff_from_indexes(
        baseline,
        experimental,
        versions_by_service_endpoint(baseline),
        edges_by_service_endpoint(baseline),
    )


def diff_from_indexes(
    baseline: InteractionGraph,
    experimental: InteractionGraph,
    base_nodes: dict[tuple[str, str], set[str]],
    base_edges: dict[
        tuple[tuple[str, str], tuple[str, str]], list[tuple[NodeKey, NodeKey]]
    ],
) -> TopologyDiff:
    """Diff with the baseline-side indexes supplied by the caller.

    The streaming pipeline pins a baseline and diffs against it every
    time the live window rolls; precomputing the baseline indexes once
    removes the dominant repeated cost while producing output identical
    to :func:`diff_graphs` (which delegates here).
    """
    diff = TopologyDiff(baseline, experimental)

    exp_nodes = versions_by_service_endpoint(experimental)
    for se in set(base_nodes) | set(exp_nodes):
        base_versions = frozenset(base_nodes.get(se, set()))
        exp_versions = frozenset(exp_nodes.get(se, set()))
        if not base_versions:
            status = DiffStatus.ADDED
        elif not exp_versions:
            status = DiffStatus.REMOVED
        elif base_versions != exp_versions:
            status = DiffStatus.UPDATED
        else:
            status = DiffStatus.UNCHANGED
        diff.entries[se] = DiffEntry(
            service=se[0],
            endpoint=se[1],
            status=status,
            baseline_versions=base_versions,
            experimental_versions=exp_versions,
        )

    exp_edges = edges_by_service_endpoint(experimental)

    # Fundamental change types: edges appearing / disappearing on the
    # version-agnostic plane.
    for se_edge, instances in exp_edges.items():
        caller, callee = instances[0]
        if se_edge not in base_edges:
            if se_edge[1] not in base_nodes:
                change_type = ChangeType.CALLING_NEW_ENDPOINT
            else:
                change_type = ChangeType.CALLING_EXISTING_ENDPOINT
            diff.changes.append(Change(change_type, caller, callee))
    for se_edge, instances in base_edges.items():
        if se_edge not in exp_edges:
            caller, callee = instances[0]
            diff.changes.append(
                Change(ChangeType.REMOVING_SERVICE_CALL, caller, callee)
            )

    # Composed change types: the edge persists on the (service, endpoint)
    # plane but new versions participate.  During a live experiment both
    # the stable and the experimental version serve simultaneously, so
    # the comparison is on version *sets*, and the representative
    # instance is one involving a new version.  Edges are visited in the
    # experimental graph's order, so the order of ``changes`` (and of
    # tied ranks) does not follow the hash seed.
    for se_edge in exp_edges:
        if se_edge not in base_edges:
            continue
        base_caller_versions = {c.version for c, _ in base_edges[se_edge]}
        base_callee_versions = {e.version for _, e in base_edges[se_edge]}
        new_caller_versions = {
            c.version for c, _ in exp_edges[se_edge]
        } - base_caller_versions
        new_callee_versions = {
            e.version for _, e in exp_edges[se_edge]
        } - base_callee_versions
        if not new_caller_versions and not new_callee_versions:
            continue

        def representative(
            callers: set[str], callees: set[str]
        ) -> tuple[NodeKey, NodeKey]:
            for caller, callee in exp_edges[se_edge]:
                caller_ok = not callers or caller.version in callers
                callee_ok = not callees or callee.version in callees
                if caller_ok and callee_ok:
                    return caller, callee
            return exp_edges[se_edge][0]

        if new_caller_versions and new_callee_versions:
            caller, callee = representative(new_caller_versions, new_callee_versions)
            diff.changes.append(Change(ChangeType.UPDATED_VERSION, caller, callee))
        elif new_caller_versions:
            caller, callee = representative(new_caller_versions, set())
            diff.changes.append(
                Change(ChangeType.UPDATED_CALLER_VERSION, caller, callee)
            )
        else:
            caller, callee = representative(set(), new_callee_versions)
            diff.changes.append(
                Change(ChangeType.UPDATED_CALLEE_VERSION, caller, callee)
            )

    # Node-level fallback: entry (root) endpoints have no incoming edges,
    # so a version update or addition there would go unnoticed by the
    # edge-level passes above.
    covered: set[tuple[str, str]] = set()
    for change in diff.changes:
        covered.add(change.callee.service_endpoint)
        if change.caller is not None:
            covered.add(change.caller.service_endpoint)
    exp_nodes_by_se: dict[tuple[str, str], list[NodeKey]] = {}
    for node in experimental.nodes:
        exp_nodes_by_se.setdefault(node.service_endpoint, []).append(node)
    for se, entry in diff.entries.items():
        if se in covered:
            continue
        if entry.status is DiffStatus.UPDATED:
            new_versions = entry.experimental_versions - entry.baseline_versions
            node = next(
                (n for n in exp_nodes_by_se.get(se, []) if n.version in new_versions),
                None,
            )
            if node is not None:
                diff.changes.append(
                    Change(ChangeType.UPDATED_CALLEE_VERSION, None, node)
                )
        elif entry.status is DiffStatus.ADDED and exp_nodes_by_se.get(se):
            diff.changes.append(
                Change(
                    ChangeType.CALLING_NEW_ENDPOINT, None, exp_nodes_by_se[se][0]
                )
            )
    return diff

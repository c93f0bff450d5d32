"""The subtree complexity heuristic (Section 5.5.3).

Rationale: a change whose subtree (everything reachable from the changed
call in the experimental topology) is large and itself riddled with
changes can affect more of the application than a leaf-level tweak.  The
score is the uncertainty weight of the change type times the complexity
of the subtree rooted at the change's anchor, where changed descendants
contribute extra weight (Fig 5.4's topmost-subtree traversal).
"""

from __future__ import annotations

from repro.topology.change_types import Change
from repro.topology.diff import DiffStatus, TopologyDiff
from repro.topology.graph import InteractionGraph, NodeKey
from repro.topology.heuristics.base import RankingHeuristic
from repro.topology.uncertainty import UncertaintyModel, uniform_uncertainty

#: Extra complexity each *changed* (added/removed/updated) node inside
#: the subtree contributes.
CHANGED_BONUS = 1.5


class SubtreeComplexityHeuristic(RankingHeuristic):
    """Scores changes by uncertainty-weighted subtree complexity.

    Args:
        use_uncertainty: when False, all change types weigh alike (the
            ``SC-plain`` variant).
        uncertainty: custom weights; defaults to the calibrated model.
    """

    def __init__(
        self,
        use_uncertainty: bool = True,
        uncertainty: UncertaintyModel | None = None,
    ) -> None:
        self.name = "SC" if use_uncertainty else "SC-plain"
        if use_uncertainty:
            self.uncertainty = uncertainty or UncertaintyModel()
        else:
            self.uncertainty = uniform_uncertainty()

    def scores(self, diff: TopologyDiff) -> dict[Change, float]:
        changed_entries = {
            (entry.service, entry.endpoint)
            for entry in diff.entries.values()
            if entry.status is not DiffStatus.UNCHANGED
        }
        out: dict[Change, float] = {}
        # Memoize subtree complexities per (graph id, node).
        cache: dict[tuple[int, NodeKey], float] = {}
        for change in diff.changes:
            graph = diff.baseline if change.removed else diff.experimental
            complexity = self._complexity(
                graph, change.anchor, changed_entries, cache
            )
            out[change] = self.uncertainty.weight(change.type) * complexity
        return out

    def _complexity(
        self,
        graph: InteractionGraph,
        root: NodeKey,
        changed_entries: set[tuple[str, str]],
        cache: dict[tuple[int, NodeKey], float],
    ) -> float:
        key = (id(graph), root)
        cached = cache.get(key)
        if cached is not None:
            return cached
        if not graph.has_node(root):
            # The anchor never served traffic on this side — minimal
            # structural evidence, count the node itself only.
            cache[key] = 1.0
            return 1.0
        total = 0.0
        seen = {root}
        frontier = [root]
        edges = 0
        while frontier:
            node = frontier.pop()
            total += 1.0
            if node.service_endpoint in changed_entries:
                total += CHANGED_BONUS
            for succ in graph.successors(node):
                edges += 1
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
        # Edges add breadth pressure: a wide fan-out is riskier than a chain.
        total += 0.25 * edges
        cache[key] = total
        return total

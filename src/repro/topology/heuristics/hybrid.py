"""The hybrid heuristic (Section 5.5.5).

Combines structural evidence (subtree complexity — what *could* go
wrong) with behavioural evidence (response-time analysis — what *is*
going wrong).  Both component scores are normalized to [0, 1] before the
weighted combination, so neither unit dominates.  The paper found a
hybrid to score best on average (mean nDCG5 ≈ 0.94) while noting that no
single variant wins everywhere.
"""

from __future__ import annotations

from repro.topology.change_types import Change
from repro.topology.diff import TopologyDiff
from repro.topology.heuristics.base import RankingHeuristic, normalized
from repro.topology.heuristics.response_time import ResponseTimeHeuristic
from repro.topology.heuristics.subtree import SubtreeComplexityHeuristic


class HybridHeuristic(RankingHeuristic):
    """Weighted combination of SC and RT scores.

    Args:
        relative: use the relative RT variant (``HY-rel``) instead of the
            absolute one (``HY-abs``).
        structure_weight: weight of the SC component in [0, 1]; the RT
            component receives the complement.
    """

    def __init__(
        self,
        relative: bool = False,
        structure_weight: float = 0.5,
    ) -> None:
        if not 0.0 <= structure_weight <= 1.0:
            raise ValueError("structure_weight must be in [0, 1]")
        self.name = "HY-rel" if relative else "HY-abs"
        self.structure_weight = structure_weight
        self._subtree = SubtreeComplexityHeuristic(use_uncertainty=True)
        self._response_time = ResponseTimeHeuristic(relative=relative)

    def scores(self, diff: TopologyDiff) -> dict[Change, float]:
        structural = normalized(self._subtree.scores(diff))
        behavioural = normalized(self._response_time.scores(diff))
        out: dict[Change, float] = {}
        for change in diff.changes:
            out[change] = self.structure_weight * structural.get(
                change, 0.0
            ) + (1.0 - self.structure_weight) * behavioural.get(change, 0.0)
        return out


def all_heuristic_variants() -> dict[str, RankingHeuristic]:
    """The six variants evaluated in Figs 5.6 and 5.8."""
    return {
        "SC": SubtreeComplexityHeuristic(use_uncertainty=True),
        "SC-plain": SubtreeComplexityHeuristic(use_uncertainty=False),
        "RT-abs": ResponseTimeHeuristic(relative=False),
        "RT-rel": ResponseTimeHeuristic(relative=True),
        "HY-abs": HybridHeuristic(relative=False),
        "HY-rel": HybridHeuristic(relative=True),
    }

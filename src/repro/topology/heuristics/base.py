"""Common interface of the ranking heuristics."""

from __future__ import annotations

import abc

from repro.topology.change_types import Change
from repro.topology.diff import TopologyDiff


class RankingHeuristic(abc.ABC):
    """Assigns each identified change a suspicion score.

    Scores order changes by their potential *negative* impact on the
    experiment's and application's health state; ties are broken
    deterministically downstream.
    """

    name: str = "abstract"

    @abc.abstractmethod
    def scores(self, diff: TopologyDiff) -> dict[Change, float]:
        """Score every change of *diff* (higher = rank earlier)."""


def normalized(scores: dict[Change, float]) -> dict[Change, float]:
    """Scale scores into [0, 1] by the maximum (all-zero stays zero)."""
    if not scores:
        return {}
    peak = max(scores.values())
    if peak <= 0:
        return {change: 0.0 for change in scores}
    return {change: value / peak for change, value in scores.items()}

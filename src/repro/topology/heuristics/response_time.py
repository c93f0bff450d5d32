"""The response time analysis heuristic (Section 5.5.4).

A simple root cause analysis over response-time regressions: for each
change, compare the anchor's mean response time between the baseline and
experimental variants.  A node whose own time degraded *more than its
downstream calls explain* is likely the culprit (its *exclusive* delta is
large); a node whose children degraded equally merely propagates a
deeper problem — the cascading effect the paper warns about.
"""

from __future__ import annotations

from repro.topology.change_types import Change
from repro.topology.diff import TopologyDiff
from repro.topology.graph import InteractionGraph
from repro.topology.heuristics.base import RankingHeuristic

#: Additional score per unit of error-rate increase: breaking changes
#: degrade correctness, not just latency.
ERROR_WEIGHT = 200.0


def _mean_by_service_endpoint(graph: InteractionGraph) -> dict[tuple[str, str], float]:
    """Call-weighted mean response time per (service, endpoint)."""
    totals: dict[tuple[str, str], float] = {}
    calls: dict[tuple[str, str], int] = {}
    for key in graph.nodes:
        stats = graph.node_stats(key)
        se = key.service_endpoint
        totals[se] = totals.get(se, 0.0) + stats.total_response_ms
        calls[se] = calls.get(se, 0) + stats.calls
    return {
        se: totals[se] / calls[se] for se in totals if calls[se] > 0
    }


class ResponseTimeHeuristic(RankingHeuristic):
    """Scores changes by exclusive response-time degradation.

    Args:
        relative: score by relative degradation (delta / baseline) rather
            than by absolute milliseconds — the ``RT-rel`` variant.
    """

    def __init__(self, relative: bool = False) -> None:
        self.name = "RT-rel" if relative else "RT-abs"
        self.relative = relative

    def scores(self, diff: TopologyDiff) -> dict[Change, float]:
        base_means = _mean_by_service_endpoint(diff.baseline)
        exp_means = _mean_by_service_endpoint(diff.experimental)
        base_errors = self._error_rates(diff.baseline)
        exp_errors = self._error_rates(diff.experimental)

        def delta_of(se: tuple[str, str]) -> float:
            base = base_means.get(se)
            exp = exp_means.get(se)
            if base is None or exp is None:
                return 0.0
            delta = exp - base
            if self.relative:
                return delta / base if base > 0 else 0.0
            return delta

        def error_shift_of(se: tuple[str, str]) -> float:
            return max(
                0.0, exp_errors.get(se, 0.0) - base_errors.get(se, 0.0)
            )

        out: dict[Change, float] = {}
        for change in diff.changes:
            if change.removed:
                # A removed call cannot degrade the experimental variant's
                # latency; only residual error shifts matter.
                out[change] = 0.0
                continue
            anchor = change.anchor
            anchor_se = anchor.service_endpoint
            own_delta = delta_of(anchor_se)
            own_error_shift = error_shift_of(anchor_se)
            # Root cause analysis: subtract what downstream calls explain —
            # both latency growth and error cascades propagate upward, so
            # a node whose children already account for the shift is a
            # victim, not a culprit.
            child_latency = 0.0
            child_errors = 0.0
            if diff.experimental.has_node(anchor):
                for succ in diff.experimental.successors(anchor):
                    child_latency += max(0.0, delta_of(succ.service_endpoint))
                    child_errors += error_shift_of(succ.service_endpoint)
            exclusive_latency = max(0.0, own_delta - child_latency)
            exclusive_errors = max(0.0, own_error_shift - child_errors)
            out[change] = (
                exclusive_latency + ERROR_WEIGHT * exclusive_errors
            )
        return out

    @staticmethod
    def _error_rates(graph: InteractionGraph) -> dict[tuple[str, str], float]:
        errors: dict[tuple[str, str], int] = {}
        calls: dict[tuple[str, str], int] = {}
        for key in graph.nodes:
            stats = graph.node_stats(key)
            se = key.service_endpoint
            errors[se] = errors.get(se, 0) + stats.errors
            calls[se] = calls.get(se, 0) + stats.calls
        return {se: errors[se] / calls[se] for se in errors if calls[se] > 0}

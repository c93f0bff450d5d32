"""Ablation — the hybrid heuristic's structure/behaviour balance.

The hybrid heuristic mixes subtree complexity (structure) and
response-time analysis (behaviour) with a weight.  Sweeping that weight
over all four evaluation sub-scenarios shows *why* the dissertation's
combination wins: pure structure (weight 1.0) misses breaking changes,
pure behaviour (weight 0.0) misses risky-but-not-yet-degraded changes;
the interior mixes dominate both extremes on average.
"""

import statistics

from _util import emit, format_rows

from repro.topology.heuristics.hybrid import HybridHeuristic
from repro.topology.ranking import evaluate_ranking, rank_changes
from repro.topology.scenarios import scenario1, scenario2

WEIGHTS = (0.0, 0.25, 0.5, 0.75, 1.0)


def run_sweep():
    scenarios = [
        scenario1(degraded=False),
        scenario1(degraded=True),
        scenario2(degraded=False),
        scenario2(degraded=True),
    ]
    diffs = [(s, s.diff()) for s in scenarios]
    rows = []
    for weight in WEIGHTS:
        heuristic = HybridHeuristic(relative=True, structure_weight=weight)
        scores = [
            evaluate_ranking(rank_changes(diff, heuristic), s.relevance, k=5)
            for s, diff in diffs
        ]
        rows.append(
            {
                "structure_weight": weight,
                "mean_ndcg5": statistics.mean(scores),
                "min_ndcg5": min(scores),
                **{s.name: score for (s, _), score in zip(diffs, scores)},
            }
        )
    return rows


def test_ablation_hybrid_weight(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    emit("Ablation: hybrid structure weight sweep", format_rows(rows))

    by_weight = {row["structure_weight"]: row["mean_ndcg5"] for row in rows}
    interior_best = max(by_weight[w] for w in (0.25, 0.5, 0.75))
    # The interior mixes beat the pure-structure extreme and at least
    # match the pure-behaviour extreme on average.
    assert interior_best > by_weight[1.0]
    assert interior_best >= by_weight[0.0] - 1e-9

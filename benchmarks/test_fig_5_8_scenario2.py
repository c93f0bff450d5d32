"""E10 — Fig 5.8: scenario 2 (breaking changes) nDCG@5 scores.

A pricing update fails a large share of requests, cascading errors into
its callers, next to benign changes.  Expected shape: the response-time
analysis and hybrid heuristics identify the breaking change (scores near
1.0), clearly beating pure structure; averaged over all sub-scenarios of
both scenarios the hybrid family is the best overall — the paper reports
a mean nDCG5 of ~0.94 for its best hybrid.
"""

import statistics

from _util import emit, format_rows

from repro.topology.heuristics.hybrid import all_heuristic_variants
from repro.topology.ranking import evaluate_ranking, rank_changes
from repro.topology.scenarios import scenario1, scenario2


def run_scenario():
    rows = []
    all_scores: dict[str, list[float]] = {}
    for degraded in (False, True):
        scenario = scenario2(degraded=degraded)
        diff = scenario.diff()
        row = {"sub_scenario": "degraded" if degraded else "errors-only",
               "changes": len(diff.changes)}
        for name, heuristic in all_heuristic_variants().items():
            ranking = rank_changes(diff, heuristic)
            score = evaluate_ranking(ranking, scenario.relevance, k=5)
            row[name] = score
            all_scores.setdefault(name, []).append(score)
        rows.append(row)
    # Cross-scenario means (the paper's headline comparison).
    for maker, degraded in ((scenario1, False), (scenario1, True)):
        scenario = maker(degraded=degraded)
        diff = scenario.diff()
        for name, heuristic in all_heuristic_variants().items():
            ranking = rank_changes(diff, heuristic)
            all_scores[name].append(
                evaluate_ranking(ranking, scenario.relevance, k=5)
            )
    means = {name: statistics.mean(values) for name, values in all_scores.items()}
    return rows, means


def test_fig_5_8(benchmark):
    rows, means = benchmark.pedantic(run_scenario, rounds=1, iterations=1)
    emit("Fig 5.8 scenario 2 nDCG5 per heuristic", format_rows(rows))
    emit(
        "Combined mean nDCG5 across all four sub-scenarios",
        format_rows([{"heuristic": n, "mean_ndcg5": m} for n, m in means.items()]),
    )

    # RT/HY spot the breaking change nearly perfectly in scenario 2.
    for row in rows:
        assert row["RT-abs"] >= 0.9
        assert row["HY-abs"] >= 0.9
    # Overall winner shape: a hybrid scores best on average, at a level
    # comparable to the paper's 0.94.
    best = max(means, key=means.get)
    assert best in ("HY-abs", "HY-rel")
    assert means[best] >= 0.88
    # Structure-only is the weakest family on breaking changes.
    assert means["HY-rel"] > means["SC-plain"]

"""E9 — Fig 5.6: scenario 1 nDCG@5 scores for all heuristic variants.

The sample-application release scenario (the recommendation feature) is
evaluated with and without introduced performance degradation.  Expected
shape: for the no-degradation case the structure-driven SC heuristic is
the strongest single variant; with degradation the hybrids move ahead —
no variant wins everywhere, which is exactly the paper's argument for
letting engineers toggle heuristics.
"""

from _util import emit, format_rows

from repro.topology.heuristics.hybrid import all_heuristic_variants
from repro.topology.ranking import evaluate_ranking, rank_changes
from repro.topology.scenarios import scenario1


def run_scenario():
    rows = []
    scores = {}
    for degraded in (False, True):
        scenario = scenario1(degraded=degraded)
        diff = scenario.diff()
        row = {"sub_scenario": "degraded" if degraded else "healthy",
               "changes": len(diff.changes)}
        for name, heuristic in all_heuristic_variants().items():
            ranking = rank_changes(diff, heuristic)
            score = evaluate_ranking(ranking, scenario.relevance, k=5)
            row[name] = score
            scores[(degraded, name)] = score
        rows.append(row)
    return rows, scores


def test_fig_5_6(benchmark):
    rows, scores = benchmark.pedantic(run_scenario, rounds=1, iterations=1)
    emit("Fig 5.6 scenario 1 nDCG5 per heuristic", format_rows(rows))

    variant_names = list(all_heuristic_variants())
    # All rankings are meaningful (well above random shuffling).
    assert all(scores[(d, n)] > 0.4 for d in (False, True) for n in variant_names)
    # Without degradation, the uncertainty-weighted SC heuristic is the
    # best single variant (the paper's "no hybrid wins the healthy case").
    healthy_best = max(variant_names, key=lambda n: scores[(False, n)])
    assert healthy_best == "SC"
    # With degradation, behavioural evidence helps: some RT/HY variant
    # beats plain structure.
    assert max(
        scores[(True, n)] for n in ("RT-abs", "RT-rel", "HY-abs", "HY-rel")
    ) > scores[(True, "SC-plain")]

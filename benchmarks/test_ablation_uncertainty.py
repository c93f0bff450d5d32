"""Ablation — the uncertainty model behind the SC heuristic.

Chapter 5 assigns each change type a scalar uncertainty (new service >
new call to an existing endpoint > removed call, ...).  This ablation
compares the calibrated weights against a uniform model (every change
type alike — the SC-plain variant) and an *inverted* model (riskiest
types weighted lowest) across all four evaluation sub-scenarios.
Expected: calibrated > uniform > inverted — the ordering itself carries
the information.
"""

import statistics

from _util import emit, format_rows

from repro.topology.change_types import ChangeType
from repro.topology.heuristics.subtree import SubtreeComplexityHeuristic
from repro.topology.ranking import evaluate_ranking, rank_changes
from repro.topology.scenarios import scenario1, scenario2
from repro.topology.uncertainty import UncertaintyModel, uniform_uncertainty


def inverted_model() -> UncertaintyModel:
    default = UncertaintyModel()
    peak = max(default.weights.values())
    return UncertaintyModel(
        {ct: peak + 0.05 - w for ct, w in default.weights.items()}
    )


def run_ablation():
    scenarios = [
        scenario1(degraded=False),
        scenario1(degraded=True),
        scenario2(degraded=False),
        scenario2(degraded=True),
    ]
    diffs = [(s, s.diff()) for s in scenarios]
    models = {
        "calibrated": UncertaintyModel(),
        "uniform": uniform_uncertainty(),
        "inverted": inverted_model(),
    }
    rows = []
    for label, model in models.items():
        heuristic = SubtreeComplexityHeuristic(
            use_uncertainty=True, uncertainty=model
        )
        scores = [
            evaluate_ranking(rank_changes(diff, heuristic), s.relevance, k=5)
            for s, diff in diffs
        ]
        rows.append(
            {
                "uncertainty_model": label,
                "mean_ndcg5": statistics.mean(scores),
                **{s.name: score for (s, _), score in zip(diffs, scores)},
            }
        )
    return rows


def test_ablation_uncertainty(benchmark):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    emit("Ablation: SC uncertainty weights", format_rows(rows))

    by_model = {row["uncertainty_model"]: row["mean_ndcg5"] for row in rows}
    assert by_model["calibrated"] > by_model["uniform"]
    assert by_model["calibrated"] > by_model["inverted"]
    # Sanity: the calibrated ordering matches the chapter's rationale.
    model = UncertaintyModel()
    assert (
        model.weight(ChangeType.CALLING_NEW_ENDPOINT)
        > model.weight(ChangeType.UPDATED_VERSION)
        > model.weight(ChangeType.UPDATED_CALLEE_VERSION)
        > model.weight(ChangeType.CALLING_EXISTING_ENDPOINT)
        > model.weight(ChangeType.UPDATED_CALLER_VERSION)
        > model.weight(ChangeType.REMOVING_SERVICE_CALL)
    )

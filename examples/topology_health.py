"""Topology-aware health assessment of a breaking release.

Reenacts the Chapter 5 workflow on the breaking-changes scenario: both
application variants are exercised through the simulated runtime, traces
are collected, interaction graphs are built and diffed, the identified
changes are classified into the change-type taxonomy, and every
heuristic variant ranks them — with nDCG@5 against the scenario's ground
truth, like Fig 5.8.

Run with::

    python examples/topology_health.py
"""

from repro.topology.heuristics.hybrid import all_heuristic_variants
from repro.topology.ranking import evaluate_ranking, rank_changes, ranking_table
from repro.topology.scenarios import scenario2


def main() -> None:
    scenario = scenario2(degraded=True)
    diff = scenario.diff()

    print("=== topological difference")
    print(f"summary: {diff.summary()}")
    for entry in sorted(
        diff.changed_entries(), key=lambda e: (e.service, e.endpoint)
    ):
        print(
            f"  {entry.status.value:9s} {entry.service}/{entry.endpoint} "
            f"(baseline={sorted(entry.baseline_versions)}, "
            f"experimental={sorted(entry.experimental_versions)})"
        )

    print("\n=== identified changes")
    for change in diff.changes:
        print(f"  {change.describe()}")

    print("\n=== heuristic rankings (nDCG@5 against ground truth)")
    for name, heuristic in all_heuristic_variants().items():
        ranking = rank_changes(diff, heuristic)
        score = evaluate_ranking(ranking, scenario.relevance, k=5)
        print(f"\n--- {name} (nDCG5 = {score:.3f})")
        print(ranking_table(ranking, limit=5))


if __name__ == "__main__":
    main()

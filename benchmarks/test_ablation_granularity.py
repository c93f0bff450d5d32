"""Ablation — analysis granularity: endpoint level vs service level.

Section 1.5.1 frames granularity as a core trade-off of taming
uncertainty: "should changes be considered on the level of individual
service endpoints, or is it better to treat them in an aggregated way on
the service level?".  This ablation runs the same diff + ranking at both
granularities on large synthetic graphs and quantifies the trade:
service-level graphs are an order of magnitude smaller and faster while
reporting fewer, coarser changes.
"""

import time

from _util import emit, format_rows

from repro.topology.aggregate import aggregate_to_service_level
from repro.topology.diff import diff_graphs
from repro.topology.generator import mutate_graph, random_interaction_graph
from repro.topology.heuristics.hybrid import all_heuristic_variants
from repro.topology.ranking import rank_changes

SIZES = (2000, 10000)


def measure(base, variant, label, size):
    started = time.perf_counter()
    diff = diff_graphs(base, variant)
    heuristic = all_heuristic_variants()["HY-abs"]
    rank_changes(diff, heuristic)
    elapsed = time.perf_counter() - started
    return {
        "endpoints": size,
        "granularity": label,
        "nodes": base.node_count,
        "changes_found": len(diff.changes),
        "analysis_s": elapsed,
    }


def run_ablation():
    rows = []
    for size in SIZES:
        base = random_interaction_graph(
            size, branching=3, seed=1, endpoints_per_service=10
        )
        variant = mutate_graph(base, changes=size // 100, seed=2)
        rows.append(measure(base, variant, "endpoint", size))
        rows.append(
            measure(
                aggregate_to_service_level(base),
                aggregate_to_service_level(variant),
                "service",
                size,
            )
        )
    return rows


def test_ablation_granularity(benchmark):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    # Wall-clock timings differ run to run: they are printed, not persisted.
    emit(
        "Ablation: endpoint vs service granularity",
        format_rows({k: v for k, v in r.items() if k != "analysis_s"} for r in rows),
    )
    print(format_rows(
        {k: r[k] for k in ("endpoints", "granularity", "analysis_s")} for r in rows
    ))

    for size in SIZES:
        fine = next(
            r for r in rows
            if r["endpoints"] == size and r["granularity"] == "endpoint"
        )
        coarse = next(
            r for r in rows
            if r["endpoints"] == size and r["granularity"] == "service"
        )
        # Aggregation shrinks the graph by the endpoints-per-service
        # factor and never reports more changes.
        assert coarse["nodes"] * 5 <= fine["nodes"]
        assert coarse["changes_found"] <= fine["changes_found"]
        assert coarse["changes_found"] > 0  # mutations stay visible
        # The coarse analysis is not slower.
        assert coarse["analysis_s"] <= fine["analysis_s"] + 0.05

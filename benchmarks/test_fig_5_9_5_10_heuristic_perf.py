"""E11 — Figs 5.9 + 5.10: heuristic execution times on growing graphs.

Measures diff construction and heuristic ranking on synthetic
interaction graphs of up to 10,000 endpoints, for deep and broad shapes
and two change frequencies.  Expected shape (Section 5.8): all variants
analyze 4,000-endpoint graphs within one second and 10,000-endpoint
graphs within five seconds, and the change frequency does not materially
affect execution time.
"""

import time

from _util import emit, format_rows

from repro.topology.diff import diff_graphs
from repro.topology.generator import mutate_graph, random_interaction_graph
from repro.topology.heuristics.hybrid import all_heuristic_variants
from repro.topology.ranking import rank_changes

SIZES = (1000, 4000, 10000)
SHAPES = {"deep": 2, "broad": 8}


def run_measurements():
    rows = []
    for size in SIZES:
        for shape, branching in SHAPES.items():
            for frequency_label, changes in (("low", 10), ("high", size // 50)):
                base = random_interaction_graph(size, branching=branching, seed=1)
                variant = mutate_graph(base, changes=changes, seed=2)
                started = time.perf_counter()
                diff = diff_graphs(base, variant)
                diff_seconds = time.perf_counter() - started
                row = {
                    "endpoints": size,
                    "shape": shape,
                    "change_freq": frequency_label,
                    "changes_found": len(diff.changes),
                    "diff_s": diff_seconds,
                }
                for name, heuristic in all_heuristic_variants().items():
                    started = time.perf_counter()
                    rank_changes(diff, heuristic)
                    row[name + "_s"] = time.perf_counter() - started
                rows.append(row)
    return rows


def test_fig_5_9_5_10(benchmark):
    rows = benchmark.pedantic(run_measurements, rounds=1, iterations=1)
    emit("Figs 5.9/5.10 heuristic execution times", format_rows(rows))

    variant_columns = [name + "_s" for name in all_heuristic_variants()]
    for row in rows:
        total = row["diff_s"] + max(row[c] for c in variant_columns)
        if row["endpoints"] <= 4000:
            assert total <= 1.0, f"4k-endpoint analysis exceeded 1 s: {row}"
        else:
            assert total <= 5.0, f"10k-endpoint analysis exceeded 5 s: {row}"

    # Change frequency does not materially change heuristic runtimes.
    for size in SIZES:
        for shape in SHAPES:
            low = next(
                r for r in rows
                if r["endpoints"] == size and r["shape"] == shape
                and r["change_freq"] == "low"
            )
            high = next(
                r for r in rows
                if r["endpoints"] == size and r["shape"] == shape
                and r["change_freq"] == "high"
            )
            for column in variant_columns:
                assert high[column] <= low[column] + 1.0

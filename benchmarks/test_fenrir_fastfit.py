"""P1 — Fast Fenrir: evaluation throughput of the fastfit layer.

Measures fitness evaluations per second on the 15-experiment instance of
Fig 3.4 under the seed evaluator (full recomputation per candidate) and
under the fastfit delta path, on the workload search algorithms actually
generate: single-gene neighborhood proposals around an evolving
incumbent.  The delta path must be **bit-identical** to full evaluation
at every step and at least 3× faster; memo-cache behaviour and the GA's
end-to-end wall time are reported alongside.

``FASTFIT_SMOKE=1`` switches to a reduced configuration for CI: the
exactness assertions stay, the timing assertion is skipped (shared
runners make throughput ratios meaningless).
"""

from __future__ import annotations

import json
import os
import time

from _util import OUTPUT_DIR, emit, format_rows

from repro.fenrir import (
    DeltaEvaluator,
    GeneticAlgorithm,
    SEED_OPTIONS,
    SampleSizeBand,
    evaluate,
    random_experiments,
)
from repro.fenrir.model import SchedulingProblem
from repro.fenrir.operators import mutate_gene, random_schedule
from repro.simulation.rng import SeededRng
from repro.traffic.profile import diurnal_profile

SMOKE = os.environ.get("FASTFIT_SMOKE") == "1"
STEPS = 300 if SMOKE else 2000
REPEATS = 2 if SMOKE else 5
GA_BUDGET = 300 if SMOKE else 1200
MIN_SPEEDUP = 3.0


def build_problem() -> SchedulingProblem:
    profile = diurnal_profile(days=7, seed=3)
    experiments = random_experiments(
        profile, count=15, band=SampleSizeBand.MEDIUM, seed=4
    )
    return SchedulingProblem(profile, experiments)


def build_workload(problem: SchedulingProblem, steps: int):
    """Hill-climbing proposal sequence: (parent, child, changed) per step.

    Deterministic, and precomputed so the timed loops only evaluate.
    """
    rng = SeededRng(11)
    current = random_schedule(problem, rng)
    current_eval = evaluate(current)
    out = []
    while len(out) < steps:
        index = rng.randint(0, len(current.genes) - 1)
        mutated = mutate_gene(
            problem, problem.experiments[index], current.genes[index], rng
        )
        if mutated == current.genes[index]:  # repair produced a no-op
            continue
        child = current.replaced(index, mutated)
        out.append((current, child, frozenset({index})))
        child_eval = evaluate(child)
        if child_eval.penalized >= current_eval.penalized:
            current, current_eval = child, child_eval
    return out


def best_time(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_throughput():
    problem = build_problem()
    steps = build_workload(problem, STEPS)

    # Exactness first: every delta evaluation must equal the full one.
    # Priming with the starting schedule puts its state in the store, so
    # every subsequent proposal has a known parent.
    delta = DeltaEvaluator(problem)
    delta.evaluate(steps[0][0])
    delta_used = 0
    for parent, child, changed in steps:
        got, used_delta = delta.evaluate(child, parent=parent, changed=changed)
        delta_used += used_delta
        assert got == evaluate(child), "delta evaluation diverged from full"

    def seed_loop():
        for _, child, _ in steps:
            evaluate(child)

    def fastfit_loop():
        evaluator = DeltaEvaluator(problem)
        evaluator.evaluate(steps[0][0])
        for parent, child, changed in steps:
            evaluator.evaluate(child, parent=parent, changed=changed)

    t_seed = best_time(seed_loop, REPEATS)
    t_fast = best_time(fastfit_loop, REPEATS)

    # Memoization: replaying the identical proposals through the GA's
    # evaluator layer answers repeats from cache.
    ga = GeneticAlgorithm(population_size=20)
    t0 = time.perf_counter()
    default_run = ga.optimize(problem, budget=GA_BUDGET, seed=1)
    t_ga_default = time.perf_counter() - t0
    t0 = time.perf_counter()
    ga.optimize(problem, budget=GA_BUDGET, seed=1, options=SEED_OPTIONS)
    t_ga_seed = time.perf_counter() - t0
    stats = default_run.eval_stats

    return {
        "mode": "smoke" if SMOKE else "full",
        "steps": len(steps),
        "delta_evals": delta_used,
        "seed_evals_per_s": len(steps) / t_seed,
        "fastfit_evals_per_s": len(steps) / t_fast,
        "speedup": t_seed / t_fast,
        "ga_default_wall_s": t_ga_default,
        "ga_seed_options_wall_s": t_ga_seed,
        "ga_stats": stats.as_dict(),
        "ga_cache_hit_rate": stats.cache_hits
        / max(1, stats.cache_hits + stats.computed_evals),
    }


def test_fastfit_throughput(benchmark):
    report = benchmark.pedantic(run_throughput, rounds=1, iterations=1)
    rows = [
        {"metric": "seed evals/s", "value": report["seed_evals_per_s"]},
        {"metric": "fastfit evals/s", "value": report["fastfit_evals_per_s"]},
        {"metric": "speedup", "value": report["speedup"]},
        {"metric": "delta share", "value": report["delta_evals"] / report["steps"]},
        {"metric": "GA wall s (default)", "value": report["ga_default_wall_s"]},
        {"metric": "GA wall s (seed opts)", "value": report["ga_seed_options_wall_s"]},
        {"metric": "GA cache hit rate", "value": report["ga_cache_hit_rate"]},
    ]
    emit("Fastfit evaluation throughput (15 experiments)", format_rows(rows))
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    with open(os.path.join(OUTPUT_DIR, "BENCH_fenrir_fastfit.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)

    # Every proposal differs from its parent in one gene, so all of them
    # should flow through the delta path.
    assert report["delta_evals"] == report["steps"]
    if not SMOKE:
        assert report["speedup"] >= MIN_SPEEDUP, (
            f"fastfit speedup {report['speedup']:.2f}x below {MIN_SPEEDUP}x"
        )

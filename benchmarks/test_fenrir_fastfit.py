"""P1 — Fast Fenrir: evaluation throughput of the fastfit layer.

Measures fitness evaluations per second on the 15-experiment instance of
Fig 3.4 under the seed evaluator (:func:`repro.fenrir.fitness.evaluate`,
full recomputation per candidate) and under the fastfit
:class:`~repro.fenrir.fastfit.Scorer`, on the workload search algorithms
actually generate: single-gene neighborhood proposals around an evolving
incumbent.  The scorer must be **bit-identical** to the seed evaluator
at every step and at least 3× faster.  Reported alongside: the GA's
wall time, and the wall time, best fitness and evaluation count of all
four algorithms on the 40-experiment HIGH instance of
docs/FENRIR_PERF.md.

``FASTFIT_SMOKE=1`` switches to a reduced configuration for CI: the
exactness assertions stay, the timing assertion is skipped (shared
runners make throughput ratios meaningless).
"""

from __future__ import annotations

import json
import os
import statistics
import time

from _util import OUTPUT_DIR, emit, format_rows

from repro.fenrir.annealing import SimulatedAnnealing
from repro.fenrir.fastfit import Scorer
from repro.fenrir.fitness import evaluate
from repro.fenrir.generator import SampleSizeBand, random_experiments
from repro.fenrir.genetic import GeneticAlgorithm
from repro.fenrir.local_search import LocalSearch
from repro.fenrir.model import SchedulingProblem
from repro.fenrir.operators import mutate_gene, random_schedule
from repro.fenrir.random_sampling import RandomSampling
from repro.simulation.rng import SeededRng
from repro.traffic.profile import diurnal_profile

SMOKE = os.environ.get("FASTFIT_SMOKE") == "1"
STEPS = 300 if SMOKE else 2000
REPEATS = 2 if SMOKE else 5
GA_BUDGET = 300 if SMOKE else 1200
SEARCH_BUDGET = 150 if SMOKE else 1000
SEARCH_REPEATS = 1 if SMOKE else 5
MIN_SPEEDUP = 3.0


def build_problem(count: int = 15, band: SampleSizeBand = SampleSizeBand.MEDIUM):
    profile = diurnal_profile(days=7, seed=3)
    experiments = random_experiments(profile, count=count, band=band, seed=4)
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


def search_walls() -> list[dict]:
    """Four algorithms on the 40/HIGH instance, one row each."""
    problem = build_problem(40, SampleSizeBand.HIGH)
    rows = []
    for algorithm in (
        LocalSearch(), SimulatedAnnealing(), GeneticAlgorithm(), RandomSampling()
    ):
        runs = [
            algorithm.optimize(problem, budget=SEARCH_BUDGET, seed=1)
            for _ in range(SEARCH_REPEATS)
        ]
        rows.append(
            {
                "algorithm": algorithm.name,
                "wall_ms": 1000 * statistics.median(r.wall_time_s for r in runs),
                "fitness": runs[0].fitness,
                "full_evals": runs[0].eval_stats.full_evals,
            }
        )
    return rows


def run_throughput():
    problem = build_problem()
    steps = build_workload(problem, STEPS)

    # Exactness first: one scorer across the whole chain, so its per-gene
    # memo is warm, must equal the seed evaluator at every step.
    scorer = Scorer(problem)
    for _, child, _ in steps:
        assert scorer.evaluate(child) == evaluate(child), "scorer diverged"

    def seed_loop():
        for _, child, _ in steps:
            evaluate(child)

    def scorer_loop():
        fresh = Scorer(problem)
        for _, child, _ in steps:
            fresh.evaluate(child)

    t_seed = best_time(seed_loop, REPEATS)
    t_scorer = best_time(scorer_loop, REPEATS)

    t0 = time.perf_counter()
    ga_run = GeneticAlgorithm(population_size=20).optimize(
        problem, budget=GA_BUDGET, seed=1
    )
    t_ga = time.perf_counter() - t0

    return {
        "mode": "smoke" if SMOKE else "full",
        "steps": len(steps),
        "seed_evals_per_s": len(steps) / t_seed,
        "scorer_evals_per_s": len(steps) / t_scorer,
        "speedup": t_seed / t_scorer,
        "ga_wall_s": t_ga,
        "ga_stats": ga_run.eval_stats.as_dict(),
        "search_budget": SEARCH_BUDGET,
        "search_walls": search_walls(),
    }


def test_fastfit_throughput(benchmark):
    report = benchmark.pedantic(run_throughput, rounds=1, iterations=1)
    rows = [
        {"metric": "seed evals/s", "value": report["seed_evals_per_s"]},
        {"metric": "scorer evals/s", "value": report["scorer_evals_per_s"]},
        {"metric": "speedup", "value": report["speedup"]},
        {"metric": "GA wall s", "value": report["ga_wall_s"]},
    ]
    for row in report["search_walls"]:
        rows.append(
            {"metric": f"40/HIGH {row['algorithm']} wall ms", "value": row["wall_ms"]}
        )
    emit("Fastfit evaluation throughput (15 experiments)", format_rows(rows))
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    with open(os.path.join(OUTPUT_DIR, "BENCH_fenrir_fastfit.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)

    if not SMOKE:
        assert report["speedup"] >= MIN_SPEEDUP, (
            f"scorer speedup {report['speedup']:.2f}x below {MIN_SPEEDUP}x"
        )

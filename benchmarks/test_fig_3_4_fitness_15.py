"""E2 — Fig 3.4 + Table 3.2: fitness scores for scheduling 15 experiments.

Runs all four algorithms on the same 15-experiment instance across
several seeds under an equal fitness-evaluation budget and reports the
fitness statistics the paper tabulates.  Expected shape: the genetic
algorithm scores highest; random sampling trails.
"""

import statistics

from _util import emit, format_rows

from repro.fenrir.annealing import SimulatedAnnealing
from repro.fenrir.generator import SampleSizeBand, random_experiments
from repro.fenrir.genetic import GeneticAlgorithm
from repro.fenrir.local_search import LocalSearch
from repro.fenrir.random_sampling import RandomSampling
from repro.fenrir.scheduler import Fenrir
from repro.traffic.profile import diurnal_profile

SEEDS = (1, 2, 3, 4, 5)
BUDGET = 1200


def run_comparison():
    profile = diurnal_profile(days=7, seed=3)
    experiments = random_experiments(
        profile, count=15, band=SampleSizeBand.MEDIUM, seed=4
    )
    algorithms = [
        GeneticAlgorithm(population_size=20),
        RandomSampling(),
        LocalSearch(),
        SimulatedAnnealing(),
    ]
    results = {}
    for algorithm in algorithms:
        fits, times = [], []
        for seed in SEEDS:
            result = Fenrir(algorithm).schedule(
                profile, experiments, budget=BUDGET, seed=seed
            )
            fits.append(result.fitness)
            times.append(result.search.time_to_best_s)
        results[algorithm.name] = (fits, times)
    return results


def test_fig_3_4_table_3_2(benchmark):
    results = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    rows = []
    for name, (fits, times) in results.items():
        rows.append(
            {
                "algorithm": name,
                "mean_fitness": statistics.mean(fits),
                "min_fitness": min(fits),
                "max_fitness": max(fits),
                "stdev": statistics.stdev(fits),
                "mean_time_to_best_s": statistics.mean(times),
            }
        )
    emit("Table 3.2 / Fig 3.4 fitness for 15 experiments", format_rows(rows))

    means = {name: statistics.mean(fits) for name, (fits, _) in results.items()}
    # Shape check: the GA dominates random sampling and annealing, and
    # every algorithm finds reasonable schedules on this mid-size instance.
    assert means["genetic"] >= means["random"]
    assert means["genetic"] >= means["annealing"]
    assert all(mean > 0.5 for mean in means.values())

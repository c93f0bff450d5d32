"""Ablation — the genetic algorithm's design choices.

The paper notes its GA configuration (population sizes, crossover
strategy) was calibrated and that "our rather simple strategy of
combining individuals leads to many invalid schedules" — motivating the
repair operator.  This ablation quantifies the two central choices on
the hard instance (40 experiments, high sample sizes): the greedy
overlap repair applied to offspring, and the population size.
"""

import statistics

from _util import emit, format_rows

from repro.fenrir.generator import SampleSizeBand, random_experiments
from repro.fenrir.genetic import GeneticAlgorithm
from repro.fenrir.scheduler import Fenrir
from repro.traffic.profile import diurnal_profile

BUDGET = 1000
SEEDS = (1, 2, 3)


def run_ablation():
    profile = diurnal_profile(days=7, seed=3)
    experiments = random_experiments(profile, 40, SampleSizeBand.HIGH, seed=4)
    configs = {
        "pop20-repair0.35": GeneticAlgorithm(population_size=20, repair_rate=0.35),
        "pop20-no-repair": GeneticAlgorithm(population_size=20, repair_rate=0.0),
        "pop8-repair0.35": GeneticAlgorithm(population_size=8, repair_rate=0.35),
        "pop48-repair0.35": GeneticAlgorithm(population_size=48, repair_rate=0.35),
        "no-crossover": GeneticAlgorithm(population_size=20, crossover_rate=0.0),
    }
    rows = []
    for label, algorithm in configs.items():
        fits, valids = [], 0
        for seed in SEEDS:
            result = Fenrir(algorithm).schedule(
                profile, experiments, budget=BUDGET, seed=seed
            )
            fits.append(result.fitness)
            valids += int(result.valid)
        rows.append(
            {
                "config": label,
                "mean_fitness": statistics.mean(fits),
                "min_fitness": min(fits),
                "valid_runs": f"{valids}/{len(SEEDS)}",
            }
        )
    return rows


def test_ablation_ga_parameters(benchmark):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    emit("Ablation: GA parameters at 40 experiments / HIGH", format_rows(rows))

    by_config = {row["config"]: row["mean_fitness"] for row in rows}
    # Offspring repair is the load-bearing design choice on dense
    # instances: without it the GA's crossover children overlap.
    assert by_config["pop20-repair0.35"] > by_config["pop20-no-repair"]
    # The default configuration is competitive with both smaller and
    # larger populations under the same budget.
    assert by_config["pop20-repair0.35"] >= by_config["pop8-repair0.35"] - 0.05
    assert by_config["pop20-repair0.35"] >= by_config["pop48-repair0.35"] - 0.05

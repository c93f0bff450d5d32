"""E3 — Fig 3.5: fitness scores when scheduling more experiments.

Sweeps the number of experiments (5, 15, 40) across the three required
sample-size bands.  Expected shape (the paper's central scheduling
result): all algorithms are close on small instances, but with >= 20
experiments and high sample sizes the genetic algorithm keeps finding
valid schedules at clearly higher fitness (paper: GA 62% vs LS/SA
42–43% at 40 experiments / high sample sizes).

GA ≥ LS and GA ≥ SA at 40/HIGH are asserted.  GA ≥ random sampling
there is recorded, not asserted: the artefact's last line reads
``holds`` or ``deviates`` with both measured values.
"""

from _util import emit, format_rows

from repro.fenrir.annealing import SimulatedAnnealing
from repro.fenrir.generator import SampleSizeBand, random_experiments
from repro.fenrir.genetic import GeneticAlgorithm
from repro.fenrir.local_search import LocalSearch
from repro.fenrir.random_sampling import RandomSampling
from repro.fenrir.scheduler import Fenrir
from repro.traffic.profile import diurnal_profile

COUNTS = (5, 15, 40)
BANDS = (SampleSizeBand.LOW, SampleSizeBand.MEDIUM, SampleSizeBand.HIGH)
BUDGET = 1000


def run_sweep():
    profile = diurnal_profile(days=7, seed=3)
    algorithms = [
        GeneticAlgorithm(population_size=20),
        RandomSampling(),
        LocalSearch(),
        SimulatedAnnealing(),
    ]
    rows = []
    for band in BANDS:
        for count in COUNTS:
            experiments = random_experiments(profile, count, band, seed=4)
            row = {"band": band.name, "experiments": count}
            for algorithm in algorithms:
                result = Fenrir(algorithm).schedule(
                    profile, experiments, budget=BUDGET, seed=1
                )
                row[algorithm.name] = result.fitness
            rows.append(row)
    return rows


def random_verdict(hard: dict) -> str:
    """The GA-vs-random claim at 40/HIGH, as measured."""
    ga, random = hard["genetic"], hard["random"]
    verdict = "holds" if ga >= random else "deviates"
    return f"GA ≥ random at 40/HIGH: {verdict} ({ga:.3f} vs {random:.3f})"


def test_fig_3_5(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    hard = next(
        row for row in rows
        if row["band"] == "HIGH" and row["experiments"] == 40
    )
    emit(
        "Fig 3.5 fitness vs number of experiments per band",
        format_rows(rows) + "\n" + random_verdict(hard),
    )

    # The GA keeps producing good valid schedules on the hardest instance
    # and beats local search and annealing there (who-wins shape).
    assert hard["genetic"] > 0.45
    assert hard["genetic"] >= hard["local-search"]
    assert hard["genetic"] >= hard["annealing"]

    easy = next(
        row for row in rows
        if row["band"] == "LOW" and row["experiments"] == 5
    )
    # On easy instances everyone does well and the spread is small.
    algos = ("genetic", "random", "local-search", "annealing")
    assert all(easy[name] > 0.6 for name in algos)

"""E5 — Fig 3.6: fitness scores after reevaluating an existing schedule.

A GA-produced schedule executes until mid-horizon; some experiments have
finished, some are canceled, and new ones arrive.  Each algorithm
reevaluates the remainder.  Expected shape: the gap between algorithms
narrows compared to from-scratch scheduling, because LS/SA start from
the highly optimized GA schedule.
"""


from _util import emit, format_rows

from repro.fenrir.annealing import SimulatedAnnealing
from repro.fenrir.generator import SampleSizeBand, random_experiments
from repro.fenrir.genetic import GeneticAlgorithm
from repro.fenrir.local_search import LocalSearch
from repro.fenrir.random_sampling import RandomSampling
from repro.fenrir.reevaluation import reevaluate
from repro.fenrir.scheduler import Fenrir
from repro.traffic.profile import diurnal_profile

BUDGET = 1000
NOW_SLOT = 48  # two days in


def run_reevaluation():
    profile = diurnal_profile(days=7, seed=3)
    experiments = random_experiments(
        profile, count=15, band=SampleSizeBand.MEDIUM, seed=4
    )
    base = Fenrir(GeneticAlgorithm(population_size=20)).schedule(
        profile, experiments, budget=BUDGET, seed=1
    )
    arrivals = random_experiments(profile, 5, SampleSizeBand.LOW, seed=77)
    arrivals = [
        type(spec)(**{**spec.__dict__, "name": f"new-{spec.name}"})
        for spec in arrivals
    ]
    canceled = {"exp004", "exp009"}
    scratch_gap_rows = []
    rows = []
    for algorithm in (
        GeneticAlgorithm(population_size=20),
        RandomSampling(),
        LocalSearch(),
        SimulatedAnnealing(),
    ):
        plan, result = reevaluate(
            base.schedule,
            now_slot=NOW_SLOT,
            algorithm=algorithm,
            canceled=canceled,
            new_experiments=arrivals,
            budget=BUDGET,
            seed=2,
        )
        rows.append(
            {
                "algorithm": algorithm.name,
                "fitness": result.fitness,
                "valid": result.best_evaluation.valid,
                "locked": len(plan.locked),
                "finished": len(plan.finished),
                "added": len(plan.added),
            }
        )
        # From-scratch counterpart for the gap comparison.
        scratch = algorithm.optimize(plan.problem, budget=BUDGET, seed=2)
        scratch_gap_rows.append(
            {"algorithm": algorithm.name, "from_scratch_fitness": scratch.fitness}
        )
    return base, rows, scratch_gap_rows


def test_fig_3_6(benchmark):
    base, rows, scratch_rows = benchmark.pedantic(
        run_reevaluation, rounds=1, iterations=1
    )
    emit("Fig 3.6 fitness after reevaluation", format_rows(rows))
    emit("Fig 3.6 (reference) from-scratch on the same remainder", format_rows(scratch_rows))

    assert base.valid
    fits = [row["fitness"] for row in rows]
    assert all(row["valid"] for row in rows)
    # The gap between algorithms narrows: with the GA schedule as the
    # warm start everyone lands close together.
    reeval_gap = max(fits) - min(fits)
    scratch_fits = [row["from_scratch_fitness"] for row in scratch_rows]
    scratch_gap = max(scratch_fits) - min(scratch_fits)
    assert reeval_gap <= scratch_gap + 0.05
    assert reeval_gap < 0.25

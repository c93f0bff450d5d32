"""Scheduling a release pipeline's worth of experiments with Fenrir.

Fifteen experiments with mixed sample-size requirements compete for a
week of diurnal traffic.  The example compares the genetic algorithm
against the three baselines, prints the winning schedule as a plan
table, then exercises *reevaluation*: two experiments get canceled and
three new ones arrive at mid-week, and the schedule is rebuilt without
touching the experiments already running.

Run with::

    python examples/experiment_scheduling.py
"""

from repro.fenrir.annealing import SimulatedAnnealing
from repro.fenrir.generator import SampleSizeBand, random_experiments
from repro.fenrir.genetic import GeneticAlgorithm
from repro.fenrir.local_search import LocalSearch
from repro.fenrir.random_sampling import RandomSampling
from repro.fenrir.reevaluation import reevaluate
from repro.fenrir.scheduler import Fenrir
from repro.fenrir.visualize import schedule_gantt, utilization_sparkline
from repro.traffic.profile import diurnal_profile


def main() -> None:
    profile = diurnal_profile(days=7, peak_volume=60_000)
    experiments = random_experiments(
        profile, count=15, band=SampleSizeBand.MEDIUM, seed=4
    )

    print("=== algorithm comparison (equal evaluation budget)")
    results = {}
    for algorithm in (
        GeneticAlgorithm(),
        RandomSampling(),
        LocalSearch(),
        SimulatedAnnealing(),
    ):
        result = Fenrir(algorithm).schedule(
            profile, experiments, budget=1200, seed=1
        )
        results[algorithm.name] = result
        print(
            f"  {algorithm.name:13s} fitness={result.fitness:.3f} "
            f"valid={result.valid} "
            f"best_at_eval={result.search.history[-1][0]}"
        )

    best = results["genetic"]
    print("\n=== winning schedule (genetic algorithm)")
    header = (
        f"{'experiment':10s} {'start':>5s} {'end':>5s} {'frac':>6s} "
        f"{'samples':>9s} {'required':>9s}  groups"
    )
    print(header)
    for row in best.plan_table():
        print(
            f"{row['experiment']:10s} {row['start_slot']:5d} "
            f"{row['end_slot']:5d} {row['traffic_fraction']:6.3f} "
            f"{row['expected_samples']:9.0f} {row['required_samples']:9.0f}  "
            f"{','.join(row['groups'])}"
        )

    print("\n=== schedule as a Gantt strip")
    print(schedule_gantt(best.schedule))
    print("utilization: " + utilization_sparkline(best.schedule))

    print("\n=== reevaluation at slot 36 (day 2)")
    new_arrivals = random_experiments(
        profile, count=3, band=SampleSizeBand.LOW, seed=99
    )
    renamed = [
        type(spec)(**{**spec.__dict__, "name": f"new-{spec.name}"})
        for spec in new_arrivals
    ]
    plan, result = reevaluate(
        best.schedule,
        now_slot=36,
        algorithm=GeneticAlgorithm(),
        canceled={"exp002", "exp007"},
        new_experiments=renamed,
        budget=1200,
        seed=2,
    )
    print(f"  finished: {plan.finished}")
    print(f"  canceled: {plan.canceled}")
    print(f"  added:    {plan.added}")
    print(f"  locked (running) experiments: {len(plan.locked)}")
    print(f"  reevaluated fitness: {result.fitness:.3f} "
          f"(valid={result.best_evaluation.valid})")


if __name__ == "__main__":
    main()

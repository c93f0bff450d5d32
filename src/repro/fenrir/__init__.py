"""Fenrir: search-based scheduling of continuous experiments (Chapter 3).

Scheduling is formulated as an optimization problem over a discrete time
horizon and an expected traffic profile: each experiment needs a start
slot, a duration, a traffic fraction, and a set of user groups, such that
every experiment collects its required sample size, experiments never
oversubscribe a user group's traffic (no overlapping experiments), and
the schedule maximizes a fitness combining short durations, early starts,
and preferred-group coverage.

Four solvers are provided, mirroring the paper's comparison: a genetic
algorithm (Fenrir proper), random sampling, local search, and simulated
annealing — all driven by an equal fitness-evaluation budget in which
every evaluation is charged.
"""

from repro.fenrir.model import ExperimentSpec, SchedulingProblem
from repro.fenrir.schedule import Gene, Schedule
from repro.fenrir.fitness import (
    FitnessWeights,
    ScheduleEvaluation,
    evaluate,
)
from repro.fenrir.fastfit import EvalStats
from repro.fenrir.genetic import GeneticAlgorithm
from repro.fenrir.random_sampling import RandomSampling
from repro.fenrir.local_search import LocalSearch
from repro.fenrir.annealing import SimulatedAnnealing
from repro.fenrir.scheduler import Fenrir, SchedulingResult
from repro.fenrir.reevaluation import ReevaluationPlan, reevaluate
from repro.fenrir.generator import SampleSizeBand, random_experiments
from repro.fenrir.visualize import schedule_gantt, utilization_sparkline
from repro.fenrir.serialize import (
    schedule_from_dict,
    schedule_from_json,
    schedule_to_dict,
    schedule_to_json,
)

__all__ = [
    "ExperimentSpec",
    "SchedulingProblem",
    "Gene",
    "Schedule",
    "FitnessWeights",
    "ScheduleEvaluation",
    "evaluate",
    "EvalStats",
    "GeneticAlgorithm",
    "RandomSampling",
    "LocalSearch",
    "SimulatedAnnealing",
    "Fenrir",
    "SchedulingResult",
    "ReevaluationPlan",
    "reevaluate",
    "SampleSizeBand",
    "random_experiments",
    "schedule_gantt",
    "utilization_sparkline",
    "schedule_from_dict",
    "schedule_from_json",
    "schedule_to_dict",
    "schedule_to_json",
]

"""The framework facade: planning, executing, analyzing in one place.

``ExperimentationFramework`` is the top-level entry point a release
engineer (or the quickstart example) uses: plan a batch of experiments
with Fenrir, execute strategies with Bifrost on a simulated application,
and analyze the outcome with the topology-aware health assessment.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bifrost.middleware import Bifrost
from repro.bifrost.model import Strategy
from repro.core.experiment import Experiment
from repro.core.lifecycle import ExperimentLifecycle, LifecyclePhase
from repro.fenrir.scheduler import Fenrir, SchedulingResult
from repro.microservices.application import Application
from repro.topology.builder import build_interaction_graph
from repro.topology.diff import TopologyDiff, diff_graphs
from repro.topology.heuristics.base import RankingHeuristic
from repro.topology.heuristics.hybrid import all_heuristic_variants
from repro.topology.ranking import RankedChange, rank_changes
from repro.tracing.query import TraceQuery
from repro.traffic.profile import TrafficProfile


@dataclass
class AnalysisReport:
    """Outcome of the analysis phase: diff plus ranked changes."""

    diff: TopologyDiff
    ranking: list[RankedChange]
    heuristic: str

    def top(self, k: int = 5) -> list[RankedChange]:
        """The *k* highest-ranked changes."""
        return self.ranking[:k]


class ExperimentationFramework:
    """Wires the three life-cycle phases together."""

    def __init__(self, application: Application, seed: int = 42) -> None:
        self.application = application
        self.bifrost = Bifrost(application, seed=seed)
        self.lifecycles: dict[str, ExperimentLifecycle] = {}

    def register(self, experiment: Experiment) -> ExperimentLifecycle:
        """Track a new experiment from its design phase."""
        lifecycle = ExperimentLifecycle(experiment.name)
        self.lifecycles[experiment.name] = lifecycle
        return lifecycle

    # -- planning ------------------------------------------------------------

    def plan(
        self,
        profile: TrafficProfile,
        experiments: list[Experiment],
        budget: int = 2000,
        seed: int = 0,
    ) -> SchedulingResult:
        """Schedule *experiments* over *profile* with Fenrir."""
        specs = [e.to_scheduling_spec() for e in experiments]
        result = Fenrir().schedule(profile, specs, budget=budget, seed=seed)
        for experiment in experiments:
            lifecycle = self.lifecycles.get(experiment.name)
            if lifecycle is None:
                lifecycle = self.register(experiment)
            lifecycle.advance(LifecyclePhase.PLANNED, result)
        return result

    # -- execution -----------------------------------------------------------

    def execute(self, strategy: Strategy, experiment_name: str | None = None):
        """Submit a Bifrost strategy; returns the execution handle."""
        execution = self.bifrost.submit(strategy)
        name = experiment_name or strategy.name
        lifecycle = self.lifecycles.get(name)
        if lifecycle is not None and lifecycle.phase is LifecyclePhase.PLANNED:
            lifecycle.advance(LifecyclePhase.EXECUTING, execution)
        return execution

    # -- analysis ------------------------------------------------------------

    def analyze(
        self,
        baseline_window: tuple[float, float],
        experimental_window: tuple[float, float],
        heuristic: RankingHeuristic | None = None,
        experiment_name: str | None = None,
    ) -> AnalysisReport:
        """Diff the interaction graphs of two time windows and rank changes.

        *baseline_window* should cover traffic before the experiment
        touched routing; *experimental_window* the traffic during it.
        """
        collector = self.bifrost.collector
        base_traces = TraceQuery(collector).in_window(*baseline_window).run()
        exp_traces = TraceQuery(collector).in_window(*experimental_window).run()
        diff = diff_graphs(
            build_interaction_graph(base_traces, "baseline"),
            build_interaction_graph(exp_traces, "experimental"),
        )
        chosen = heuristic or all_heuristic_variants()["HY-rel"]
        ranking = rank_changes(diff, chosen)
        report = AnalysisReport(diff=diff, ranking=ranking, heuristic=chosen.name)
        if experiment_name is not None:
            lifecycle = self.lifecycles.get(experiment_name)
            if lifecycle is not None and lifecycle.phase is LifecyclePhase.EXECUTING:
                lifecycle.advance(LifecyclePhase.ANALYZED, report)
        return report

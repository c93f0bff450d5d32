"""Integration tests: whole subsystems working together."""


from repro.bifrost.dsl import parse_strategy
from repro.bifrost.middleware import Bifrost
from repro.bifrost.model import StrategyOutcome
from repro.core.experiment import Experiment, ExperimentPractice
from repro.core.framework import ExperimentationFramework
from repro.core.lifecycle import LifecyclePhase
from repro.fenrir.generator import random_experiments
from repro.fenrir.genetic import GeneticAlgorithm
from repro.fenrir.scheduler import Fenrir
from repro.microservices.service import (
    EndpointSpec,
    ServiceVersion,
)
from repro.simulation.latency import LoadSensitiveLatency, LogNormalLatency
from repro.topology.builder import build_interaction_graph
from repro.topology.diff import diff_graphs
from repro.topology.scenarios import sample_application
from repro.tracing.query import TraceQuery
from repro.traffic.profile import DEFAULT_GROUPS, diurnal_profile
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator


def deploy_recommend_variants(app):
    for version, median in (("1.0.0", 14.0), ("2.0.0", 18.0)):
        app.deploy(
            ServiceVersion(
                "recommend",
                version,
                {
                    "suggest": EndpointSpec(
                        "suggest",
                        LoadSensitiveLatency(LogNormalLatency(median, 0.25)),
                    )
                },
                capacity_rps=400.0,
            ),
            stable=(version == "1.0.0"),
        )


class TestDslToCompletion:
    DSL = """
strategy canary-then-rollout
  phase canary
    type canary
    service recommend
    stable 1.0.0
    experimental 2.0.0
    fraction 0.2
    duration 40
    interval 5
    check err
      metric error
      aggregation mean
      operator <=
      threshold 0.05
      window 20
    on_success rollout
    on_failure rollback
  phase rollout
    type gradual_rollout
    service recommend
    stable 1.0.0
    experimental 2.0.0
    steps 0.5, 1.0
    duration 40
    interval 5
    on_success complete
    on_failure rollback
"""

    def test_full_pipeline(self):
        app = sample_application()
        deploy_recommend_variants(app)
        bifrost = Bifrost(app, seed=13)
        execution = bifrost.submit(self.DSL, at=1.0)
        population = UserPopulation(600, DEFAULT_GROUPS, seed=14)
        # Traffic must hit the recommend service: use it as entry here.
        workload = WorkloadGenerator(population, entry="recommend.suggest", seed=15)
        bifrost.run(workload.poisson(40.0, 110.0), until=130.0)
        assert execution.outcome is StrategyOutcome.COMPLETED
        assert app.stable_version("recommend") == "2.0.0"

    def test_traces_reflect_experiment(self):
        app = sample_application()
        deploy_recommend_variants(app)
        bifrost = Bifrost(app, seed=16)
        bifrost.submit(self.DSL, at=1.0)
        population = UserPopulation(600, DEFAULT_GROUPS, seed=17)
        workload = WorkloadGenerator(population, entry="recommend.suggest", seed=18)
        bifrost.run(workload.poisson(40.0, 110.0), until=130.0)
        experimental = sum(
            any((span.service, span.version) == ("recommend", "2.0.0") for span in trace)
            for trace in bifrost.collector.traces()
        )
        assert experimental > 0


class TestPlanningToAnalysis:
    def test_framework_tracks_lifecycle(self):
        app = sample_application()
        deploy_recommend_variants(app)
        framework = ExperimentationFramework(app, seed=19)

        experiment = Experiment(
            "rec-canary",
            "recommend",
            ExperimentPractice.CANARY_RELEASE,
            required_samples=200.0,
        )
        framework.register(experiment)

        profile = diurnal_profile(days=2, seed=20)
        plan = framework.plan(profile, [experiment], budget=300, seed=1)
        assert plan.valid
        lifecycle = framework.lifecycles["rec-canary"]
        assert lifecycle.phase is LifecyclePhase.PLANNED

        strategy = parse_strategy(
            """
strategy rec-canary
  phase canary
    type canary
    service recommend
    stable 1.0.0
    experimental 2.0.0
    fraction 0.2
    duration 30
    interval 5
"""
        )
        population = UserPopulation(500, DEFAULT_GROUPS, seed=21)
        workload = WorkloadGenerator(population, entry="recommend.suggest", seed=22)
        framework.bifrost.run(workload.poisson(30.0, 20.0), until=20.0)
        framework.execute(strategy)
        assert lifecycle.phase is LifecyclePhase.EXECUTING
        framework.bifrost.run(
            workload.poisson(30.0, 60.0, start=20.0), until=90.0
        )

        report = framework.analyze(
            baseline_window=(0.0, 20.0),
            experimental_window=(20.0, 90.0),
            experiment_name="rec-canary",
        )
        assert lifecycle.phase is LifecyclePhase.ANALYZED
        assert report.diff.changes  # the canary version shows up
        assert report.top(3)


class TestSchedulerOnRealisticProfile:
    def test_schedule_then_execute_shapes(self):
        profile = diurnal_profile(days=7, seed=23)
        experiments = random_experiments(profile, 10, seed=24)
        result = Fenrir(GeneticAlgorithm(population_size=16)).schedule(
            profile, experiments, budget=800, seed=2
        )
        assert result.valid
        rows = result.plan_table()
        # Every experiment collects its required samples.
        for row in rows:
            assert row["expected_samples"] >= row["required_samples"] * 0.999


class TestTopologyFromRuntimeTraces:
    def test_diff_detects_canary_from_live_traces(self):
        app = sample_application()
        deploy_recommend_variants(app)
        bifrost = Bifrost(app, seed=25)
        population = UserPopulation(400, DEFAULT_GROUPS, seed=26)
        workload = WorkloadGenerator(population, entry="recommend.suggest", seed=27)
        # Baseline traffic without any experiment.
        bifrost.run(workload.poisson(30.0, 30.0), until=30.0)
        baseline_traces = TraceQuery(bifrost.collector).in_window(0, 30).run()

        strategy = parse_strategy(
            """
strategy c
  phase canary
    type canary
    service recommend
    stable 1.0.0
    experimental 2.0.0
    fraction 0.3
    duration 60
    interval 5
"""
        )
        bifrost.submit(strategy)
        bifrost.run(workload.poisson(30.0, 60.0, start=30.0), until=95.0)
        exp_traces = TraceQuery(bifrost.collector).in_window(31.0, 95.0).run()

        diff = diff_graphs(
            build_interaction_graph(baseline_traces, "base"),
            build_interaction_graph(exp_traces, "exp"),
        )
        identities = {c.identity for c in diff.changes}
        assert any("recommend" in str(i) for i in identities)

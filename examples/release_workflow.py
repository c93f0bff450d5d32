"""A release engineer's full workflow with the extension features.

Shows the pieces the dissertation sketches as future work, implemented
here: the implementation-technique advisor (smart experimentation
platforms), static experiment verification before execution, and
mid-flight cancellation with the diff visualization for the post-mortem.

Run with::

    python examples/release_workflow.py
"""

from repro.bifrost.dsl import parse_strategy
from repro.bifrost.middleware import Bifrost
from repro.core.advisor import PlatformContext, advise_technique
from repro.core.experiment import Experiment, ExperimentPractice
from repro.microservices.service import EndpointSpec, ServiceVersion
from repro.simulation.latency import LogNormalLatency
from repro.topology.builder import build_interaction_graph
from repro.topology.diff import diff_graphs
from repro.topology.heuristics.hybrid import HybridHeuristic
from repro.topology.ranking import rank_changes
from repro.topology.scenarios import sample_application
from repro.topology.visualize import diff_report
from repro.tracing.query import TraceQuery
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator
from repro.verification.strategy import verify_strategy

STRATEGY = """
strategy search-canary
  description "Canary for the reworked search service"
  phase canary
    type canary
    service search
    stable 1.0.0
    experimental 2.0.0
    fraction 0.15
    duration 240
    interval 5
    check errors
      metric error
      aggregation mean
      operator <=
      threshold 0.05
      window 30
    check latency
      metric response_time
      aggregation mean
      operator <=
      baseline 1.0.0
      tolerance 1.4
      window 30
"""


def main() -> None:
    app = sample_application()
    app.deploy(
        ServiceVersion(
            "search",
            "2.0.0",
            {
                "query": EndpointSpec(
                    "query",
                    LogNormalLatency(22.0, 0.25),
                    calls=app.resolve("search").endpoint("query").calls,
                )
            },
            capacity_rps=500.0,
        )
    )

    # 1. Which implementation technique fits this experiment?
    experiment = Experiment(
        "search-canary", "search", ExperimentPractice.CANARY_RELEASE
    )
    advice = advise_technique(
        experiment,
        PlatformContext(expected_rps=30.0, instance_capacity_rps=500.0,
                        active_toggles_on_service=12),
    )
    print(f"advisor: {advice.describe()}\n")

    # 2. Verify the strategy before touching production.
    strategy = parse_strategy(STRATEGY)
    bifrost = Bifrost(app, seed=71)
    report = verify_strategy(strategy, app, bifrost.router)
    print(report.describe())
    if not report.ok:
        raise SystemExit("verification failed — not executing")

    # 3. Execute — and cancel mid-flight (business priorities changed).
    population = UserPopulation(800, DEFAULT_GROUPS, seed=72)
    workload = WorkloadGenerator(population, entry="frontend.index", seed=73)
    bifrost.run(workload.poisson(50.0, 40.0), until=40.0)  # baseline window
    execution = bifrost.submit(strategy, at=41.0)
    bifrost.run(workload.poisson(50.0, 80.0, start=40.0), until=120.0)
    bifrost.engine.cancel("search-canary")
    print(f"\ncanceled at t=120s; outcome: {execution.outcome.value}")
    print(f"stable search version is still: {app.stable_version('search')}")

    # 4. Post-mortem: what did the experiment change, topologically?
    baseline_traces = TraceQuery(bifrost.collector).in_window(0, 40).run()
    exp_traces = TraceQuery(bifrost.collector).in_window(41, 120).run()
    diff = diff_graphs(
        build_interaction_graph(baseline_traces, "baseline"),
        build_interaction_graph(exp_traces, "experimental"),
    )
    ranking = rank_changes(diff, HybridHeuristic(relative=True))
    print()
    print(diff_report(diff, ranking, top=3))


if __name__ == "__main__":
    main()

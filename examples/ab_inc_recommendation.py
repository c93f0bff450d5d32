"""The dissertation's motivating example, end to end.

AB Inc hosts an e-commerce platform and wants to ship a recommendation
feature.  The release engineer runs a *multi-phase* experiment —
a canary release, then a dark launch probing scalability, then an A/B
test between two recommendation variants, then a gradual rollout of the
winner — written in the Bifrost DSL ("experimentation-as-code").
Afterwards the topology-aware health assessment diffs the interaction
graphs from before and during the experiment and ranks the identified
changes.

Run with::

    python examples/ab_inc_recommendation.py
"""

from repro.bifrost.middleware import Bifrost
from repro.microservices.service import DownstreamCall, EndpointSpec, ServiceVersion
from repro.simulation.latency import LoadSensitiveLatency, LogNormalLatency
from repro.topology.builder import build_interaction_graph
from repro.topology.diff import diff_graphs
from repro.topology.heuristics.hybrid import all_heuristic_variants
from repro.topology.ranking import rank_changes, ranking_table
from repro.topology.scenarios import sample_application
from repro.tracing.query import TraceQuery
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator

STRATEGY_DSL = """
strategy recommendation-feature
  description "AB Inc recommendation feature: canary, dark launch, A/B, rollout"
  phase canary
    type canary
    service recommend
    stable 1.0.0
    experimental 2.0.0
    fraction 0.05
    duration 60
    interval 5
    check errors
      metric error
      aggregation mean
      operator <=
      threshold 0.05
      window 30
    on_success scale-probe
    on_failure rollback
  phase scale-probe
    type dark_launch
    service recommend
    stable 1.0.0
    experimental 2.0.0
    duration 60
    interval 5
    check latency
      metric response_time
      aggregation p95
      operator <=
      threshold 120
      window 30
    on_success compare
    on_failure rollback
  phase compare
    type ab_test
    service recommend
    stable 1.0.0
    experimental 2.0.0
    second 2.1.0
    fraction 0.5
    duration 120
    interval 10
    winner_metric response_time
    winner_aggregation mean
    on_success rollout
    on_failure rollback
  phase rollout
    type gradual_rollout
    service recommend
    stable 1.0.0
    experimental 2.0.0
    steps 0.2, 0.5, 1.0
    duration 90
    interval 5
    check errors
      metric error
      aggregation mean
      operator <=
      threshold 0.05
      window 30
    on_success complete
    on_failure rollback
"""


def build_application():
    """The sample app plus the recommendation service and its variants."""
    app = sample_application()
    # Frontend 1.1.0 consults the recommendation service.
    app.deploy(
        ServiceVersion(
            "frontend",
            "1.1.0",
            {
                "index": EndpointSpec(
                    "index",
                    LoadSensitiveLatency(LogNormalLatency(12.0, 0.25)),
                    calls=(
                        DownstreamCall("catalog", "list"),
                        DownstreamCall("cart", "view", probability=0.6),
                        DownstreamCall("recommend", "suggest"),
                    ),
                )
            },
            capacity_rps=500.0,
        ),
        stable=True,
    )
    for version, median in (("1.0.0", 14.0), ("2.0.0", 18.0), ("2.1.0", 11.0)):
        app.deploy(
            ServiceVersion(
                "recommend",
                version,
                {
                    "suggest": EndpointSpec(
                        "suggest",
                        LoadSensitiveLatency(LogNormalLatency(median, 0.25)),
                        calls=(DownstreamCall("catalog", "list", probability=0.5),),
                    )
                },
                capacity_rps=400.0,
            ),
            stable=(version == "1.0.0"),
        )
    return app


def main() -> None:
    app = build_application()
    bifrost = Bifrost(app, seed=11)
    population = UserPopulation(1200, DEFAULT_GROUPS, seed=5)
    workload = WorkloadGenerator(population, entry="frontend.index", seed=6)

    # Phase 0: collect baseline traffic before the experiment starts.
    bifrost.run(workload.poisson(60.0, 60.0), until=60.0)
    execution = bifrost.submit(STRATEGY_DSL, at=61.0)
    bifrost.run(workload.poisson(60.0, 520.0, start=60.0), until=600.0)

    print(f"strategy outcome: {execution.outcome.value}")
    print(f"A/B winner:       {execution.winner}")
    print(f"stable recommend: {app.stable_version('recommend')}")
    print("transitions:")
    for record in execution.transitions:
        print(
            f"  {record.time:7.1f}s  {record.source:12s} -> "
            f"{record.target:12s} [{record.trigger}]"
        )

    # Analysis: diff interaction graphs from before vs during the A/B.
    collector = bifrost.collector
    baseline_traces = TraceQuery(collector).in_window(0.0, 60.0).run()
    experimental_traces = TraceQuery(collector).in_window(61.0, 600.0).run()
    diff = diff_graphs(
        build_interaction_graph(baseline_traces, "baseline"),
        build_interaction_graph(experimental_traces, "experimental"),
    )
    print(f"\ntopological difference: {diff.summary()}")
    heuristic = all_heuristic_variants()["HY-rel"]
    ranking = rank_changes(diff, heuristic)
    print(f"change ranking ({heuristic.name}):")
    print(ranking_table(ranking, limit=8))


if __name__ == "__main__":
    main()

"""Live health: a canary gated on the streaming topology pipeline.

Instead of batch-analyzing traces after an experiment ends, the
streaming pipeline folds every completed trace into a live interaction
graph, diffs it against a baseline pinned before the rollout, scores
per-service health, and publishes ``health.score`` metrics — which a
Bifrost ``kind health`` check gates on while the canary is still
running.  The same strategy is run twice: against a faulty 2.0.0 (60 %
errors, rolled back by the health gate) and against a healthy 2.0.0
(promoted).

Run with::

    python examples/streaming_health.py
"""

from repro.bifrost.middleware import Bifrost
from repro.microservices.service import EndpointSpec, ServiceVersion
from repro.simulation.latency import LoadSensitiveLatency, LogNormalLatency
from repro.topology.scenarios import sample_application
from repro.topology.streaming import HEALTH_METRIC, HEALTH_VERSION
from repro.topology.visualize import topology_health_panel
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator

STRATEGY = """
strategy health-gated-canary
  phase canary
    type canary
    service recommend
    stable 1.0.0
    experimental 2.0.0
    fraction 0.3
    duration 45
    interval 5
    check live-health
      kind health
      threshold 0.8
      window 20
    on_success complete
    on_failure rollback
"""


def deploy_recommend(app, error_rate: float) -> None:
    for version, median, err in (("1.0.0", 14.0, 0.0), ("2.0.0", 15.0, error_rate)):
        app.deploy(
            ServiceVersion(
                "recommend",
                version,
                {
                    "suggest": EndpointSpec(
                        "suggest",
                        LoadSensitiveLatency(LogNormalLatency(median, 0.25)),
                        error_rate=err,
                    )
                },
                capacity_rps=400.0,
            ),
            stable=(version == "1.0.0"),
        )


def run_canary(label: str, error_rate: float, seed: int) -> None:
    app = sample_application()
    deploy_recommend(app, error_rate)
    bifrost = Bifrost(app, seed=seed)
    population = UserPopulation(600, DEFAULT_GROUPS, seed=seed + 1)
    workload = WorkloadGenerator(population, entry="recommend.suggest", seed=seed + 2)

    # Warmup traffic on the stable version becomes the pinned baseline.
    bifrost.run(workload.poisson(40.0, 30.0), until=30.0)
    monitor = bifrost.enable_live_health(publish_interval=2.0)
    execution = bifrost.submit(STRATEGY, at=31.0)
    bifrost.run(workload.poisson(40.0, 60.0, start=31.0), until=100.0)

    print(f"\n=== {label} (experimental error rate {error_rate:.0%})")
    print(f"strategy outcome: {execution.outcome.value}")
    print(f"stable version now: {bifrost.application.stable_version('recommend')}")
    print(
        f"traces folded: {bifrost.streaming_builder.trace_count}, "
        f"health publications: {monitor.publishes}"
    )

    scores = bifrost.store.values_in_window(
        "recommend", HEALTH_VERSION, HEALTH_METRIC, 0.0, 1e9
    )
    print(
        f"recommend health over the run: min={min(scores):.3f} "
        f"max={max(scores):.3f} last={scores[-1]:.3f}"
    )

    print("\nlive dashboard:")
    print(topology_health_panel(monitor.last_report, diff=monitor.live.current()))


def main() -> None:
    run_canary("faulty rollout", error_rate=0.6, seed=101)
    run_canary("healthy rollout", error_rate=0.0, seed=202)


if __name__ == "__main__":
    main()

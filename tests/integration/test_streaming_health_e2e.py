"""End-to-end: the streaming health pipeline gating Bifrost strategies.

The closed Ch. 4 ↔ Ch. 5 loop: runtime traces stream into the live
topology pipeline, the pipeline publishes ``health.score`` metrics, and
a canary phase with a ``kind health`` check promotes or rolls back on
them.  A broken experimental version (injected endpoint fault) must fail
the health gate; a healthy one must pass it.
"""

from repro.bifrost.middleware import Bifrost
from repro.bifrost.model import StrategyOutcome
from repro.microservices.service import EndpointSpec, ServiceVersion
from repro.simulation.latency import LoadSensitiveLatency, LogNormalLatency
from repro.topology.scenarios import sample_application
from repro.topology.streaming import HEALTH_METRIC, HEALTH_VERSION
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator

HEALTH_GATED_CANARY = """
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


def deploy_recommend(app, experimental_error_rate: float = 0.0):
    for version, median, err in (
        ("1.0.0", 14.0, 0.0),
        ("2.0.0", 15.0, experimental_error_rate),
    ):
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


def run_gated_canary(seed: int, experimental_error_rate: float):
    app = sample_application()
    deploy_recommend(app, experimental_error_rate)
    bifrost = Bifrost(app, seed=seed)
    population = UserPopulation(600, DEFAULT_GROUPS, seed=seed + 1)
    workload = WorkloadGenerator(
        population, entry="recommend.suggest", seed=seed + 2
    )
    # Warmup on the stable version only: these traces become the pinned
    # baseline graph the live diff compares against.
    bifrost.run(workload.poisson(40.0, 30.0), until=30.0)
    bifrost.enable_live_health(publish_interval=2.0)
    execution = bifrost.submit(HEALTH_GATED_CANARY, at=31.0)
    bifrost.run(workload.poisson(40.0, 60.0, start=31.0), until=100.0)
    return bifrost, execution


class TestHealthGatedCanary:
    def test_faulty_experimental_version_fails_health_gate(self):
        bifrost, execution = run_gated_canary(
            seed=101, experimental_error_rate=0.6
        )
        assert execution.outcome is StrategyOutcome.ROLLED_BACK
        # The decision came from the health check, not a timeout.
        failed = [
            r for r in execution.check_log if r.outcome.value == "fail"
        ]
        assert failed, "expected at least one failing health evaluation"
        assert all(r.check.kind == "health" for r in failed)
        assert bifrost.application.stable_version("recommend") == "1.0.0"

    def test_healthy_experimental_version_passes_health_gate(self):
        bifrost, execution = run_gated_canary(
            seed=202, experimental_error_rate=0.0
        )
        assert execution.outcome is StrategyOutcome.COMPLETED
        assert bifrost.application.stable_version("recommend") == "2.0.0"

    def test_health_metrics_published_into_shared_store(self):
        bifrost, _execution = run_gated_canary(
            seed=303, experimental_error_rate=0.6
        )
        values = bifrost.store.values_in_window(
            "recommend", HEALTH_VERSION, HEALTH_METRIC, 0.0, 1e9
        )
        assert values, "live health scores should be in the metric store"
        assert all(0.0 <= v <= 1.0 for v in values)
        assert bifrost.live_health is not None
        assert bifrost.live_health.publishes > 0
        # The faulty canary must have dragged the score below the gate.
        assert min(values) < 0.8

    def test_streaming_builder_saw_the_runtime_traces(self):
        bifrost, _execution = run_gated_canary(
            seed=404, experimental_error_rate=0.0
        )
        builder = bifrost.streaming_builder
        assert builder is not None
        assert builder.trace_count > 0
        assert builder.graph.has_node(("recommend", "2.0.0", "suggest"))

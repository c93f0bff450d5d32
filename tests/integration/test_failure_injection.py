"""Failure-injection integration tests.

The dissertation's central safety claim is that conditional chaining
keeps "the impact of failing experiments low": when something breaks
mid-experiment, the automated fallback transitions fire.  These tests
inject faults *while strategies are running* and verify the system's
reaction end to end.
"""


from repro.bifrost.middleware import Bifrost
from repro.bifrost.model import (
    Check,
    Phase,
    PhaseType,
    Strategy,
    StrategyOutcome,
)
from repro.microservices.faults import FaultInjector
from repro.stats.sequential import SequentialProbabilityRatioTest, SprtDecision
from repro.topology.builder import build_interaction_graph
from repro.topology.diff import diff_graphs
from repro.topology.heuristics.response_time import ResponseTimeHeuristic
from repro.topology.ranking import rank_changes
from repro.topology.scenarios import sample_application
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator
from tests.conftest import constant_endpoint
from repro.microservices.service import ServiceVersion


def deploy_catalog_canary(app):
    stable = app.resolve("catalog")
    app.deploy(
        ServiceVersion(
            "catalog",
            "2.0.0",
            {
                "list": constant_endpoint(
                    "list", 20.0, calls=stable.endpoint("list").calls
                )
            },
            capacity_rps=stable.capacity_rps,
        )
    )


def canary_strategy(duration=300.0, error_threshold=0.1) -> Strategy:
    return Strategy(
        "catalog-canary",
        (
            Phase(
                name="canary",
                type=PhaseType.CANARY,
                service="catalog",
                stable_version="1.0.0",
                experimental_version="2.0.0",
                fraction=0.3,
                duration_seconds=duration,
                check_interval_seconds=5.0,
                checks=(
                    Check(
                        name="errors",
                        service="catalog",
                        version="2.0.0",
                        metric="error",
                        aggregation="mean",
                        operator="<=",
                        threshold=error_threshold,
                        window_seconds=20.0,
                    ),
                    Check(
                        name="latency",
                        service="catalog",
                        version="2.0.0",
                        metric="response_time",
                        aggregation="mean",
                        operator="<=",
                        baseline_version="1.0.0",
                        tolerance=1.5,
                        window_seconds=20.0,
                    ),
                ),
            ),
        ),
    )


class TestMidFlightFaults:
    def _run(
        self,
        fault_at: float,
        latency_factor=1.0,
        added_error_rate=0.0,
        duration=180.0,
    ):
        app = sample_application()
        deploy_catalog_canary(app)
        bifrost = Bifrost(app, seed=41)
        execution = bifrost.submit(canary_strategy(duration=duration), at=1.0)
        injector = FaultInjector(app)
        population = UserPopulation(500, DEFAULT_GROUPS, seed=42)
        workload = WorkloadGenerator(population, entry="frontend.index", seed=43)

        injected = False
        for request in workload.poisson(40.0, 200.0):
            if not injected and request.timestamp >= fault_at:
                injector.degrade(
                    "catalog",
                    "2.0.0",
                    "list",
                    latency_factor=latency_factor,
                    added_error_rate=added_error_rate,
                )
                injected = True
            bifrost.simulation.run_until(
                max(request.timestamp, bifrost.simulation.now)
            )
            bifrost.runtime.execute(request)
        bifrost.simulation.run_until(320.0)
        return app, execution

    def test_error_burst_triggers_rollback(self):
        app, execution = self._run(fault_at=60.0, added_error_rate=1.0)
        assert execution.outcome is StrategyOutcome.ROLLED_BACK
        assert app.stable_version("catalog") == "1.0.0"
        failure = [t for t in execution.transitions if t.trigger == "failure"]
        assert failure and failure[0].time > 60.0

    def test_latency_regression_triggers_rollback(self):
        app, execution = self._run(fault_at=60.0, latency_factor=4.0)
        assert execution.outcome is StrategyOutcome.ROLLED_BACK

    def test_healthy_run_completes(self):
        app, execution = self._run(fault_at=1e9)  # never inject
        assert execution.outcome is StrategyOutcome.COMPLETED
        assert app.stable_version("catalog") == "2.0.0"

    def test_rollback_detected_by_relative_check_only_on_canary(self):
        # Degrading the *stable* version must NOT fail the experiment:
        # the relative check compares canary against the (also slower)
        # baseline, so the canary stays within tolerance.
        app = sample_application()
        deploy_catalog_canary(app)
        bifrost = Bifrost(app, seed=44)
        execution = bifrost.submit(canary_strategy(duration=120.0), at=1.0)
        injector = FaultInjector(app)
        injector.degrade("catalog", "1.0.0", "list", latency_factor=2.0)
        population = UserPopulation(500, DEFAULT_GROUPS, seed=45)
        workload = WorkloadGenerator(population, entry="frontend.index", seed=46)
        bifrost.run(workload.poisson(40.0, 140.0), until=160.0)
        assert execution.outcome is StrategyOutcome.COMPLETED


class TestSprtOnLiveErrors:
    def test_sprt_rejects_on_degraded_canary_traffic(self):
        """Wald's SPRT over live per-request errors spots the regression."""
        app = sample_application()
        deploy_catalog_canary(app)
        injector = FaultInjector(app)
        injector.degrade("catalog", "2.0.0", "list", added_error_rate=0.3)
        bifrost = Bifrost(app, seed=47)
        bifrost.submit(canary_strategy(error_threshold=1.0), at=0.0)

        sprt = SequentialProbabilityRatioTest(p0=0.01, p1=0.2)
        population = UserPopulation(400, DEFAULT_GROUPS, seed=48)
        workload = WorkloadGenerator(population, entry="frontend.index", seed=49)
        for request in workload.poisson(40.0, 120.0):
            bifrost.simulation.run_until(
                max(request.timestamp, bifrost.simulation.now)
            )
            outcome = bifrost.runtime.execute(request)
            if ("catalog", "2.0.0") in outcome.version_path:
                if sprt.observe(outcome.error) is not SprtDecision.CONTINUE:
                    break
        assert sprt.decision is SprtDecision.REJECT_NULL

    def test_sprt_accepts_on_healthy_canary(self):
        app = sample_application()
        deploy_catalog_canary(app)
        bifrost = Bifrost(app, seed=50)
        bifrost.submit(canary_strategy(error_threshold=1.0), at=0.0)
        sprt = SequentialProbabilityRatioTest(p0=0.01, p1=0.2)
        population = UserPopulation(400, DEFAULT_GROUPS, seed=51)
        workload = WorkloadGenerator(population, entry="frontend.index", seed=52)
        for request in workload.poisson(40.0, 120.0):
            bifrost.simulation.run_until(
                max(request.timestamp, bifrost.simulation.now)
            )
            outcome = bifrost.runtime.execute(request)
            if ("catalog", "2.0.0") in outcome.version_path:
                if sprt.observe(outcome.error) is not SprtDecision.CONTINUE:
                    break
        assert sprt.decision is SprtDecision.ACCEPT_NULL


class TestPostMortemAnalysis:
    def test_rt_heuristic_pinpoints_injected_fault(self):
        """After a degraded canary, the RT heuristic names the culprit."""
        app = sample_application()
        deploy_catalog_canary(app)

        # Healthy baseline window.
        bifrost = Bifrost(app, seed=53)
        population = UserPopulation(400, DEFAULT_GROUPS, seed=54)
        workload = WorkloadGenerator(population, entry="frontend.index", seed=55)
        bifrost.run(workload.poisson(40.0, 40.0), until=40.0)

        injector = FaultInjector(app)
        injector.degrade("catalog", "2.0.0", "list", latency_factor=4.0)
        bifrost.submit(canary_strategy(error_threshold=1.0), at=41.0)
        bifrost.run(workload.poisson(40.0, 80.0, start=40.0), until=125.0)

        from repro.tracing.query import TraceQuery

        base_traces = TraceQuery(bifrost.collector).in_window(0, 40).run()
        exp_traces = TraceQuery(bifrost.collector).in_window(45, 125).run()
        diff = diff_graphs(
            build_interaction_graph(base_traces, "base"),
            build_interaction_graph(exp_traces, "exp"),
        )
        ranking = rank_changes(diff, ResponseTimeHeuristic())
        assert ranking
        top = ranking[0].change
        assert top.anchor.service == "catalog"

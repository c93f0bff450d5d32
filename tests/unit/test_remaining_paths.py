"""Tests for remaining code paths across subsystems."""

from repro.bifrost.middleware import Bifrost
from repro.bifrost.model import (
    Check,
    Phase,
    PhaseType,
    Strategy,
    StrategyOutcome,
    check_to_dict,
)
from repro.microservices.service import ServiceVersion
from repro.traffic.profile import UserGroup
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator
from tests.conftest import constant_endpoint

GROUPS = (UserGroup("eu", 0.6), UserGroup("na", 0.4))


class TestFrameworkAnalyzeOptions:
    def test_custom_heuristic_selected(self, canary_app):
        from repro.core.framework import ExperimentationFramework
        from repro.topology.heuristics.subtree import SubtreeComplexityHeuristic

        framework = ExperimentationFramework(canary_app, seed=5)
        population = UserPopulation(150, GROUPS, seed=6)
        workload = WorkloadGenerator(population, entry="frontend.home", seed=7)
        framework.bifrost.run(workload.poisson(20.0, 20.0), until=20.0)
        framework.bifrost.run(
            workload.poisson(20.0, 20.0, start=20.0), until=40.0
        )
        report = framework.analyze(
            (0.0, 20.0), (20.0, 40.0),
            heuristic=SubtreeComplexityHeuristic(),
        )
        assert report.heuristic == "SC"


class TestWinnerFollowThrough:
    def run_ab_then_rollout(self, canary_app, durable=False):
        canary_app.deploy(
            ServiceVersion(
                "backend", "2.1.0", {"api": constant_endpoint("api", 10.0)}
            )
        )
        ab = Phase(
            name="ab",
            type=PhaseType.AB_TEST,
            service="backend",
            stable_version="1.0.0",
            experimental_version="2.0.0",
            second_version="2.1.0",
            fraction=0.5,
            duration_seconds=40.0,
            check_interval_seconds=5.0,
            on_success="rollout",
        )
        rollout = Phase(
            name="rollout",
            type=PhaseType.GRADUAL_ROLLOUT,
            service="backend",
            stable_version="1.0.0",
            experimental_version="2.0.0",
            steps=(0.5, 1.0),
            duration_seconds=40.0,
            check_interval_seconds=5.0,
            checks=(
                Check(
                    name="errors",
                    service="backend",
                    version="2.0.0",  # written against the declared version
                    metric="error",
                    aggregation="mean",
                    operator="<=",
                    threshold=0.1,
                    window_seconds=20.0,
                ),
            ),
        )
        strategy = Strategy("s", (ab, rollout))
        bifrost = Bifrost(canary_app, seed=8, durable=durable)
        execution = bifrost.submit(strategy, at=1.0)
        population = UserPopulation(300, GROUPS, seed=9)
        workload = WorkloadGenerator(population, entry="frontend.home", seed=10)
        bifrost.run(workload.poisson(40.0, 100.0), until=120.0)
        return bifrost, execution

    def test_rollout_checks_follow_ab_winner(self, canary_app):
        """After the A/B picks 2.1.0, the rollout phase's checks written
        against 2.0.0 must evaluate 2.1.0 instead (and pass)."""
        _, execution = self.run_ab_then_rollout(canary_app)
        assert execution.winner == "2.1.0"
        assert execution.outcome is StrategyOutcome.COMPLETED
        # The rollout's check log must show evaluations against 2.1.0.
        rollout_checks = [
            r for r in execution.check_log if r.check.version == "2.1.0"
        ]
        assert rollout_checks
        assert canary_app.stable_version("backend") == "2.1.0"

    def test_tick_records_journal_the_checks_evaluated(self, canary_app):
        """Each phase's tick records carry that phase's effective checks
        (the memoised canonical text is per phase, winner substituted)."""
        bifrost, execution = self.run_ab_then_rollout(canary_app, durable=True)
        ticks = [r for r in bifrost.journal.records() if r.kind == "tick"]
        journaled = [
            (r.data["phase"], r.time, entry["check"], entry["outcome"])
            for r in ticks
            for entry in r.data["checks"]
        ]
        assert {phase for phase, *_ in journaled} == {"rollout"}
        assert journaled == [
            ("rollout", result.time, check_to_dict(result.check), result.outcome.value)
            for result in execution.check_log
        ]
        assert {check["version"] for _, _, check, _ in journaled} == {"2.1.0"}


class TestVerificationReporting:
    def test_clean_report_describe(self, canary_app):
        from repro.verification.strategy import verify_strategy
        from tests.unit.test_verification import strategy_for

        report = verify_strategy(strategy_for(canary_app), canary_app)
        assert "no findings" in report.describe()

    def test_findings_listed_in_describe(self, canary_app):
        from repro.verification.strategy import verify_strategy
        from tests.unit.test_verification import strategy_for

        strategy = strategy_for(canary_app, experimental_version="9.9.9")
        report = verify_strategy(strategy, canary_app)
        text = report.describe()
        assert "version-not-deployed" in text
        assert "ERROR" in text

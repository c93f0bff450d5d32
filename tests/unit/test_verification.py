"""Unit tests for static experiment verification."""


from repro.bifrost.model import Check, Strategy
from repro.routing.proxy import VersionRouter
from repro.routing.rules import ExperimentRoute
from repro.routing.splitter import canary_split
from repro.verification.findings import Severity
from repro.verification.strategy import verify_strategy
from tests.unit.test_bifrost_model import make_check, make_phase


def strategy_for(app, **phase_kwargs) -> Strategy:
    defaults = dict(
        name="canary",
        service="backend",
        stable_version="1.0.0",
        experimental_version="2.0.0",
        checks=(
            Check(
                name="err",
                service="backend",
                version="2.0.0",
                metric="error",
                threshold=0.05,
                window_seconds=30.0,
            ),
        ),
    )
    defaults.update(phase_kwargs)
    return Strategy("s", (make_phase(**defaults),))


class TestDeploymentChecks:
    def test_clean_strategy_verifies(self, canary_app):
        report = verify_strategy(strategy_for(canary_app), canary_app)
        assert report.ok
        assert not report.findings

    def test_unknown_service(self, canary_app):
        strategy = strategy_for(canary_app, service="ghost")
        report = verify_strategy(strategy, canary_app)
        assert not report.ok
        assert any(f.code == "unknown-service" for f in report.errors)

    def test_missing_version(self, canary_app):
        strategy = strategy_for(canary_app, experimental_version="9.9.9")
        report = verify_strategy(strategy, canary_app)
        assert any(f.code == "version-not-deployed" for f in report.errors)

    def test_missing_baseline_version(self, canary_app):
        strategy = strategy_for(
            canary_app,
            checks=(
                Check(
                    name="rel",
                    service="backend",
                    version="2.0.0",
                    metric="response_time",
                    baseline_version="7.7.7",
                    window_seconds=30.0,
                ),
            ),
        )
        report = verify_strategy(strategy, canary_app)
        assert any(f.code == "version-not-deployed" for f in report.errors)

    def test_stable_mismatch_warns(self, canary_app):
        canary_app.service("backend").promote("2.0.0")
        strategy = strategy_for(canary_app)  # declares stable 1.0.0
        report = verify_strategy(strategy, canary_app)
        assert report.ok  # warning, not error
        assert any(f.code == "stable-mismatch" for f in report.warnings)


class TestCheckChecks:
    def test_no_checks_warns(self, canary_app):
        strategy = strategy_for(canary_app, checks=())
        report = verify_strategy(strategy, canary_app)
        assert any(f.code == "no-checks" for f in report.warnings)

    def test_unknown_metric_warns(self, canary_app):
        strategy = strategy_for(
            canary_app,
            checks=(make_check(metric="cpu_temperature", service="backend"),),
        )
        report = verify_strategy(strategy, canary_app)
        assert any(f.code == "unknown-metric" for f in report.warnings)

    def test_unknown_aggregation_errors(self, canary_app):
        strategy = strategy_for(
            canary_app,
            checks=(
                Check(
                    name="bad",
                    service="backend",
                    version="2.0.0",
                    metric="error",
                    aggregation="avg",
                    threshold=0.05,
                ),
            ),
        )
        report = verify_strategy(strategy, canary_app)
        assert any(f.code == "unknown-aggregation" for f in report.errors)

    def test_short_window_warns(self, canary_app):
        strategy = strategy_for(
            canary_app,
            check_interval_seconds=30.0,
            checks=(
                Check(
                    name="tight",
                    service="backend",
                    version="2.0.0",
                    metric="error",
                    threshold=0.05,
                    window_seconds=5.0,
                ),
            ),
        )
        report = verify_strategy(strategy, canary_app)
        assert any(
            f.code == "window-shorter-than-interval" for f in report.warnings
        )

    def test_cross_service_check_warns(self, canary_app):
        strategy = strategy_for(
            canary_app,
            checks=(make_check(service="frontend", version="1.0.0"),),
        )
        report = verify_strategy(strategy, canary_app)
        assert any(f.code == "cross-service-check" for f in report.warnings)


class TestSafety:
    def test_failure_loop_detected(self, canary_app):
        phase_a = make_phase(
            "a", service="backend", on_success="b", on_failure="b",
            checks=(make_check(service="backend"),),
        )
        phase_b = make_phase(
            "b", service="backend", on_success="complete", on_failure="a",
            checks=(make_check(service="backend"),),
        )
        strategy = Strategy("s", (phase_a, phase_b))
        report = verify_strategy(strategy, canary_app)
        assert any(f.code == "failure-loop" for f in report.errors)

    def test_straight_failure_path_ok(self, canary_app):
        report = verify_strategy(strategy_for(canary_app), canary_app)
        assert not any(f.code == "failure-loop" for f in report.findings)


class TestInterference:
    def test_live_conflict_detected(self, canary_app):
        router = VersionRouter()
        router.install(
            ExperimentRoute("other-exp", "backend", canary_split("1.0.0", "2.0.0", 0.1))
        )
        report = verify_strategy(strategy_for(canary_app), canary_app, router)
        assert any(f.code == "live-conflict" for f in report.errors)

    def test_own_route_not_a_conflict(self, canary_app):
        router = VersionRouter()
        router.install(
            ExperimentRoute("s", "backend", canary_split("1.0.0", "2.0.0", 0.1))
        )
        report = verify_strategy(strategy_for(canary_app), canary_app, router)
        assert not any(f.code == "live-conflict" for f in report.findings)

    def test_report_describe(self, canary_app):
        report = verify_strategy(strategy_for(canary_app, service="ghost"), canary_app)
        text = report.describe()
        assert "error" in text.lower()
        assert report.findings[0].severity is Severity.ERROR

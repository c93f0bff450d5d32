"""Unit tests for the A/B analysis workflow."""

import pytest

from repro.errors import StatisticsError
from repro.simulation.rng import SeededRng
from repro.stats.abtest import ABTestAnalysis, Verdict


def fill_conversions(analysis, variant, rate, n, rng):
    for _ in range(n):
        analysis.record_conversion(variant, rng.random() < rate)


class TestConversionReport:
    def test_clear_winner(self):
        rng = SeededRng(1)
        analysis = ABTestAnalysis()
        fill_conversions(analysis, "a", 0.20, 8000, rng)
        fill_conversions(analysis, "b", 0.10, 8000, rng)
        report = analysis.conversion_report(minimum_detectable_effect=0.02)
        assert report.verdict is Verdict.A_WINS
        assert report.test is not None and report.test.significant()

    def test_no_difference(self):
        rng = SeededRng(2)
        analysis = ABTestAnalysis()
        fill_conversions(analysis, "a", 0.15, 8000, rng)
        fill_conversions(analysis, "b", 0.15, 8000, rng)
        report = analysis.conversion_report(minimum_detectable_effect=0.02)
        assert report.verdict is Verdict.NO_DIFFERENCE

    def test_underpowered_guard(self):
        rng = SeededRng(3)
        analysis = ABTestAnalysis()
        fill_conversions(analysis, "a", 0.30, 50, rng)
        fill_conversions(analysis, "b", 0.10, 50, rng)
        report = analysis.conversion_report(minimum_detectable_effect=0.02)
        assert report.verdict is Verdict.UNDERPOWERED
        assert report.required_per_group is not None
        assert report.required_per_group > 50

    def test_requires_two_variants(self):
        analysis = ABTestAnalysis()
        analysis.record_conversion("only", True)
        with pytest.raises(StatisticsError):
            analysis.conversion_report()

    def test_b_wins(self):
        rng = SeededRng(4)
        analysis = ABTestAnalysis()
        fill_conversions(analysis, "a", 0.10, 6000, rng)
        fill_conversions(analysis, "b", 0.20, 6000, rng)
        report = analysis.conversion_report(minimum_detectable_effect=0.02)
        assert report.verdict is Verdict.B_WINS


class TestMetricReport:
    def test_lower_latency_wins(self):
        rng = SeededRng(5)
        analysis = ABTestAnalysis(lower_is_better=True)
        for _ in range(300):
            analysis.record_value("a", "response_time", rng.raw.gauss(100, 10))
            analysis.record_value("b", "response_time", rng.raw.gauss(120, 10))
        report = analysis.metric_report("response_time")
        assert report.verdict is Verdict.A_WINS

    def test_higher_is_better_mode(self):
        rng = SeededRng(6)
        analysis = ABTestAnalysis(lower_is_better=False)
        for _ in range(300):
            analysis.record_value("a", "revenue", rng.raw.gauss(10, 2))
            analysis.record_value("b", "revenue", rng.raw.gauss(12, 2))
        report = analysis.metric_report("revenue")
        assert report.verdict is Verdict.B_WINS

    def test_underpowered_with_single_sample(self):
        analysis = ABTestAnalysis()
        analysis.record_value("a", "m", 1.0)
        analysis.record_value("b", "m", 2.0)
        report = analysis.metric_report("m")
        assert report.verdict is Verdict.UNDERPOWERED

    def test_noise_is_no_difference(self):
        rng = SeededRng(7)
        analysis = ABTestAnalysis()
        for _ in range(200):
            analysis.record_value("a", "m", rng.raw.gauss(50, 5))
            analysis.record_value("b", "m", rng.raw.gauss(50, 5))
        report = analysis.metric_report("m")
        assert report.verdict is Verdict.NO_DIFFERENCE

    def test_describe_contains_verdict(self):
        rng = SeededRng(8)
        analysis = ABTestAnalysis()
        for _ in range(10):
            analysis.record_value("a", "m", rng.raw.gauss(1, 0.1))
            analysis.record_value("b", "m", rng.raw.gauss(1, 0.1))
        assert "m:" in analysis.metric_report("m").describe()


class TestIntegrationWithStore:
    def test_analysis_on_metric_store_windows(self, canary_app):
        """The analysis consumes Bifrost's telemetry directly."""
        from repro.bifrost.middleware import Bifrost
        from repro.bifrost.model import Phase, PhaseType, Strategy
        from repro.traffic.profile import UserGroup
        from repro.traffic.users import UserPopulation
        from repro.traffic.workload import WorkloadGenerator
        from repro.microservices.service import ServiceVersion
        from tests.conftest import constant_endpoint

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
            duration_seconds=80.0,
            check_interval_seconds=10.0,
        )
        bifrost = Bifrost(canary_app, seed=61)
        bifrost.submit(Strategy("ab", (ab,)), at=1.0)
        groups = (UserGroup("eu", 0.6), UserGroup("na", 0.4))
        population = UserPopulation(400, groups, seed=62)
        workload = WorkloadGenerator(population, entry="frontend.home", seed=63)
        bifrost.run(workload.poisson(30.0, 90.0), until=100.0)

        analysis = ABTestAnalysis(lower_is_better=True)
        for version in ("2.0.0", "2.1.0"):
            for value in bifrost.store.values_in_window(
                "backend", version, "response_time", 0.0, 100.0
            ):
                analysis.record_value(version, "response_time", value)
        report = analysis.metric_report("response_time")
        # 2.1.0 (10ms) clearly beats 2.0.0 (30ms).
        assert report.verdict is Verdict.B_WINS

"""Unit tests for check evaluation."""

import pytest

from repro.bifrost.checks import CheckEvaluator
from repro.bifrost.model import CheckOutcome
from repro.telemetry.store import MetricStore
from tests.unit.test_bifrost_model import make_check


@pytest.fixture
def store() -> MetricStore:
    store = MetricStore()
    # Experimental version: mean response time 120 over t in [0, 10).
    for t in range(10):
        store.record("svc", "2.0.0", "response_time", float(t), 120.0)
        store.record("svc", "1.0.0", "response_time", float(t), 100.0)
    return store


class TestThresholdChecks:
    def test_pass(self, store):
        check = make_check(threshold=150.0, window_seconds=10.0)
        result = CheckEvaluator(store).evaluate(check, now=10.0)
        assert result.outcome is CheckOutcome.PASS
        assert result.observed == pytest.approx(120.0)
        assert result.reference == pytest.approx(150.0)

    def test_fail(self, store):
        check = make_check(threshold=110.0, window_seconds=10.0)
        result = CheckEvaluator(store).evaluate(check, now=10.0)
        assert result.outcome is CheckOutcome.FAIL

    def test_inconclusive_when_no_data(self, store):
        check = make_check(threshold=110.0, window_seconds=5.0)
        result = CheckEvaluator(store).evaluate(check, now=100.0)
        assert result.outcome is CheckOutcome.INCONCLUSIVE
        assert result.observed is None

    def test_window_respected(self, store):
        store.record("svc", "2.0.0", "response_time", 20.0, 500.0)
        check = make_check(threshold=130.0, window_seconds=5.0)
        # Window [16, 21) only contains the 500ms outlier.
        result = CheckEvaluator(store).evaluate(check, now=21.0)
        assert result.outcome is CheckOutcome.FAIL
        assert result.observed == pytest.approx(500.0)

    def test_tolerance_scales_threshold(self, store):
        check = make_check(threshold=100.0, tolerance=1.5, window_seconds=10.0)
        result = CheckEvaluator(store).evaluate(check, now=10.0)
        assert result.reference == pytest.approx(150.0)
        assert result.outcome is CheckOutcome.PASS


class TestRelativeChecks:
    def test_pass_within_tolerance(self, store):
        check = make_check(
            threshold=None, baseline_version="1.0.0", tolerance=1.3,
            window_seconds=10.0,
        )
        result = CheckEvaluator(store).evaluate(check, now=10.0)
        assert result.outcome is CheckOutcome.PASS
        assert result.reference == pytest.approx(130.0)

    def test_fail_outside_tolerance(self, store):
        check = make_check(
            threshold=None, baseline_version="1.0.0", tolerance=1.1,
            window_seconds=10.0,
        )
        result = CheckEvaluator(store).evaluate(check, now=10.0)
        assert result.outcome is CheckOutcome.FAIL

    def test_inconclusive_without_baseline_data(self, store):
        check = make_check(
            threshold=None, baseline_version="9.9.9", window_seconds=10.0
        )
        result = CheckEvaluator(store).evaluate(check, now=10.0)
        assert result.outcome is CheckOutcome.INCONCLUSIVE
        assert result.observed is not None  # experimental data existed

    def test_p95_aggregation(self, store):
        check = make_check(
            aggregation="p95", threshold=125.0, window_seconds=10.0
        )
        result = CheckEvaluator(store).evaluate(check, now=10.0)
        assert result.outcome is CheckOutcome.PASS


class TestEvaluateAll:
    def test_all_results_returned(self, store):
        checks = (
            make_check("a", threshold=150.0, window_seconds=10.0),
            make_check("b", threshold=110.0, window_seconds=10.0),
        )
        evaluator = CheckEvaluator(store)
        results = [evaluator.evaluate(check, 10.0) for check in checks]
        assert [r.outcome for r in results] == [CheckOutcome.PASS, CheckOutcome.FAIL]

    def test_describe_contains_outcome(self, store):
        check = make_check(threshold=150.0, window_seconds=10.0)
        result = CheckEvaluator(store).evaluate(check, now=10.0)
        assert "pass" in result.describe()

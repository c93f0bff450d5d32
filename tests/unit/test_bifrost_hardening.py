"""Unit tests for the hardened Bifrost engine: deadlines, check failures."""

import pytest

from repro.bifrost.dsl import parse_strategy, strategy_to_dsl
from repro.bifrost.middleware import Bifrost
from repro.bifrost.model import (
    Check,
    Phase,
    PhaseType,
    Strategy,
    StrategyOutcome,
)
from repro.errors import ConfigurationError, ExecutionError


def inconclusive_strategy(deadline=None, duration=60.0, max_repeats=5) -> Strategy:
    """A canary whose check never sees data: every phase end is inconclusive."""
    return Strategy(
        "stuck-canary",
        (
            Phase(
                name="canary",
                type=PhaseType.CANARY,
                service="backend",
                stable_version="1.0.0",
                experimental_version="2.0.0",
                fraction=0.3,
                duration_seconds=duration,
                check_interval_seconds=10.0,
                deadline_seconds=deadline,
                max_repeats=max_repeats,
                checks=(
                    Check(
                        name="latency",
                        service="backend",
                        version="2.0.0",
                        metric="response_time",
                        threshold=100.0,
                        window_seconds=20.0,
                    ),
                ),
            ),
        ),
    )


class TestPhaseDeadline:
    def test_deadline_validation(self):
        with pytest.raises(ConfigurationError):
            inconclusive_strategy(deadline=0.0)
        with pytest.raises(ConfigurationError):
            inconclusive_strategy(deadline=-5.0)

    def test_watchdog_forces_rollback(self, canary_app):
        bifrost = Bifrost(canary_app, seed=1)
        execution = bifrost.submit(inconclusive_strategy(deadline=90.0), at=0.0)
        # No traffic: the phase stays inconclusive and would repeat for
        # 5 * 60 s; the watchdog cuts it off at 90 s.
        bifrost.simulation.run_until(400.0)
        assert execution.outcome is StrategyOutcome.ROLLED_BACK
        assert execution.deadline_exceeded == "canary"
        assert execution.finished_at == pytest.approx(90.0)
        last = execution.transitions[-1]
        assert last.trigger == "deadline"
        assert last.target == "rollback"

    def test_deadline_spans_repeats(self, canary_app):
        bifrost = Bifrost(canary_app, seed=1)
        execution = bifrost.submit(inconclusive_strategy(deadline=150.0), at=0.0)
        bifrost.simulation.run_until(400.0)
        # One repeat happened (at 60 s) before the watchdog hit at 150 s.
        repeats = [t for t in execution.transitions if t.trigger == "inconclusive"]
        assert repeats
        assert execution.finished_at == pytest.approx(150.0)

    def test_no_deadline_keeps_legacy_behavior(self, canary_app):
        bifrost = Bifrost(canary_app, seed=1)
        execution = bifrost.submit(
            inconclusive_strategy(deadline=None, max_repeats=1), at=0.0
        )
        bifrost.simulation.run_until(400.0)
        # Repeats exhaust, inconclusive degrades to failure -> rollback.
        assert execution.outcome is StrategyOutcome.ROLLED_BACK
        assert execution.deadline_exceeded is None
        assert execution.finished_at == pytest.approx(120.0)

    def test_stale_watchdog_ignored_after_completion(self, canary_app):
        # With traffic-free success impossible here, use a checkless
        # strategy: it completes at phase end, before the deadline.
        strategy = Strategy(
            "fast",
            (
                Phase(
                    name="canary",
                    type=PhaseType.CANARY,
                    service="backend",
                    stable_version="1.0.0",
                    experimental_version="2.0.0",
                    fraction=0.3,
                    duration_seconds=30.0,
                    check_interval_seconds=10.0,
                    deadline_seconds=300.0,
                ),
            ),
        )
        bifrost = Bifrost(canary_app, seed=1)
        execution = bifrost.submit(strategy, at=0.0)
        bifrost.simulation.run_until(400.0)
        assert execution.outcome is StrategyOutcome.COMPLETED
        assert execution.deadline_exceeded is None
        assert execution.finished_at == pytest.approx(30.0)


class TestCheckEvaluationErrors:
    def test_execution_error_counts_as_inconclusive(self, canary_app):
        bifrost = Bifrost(canary_app, seed=1)
        execution = bifrost.submit(
            inconclusive_strategy(duration=40.0, max_repeats=0), at=0.0
        )

        class Exploding:
            def evaluate(self, check, now):
                raise ExecutionError("metric backend exploded")

        bifrost.engine.evaluator = Exploding()
        bifrost.simulation.run_until(200.0)
        # No crash; the failing evaluations were counted and the phase
        # degraded to failure after its (zero) repeats ran out.
        assert execution.evaluation_errors > 0
        assert execution.outcome is StrategyOutcome.ROLLED_BACK
        from repro.bifrost.model import CheckOutcome

        assert all(
            r.outcome is CheckOutcome.INCONCLUSIVE for r in execution.check_log
        )


class TestDslDeadline:
    def test_deadline_round_trip(self):
        strategy = inconclusive_strategy(deadline=120.0)
        text = strategy_to_dsl(strategy)
        assert "deadline 120.0" in text
        parsed = parse_strategy(text)
        assert parsed.phases[0].deadline_seconds == 120.0

    def test_deadline_absent_when_unset(self):
        text = strategy_to_dsl(inconclusive_strategy())
        assert "deadline" not in text
        assert parse_strategy(text).phases[0].deadline_seconds is None

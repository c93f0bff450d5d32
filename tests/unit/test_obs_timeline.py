"""Unit tests for timeline reconstruction, verification, and rendering."""

from repro.bifrost.model import Strategy, StrategyOutcome
from repro.obs.events import (
    ENGINE_CHECK,
    ENGINE_FINALIZED,
    ENGINE_PHASE_ENTERED,
    ENGINE_SUBMITTED,
    ENGINE_TRANSITION,
    ENGINE_WINNER,
    EventLog,
)
from repro.obs.observer import Observer
from repro.obs.timeline import (
    diff_timeline_execution,
    reconstruct_timelines,
    render_ascii,
)
from tests.unit.test_bifrost_engine import canary_phase, run_strategy


def synthetic_log() -> EventLog:
    """A hand-written lifecycle: canary -> (repeat) -> complete."""
    log = EventLog()
    log.append(ENGINE_SUBMITTED, 1.0, {"strategy": "s", "start": 1.0})
    log.append(ENGINE_PHASE_ENTERED, 1.0, {"strategy": "s", "phase": "canary"})
    log.append(
        ENGINE_CHECK,
        6.0,
        {
            "strategy": "s",
            "phase": "canary",
            "check": "errors",
            "outcome": "pass",
            "observed": 0.01,
            "reference": 0.05,
        },
    )
    log.append(
        ENGINE_TRANSITION,
        11.0,
        {
            "strategy": "s",
            "source": "canary",
            "target": "canary",
            "trigger": "inconclusive",
            "action": "repeat",
        },
    )
    log.append(ENGINE_PHASE_ENTERED, 11.0, {"strategy": "s", "phase": "canary"})
    log.append(
        ENGINE_TRANSITION,
        21.0,
        {
            "strategy": "s",
            "source": "canary",
            "target": "complete",
            "trigger": "success",
            "action": "promote",
        },
    )
    log.append(ENGINE_WINNER, 21.0, {"strategy": "s", "version": "2.0.0"})
    log.append(
        ENGINE_FINALIZED,
        21.0,
        {
            "strategy": "s",
            "terminal": "complete",
            "outcome": "completed",
            "promoted": "2.0.0",
        },
    )
    return log


class TestReconstruction:
    def test_phase_spans_and_repeat_stays(self):
        timeline = reconstruct_timelines(synthetic_log())["s"]
        assert timeline.submitted_at == 1.0
        assert [span.name for span in timeline.phases] == ["canary", "canary"]
        assert timeline.phases[0].exited_at == 11.0
        assert timeline.phases[0].trigger == "inconclusive"
        assert timeline.phases[1].target == "complete"
        assert timeline.winner == "2.0.0"
        assert timeline.outcome == "completed"
        assert timeline.finished_at == 21.0
        assert timeline.open_phase is None

    def test_checks_attach_to_open_phase(self):
        timeline = reconstruct_timelines(synthetic_log())["s"]
        assert len(timeline.phases[0].evidence) == 1
        assert timeline.phases[0].evidence[0].observed == 0.01
        assert timeline.phases[0].outcome_counts() == {"pass": 1}
        assert len(timeline.evidence) == 1

    def test_unrelated_kinds_are_ignored(self):
        log = synthetic_log()
        log.append("journal.append", 5.0, {"record": "tick", "lsn": 3})
        log.append("fenrir.generation", 50.0, {"algorithm": "genetic"})
        timelines = reconstruct_timelines(log)
        assert set(timelines) == {"s"}

    def test_running_strategy_has_open_phase(self):
        log = EventLog()
        log.append(ENGINE_SUBMITTED, 0.0, {"strategy": "s", "start": 0.0})
        log.append(ENGINE_PHASE_ENTERED, 0.0, {"strategy": "s", "phase": "p"})
        timeline = reconstruct_timelines(log)["s"]
        assert timeline.open_phase is not None
        assert timeline.outcome is None


class TestVerificationAgainstEngine:
    def test_real_run_reconstruction_matches_engine_record(self, canary_app):
        observer = Observer(enabled=True)
        strategy = Strategy("s", (canary_phase(),))
        bifrost, execution = run_strategy(
            canary_app, strategy, observer=observer
        )
        assert execution.outcome is StrategyOutcome.COMPLETED
        timeline = reconstruct_timelines(observer.events)["s"]
        assert diff_timeline_execution(timeline, execution) == []

    def test_tampered_timeline_is_detected(self, canary_app):
        observer = Observer(enabled=True)
        strategy = Strategy("s", (canary_phase(),))
        _, execution = run_strategy(canary_app, strategy, observer=observer)
        timeline = reconstruct_timelines(observer.events)["s"]
        timeline.phases[0].evidence.pop()
        problems = diff_timeline_execution(timeline, execution)
        assert any("checks" in p for p in problems)

    def test_wrong_outcome_is_detected(self, canary_app):
        observer = Observer(enabled=True)
        strategy = Strategy("s", (canary_phase(),))
        _, execution = run_strategy(canary_app, strategy, observer=observer)
        timeline = reconstruct_timelines(observer.events)["s"]
        timeline.outcome = "rolled_back"
        problems = diff_timeline_execution(timeline, execution)
        assert any("outcome" in p for p in problems)


class TestRendering:
    def test_ascii_shows_phases_checks_and_verdict(self):
        timeline = reconstruct_timelines(synthetic_log())["s"]
        text = render_ascii(timeline)
        assert "strategy s — completed at 21.0s" in text
        assert "canary" in text
        assert "pass=1" in text
        assert "--success--> complete" in text
        assert "winner: 2.0.0" in text

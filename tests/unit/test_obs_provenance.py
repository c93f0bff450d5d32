"""Unit tests for the decision-provenance layer (PR-10 tentpole).

The fold itself is exercised end-to-end by the property and e2e suites;
here the pieces are pinned in isolation: margin arithmetic, record
construction from event payloads, phase-stay tracking, alert spans,
truncation refusal, and the three report renderings.
"""


import pytest

from repro.errors import ValidationError
from repro.obs.events import (
    ALERT_FIRED,
    ALERT_RESOLVED,
    DECISION_RECORDED,
    ENGINE_CHECK,
    ENGINE_FINALIZED,
    ENGINE_PHASE_ENTERED,
    ENGINE_SUBMITTED,
    EventLog,
)
from repro.obs.provenance import (
    ProvenanceTracker,
    build_provenance,
    evidence_margin,
    render_decision_report,
)


def check_payload(**overrides) -> dict:
    payload = {
        "strategy": "s",
        "phase": "canary",
        "check": "errors",
        "service": "backend",
        "version": "2.0.0",
        "metric": "error",
        "aggregation": "mean",
        "operator": "<=",
        "window_start": 10.0,
        "samples": 42,
        "outcome": "pass",
        "observed": 0.01,
        "reference": 0.05,
        "margin": 0.04,
        "duration_s": 0.0,
    }
    payload.update(overrides)
    return payload


def canary_stream(log: EventLog) -> None:
    """A minimal hand-written run: submit, one stay, fail, roll back."""
    log.append(ENGINE_SUBMITTED, 1.0, {"strategy": "s", "start": 1.0})
    log.append(ENGINE_PHASE_ENTERED, 1.0, {"strategy": "s", "phase": "canary"})
    log.append(ENGINE_CHECK, 20.0, check_payload())
    log.append(
        ENGINE_CHECK,
        30.0,
        check_payload(
            outcome="fail", observed=0.2, margin=-0.15, window_start=20.0
        ),
    )
    check_seq = log.tail(1)[0].seq
    log.append(
        DECISION_RECORDED,
        30.0,
        {
            "strategy": "s",
            "source": "canary",
            "target": "rolled_back",
            "trigger": "failure",
            "action": "rollback",
            "transition_seq": None,
            "evidence": [check_seq],
            "alerts": ["checkout-slo"],
            "faults": ["ErrorBurst:backend@2.0.0/home"],
            "terminal": True,
        },
    )
    log.append(
        ENGINE_FINALIZED,
        30.0,
        {
            "strategy": "s",
            "terminal": "rolled_back",
            "outcome": "rolled_back",
            "promoted": None,
        },
    )


def terminal_decision(record):
    """The decision that ended *record*'s execution (None while running)."""
    return next((d for d in reversed(record.decisions) if d.terminal), None)


class TestEvidenceMargin:
    def test_less_than_margin_is_reference_minus_observed(self):
        assert evidence_margin("<=", 0.01, 0.05) == pytest.approx(0.04)
        assert evidence_margin("<", 0.08, 0.05) == pytest.approx(-0.03)

    def test_greater_than_margin_is_observed_minus_reference(self):
        assert evidence_margin(">=", 120.0, 100.0) == pytest.approx(20.0)
        assert evidence_margin(">", 80.0, 100.0) == pytest.approx(-20.0)

    def test_missing_side_yields_none(self):
        assert evidence_margin("<=", None, 0.05) is None
        assert evidence_margin("<=", 0.01, None) is None


class TestFold:
    def graph(self):
        log = EventLog()
        canary_stream(log)
        return build_provenance(log.events())

    def test_evidence_records_built_from_check_events(self):
        record = self.graph().strategy("s")
        assert len(record.evidence) == 2
        failing = [e for e in record.evidence.values() if e.failing]
        assert len(failing) == 1
        evidence = failing[0]
        assert evidence.metric == "error"
        assert evidence.window_start == 20.0
        assert evidence.window_end == 30.0  # the event's own time
        assert evidence.samples == 42
        assert evidence.margin == pytest.approx(-0.15)

    def test_decision_links_evidence_alerts_and_faults(self):
        record = self.graph().strategy("s")
        decision = terminal_decision(record)
        assert decision is not None
        assert decision.action == "rollback"
        assert decision.alerts == ("checkout-slo",)
        assert decision.faults == ("ErrorBurst:backend@2.0.0/home",)
        graph = self.graph()
        resolved = graph.evidence_for(terminal_decision(graph.strategy("s")))
        assert [e.failing for e in resolved] == [True]

    def test_terminal_state_folded_from_finalized(self):
        record = self.graph().strategy("s")
        assert record.outcome == "rolled_back"
        assert record.terminal == "rolled_back"
        assert record.finished_at == 30.0
        assert record.promoted is None

    def test_digest_is_deterministic(self):
        assert self.graph().digest() == self.graph().digest()

    def test_stay_resets_on_phase_entry(self):
        tracker = ProvenanceTracker()
        log = EventLog()
        log.append(ENGINE_PHASE_ENTERED, 1.0, {"strategy": "s", "phase": "a"})
        log.append(ENGINE_CHECK, 2.0, check_payload(phase="a"))
        for event in log.events():
            tracker.record(event)
        assert len(tracker.stay_evidence("s")) == 1
        tracker.record(
            log.append(
                ENGINE_PHASE_ENTERED, 3.0, {"strategy": "s", "phase": "b"}
            )
        )
        assert tracker.stay_evidence("s") == ()

    def test_stay_keeps_latest_evaluation_per_check(self):
        tracker = ProvenanceTracker()
        log = EventLog()
        log.append(ENGINE_PHASE_ENTERED, 1.0, {"strategy": "s", "phase": "a"})
        log.append(ENGINE_CHECK, 2.0, check_payload(check="errors"))
        log.append(ENGINE_CHECK, 3.0, check_payload(check="latency"))
        log.append(ENGINE_CHECK, 4.0, check_payload(check="errors"))
        for event in log.events():
            tracker.record(event)
        seqs = tracker.stay_evidence("s")
        assert len(seqs) == 2  # latest errors + latency
        checks = {
            tracker.graph().strategy("s").evidence[seq].check for seq in seqs
        }
        assert checks == {"errors", "latency"}

    def test_alert_spans_pair_fired_and_resolved(self):
        log = EventLog()
        log.append(ALERT_FIRED, 10.0, {"rule": "r", "burn": 3.0})
        log.append(ALERT_RESOLVED, 25.0, {"rule": "r", "burn": 0.5})
        graph = build_provenance(log.events())
        (span,) = graph.alerts
        assert span.fired_at == 10.0
        assert span.burn == 3.0
        assert span.resolved_at == 25.0

    def test_truncated_stream_refused_unless_allowed(self):
        log = EventLog(capacity=3)
        canary_stream(log)
        stream = [log.truncation_sentinel(), *log.events()]
        with pytest.raises(ValidationError, match="truncated"):
            build_provenance(stream)
        graph = build_provenance(stream, allow_truncated=True)
        assert "s" in graph.strategies
        report = render_decision_report(graph, "s")
        banner = f"[TRUNCATED: {log.dropped} events dropped]"
        assert report.splitlines()[0] == banner


class TestDecisionReport:
    def graph(self):
        log = EventLog()
        canary_stream(log)
        return build_provenance(log.events())

    def test_ascii_names_the_failing_evidence(self):
        text = render_decision_report(self.graph(), "s")
        assert "strategy s — rolled_back" in text
        assert "--failure--> rolled_back (rollback)" in text
        assert "!! " in text  # the failing record is flagged
        assert "errors: fail" in text
        assert "alerts firing: checkout-slo" in text
        assert "faults active: ErrorBurst:backend@2.0.0/home" in text

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValidationError, match="no provenance"):
            render_decision_report(self.graph(), "ghost")

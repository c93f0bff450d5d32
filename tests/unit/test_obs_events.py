"""Unit tests for the structured event log and JSONL round-trips."""

import pytest

from repro.errors import ValidationError
from repro.obs.events import (
    ENGINE_CHECK,
    ENGINE_SUBMITTED,
    Event,
    EventLog,
    event_from_dict,
    load_jsonl,
)


class TestEvent:
    def test_as_dict_round_trip(self):
        event = Event(7, 12.5, ENGINE_CHECK, {"check": "errors", "outcome": "pass"})
        rebuilt = event_from_dict(event.as_dict())
        assert rebuilt == event

    def test_describe_mentions_seq_kind_and_payload(self):
        line = Event(3, 1.0, ENGINE_CHECK, {"check": "errors"}).describe()
        assert "#3" in line
        assert ENGINE_CHECK in line
        assert "check=errors" in line

    def test_malformed_document_raises(self):
        with pytest.raises(ValidationError):
            event_from_dict({"seq": 1, "kind": "x"})  # missing time/data

    def test_undecodable_jsonl_line_raises(self):
        with pytest.raises(ValidationError):
            load_jsonl(["{not json"])


class TestEventLog:
    def test_sequence_numbers_are_monotonic_from_one(self):
        log = EventLog()
        events = [log.append("k", float(i)) for i in range(5)]
        assert [e.seq for e in events] == [1, 2, 3, 4, 5]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValidationError):
            EventLog(capacity=0)

    def test_ring_evicts_oldest_and_counts_drops(self):
        log = EventLog(capacity=3)
        for i in range(5):
            log.append("k", float(i))
        assert len(log) == 3
        assert log.appended == 5
        assert log.dropped == 2
        assert log.first_retained_seq == 3
        assert [e.seq for e in log] == [3, 4, 5]

    def test_counts_by_kind_survive_eviction(self):
        log = EventLog(capacity=2)
        for _ in range(4):
            log.append("a", 0.0)
        log.append("b", 0.0)
        assert log.counts_by_kind() == {"a": 4, "b": 1}

    def test_replay_filters_by_kind_and_seq(self):
        log = EventLog()
        log.append(ENGINE_SUBMITTED, 0.0)
        log.append(ENGINE_CHECK, 1.0)
        log.append(ENGINE_CHECK, 2.0)
        checks = log.events(kinds={ENGINE_CHECK})
        assert [e.time for e in checks] == [1.0, 2.0]
        later = log.events(since_seq=checks[0].seq)
        assert [e.seq for e in later] == [3]

    def test_tail_returns_most_recent(self):
        log = EventLog()
        for i in range(10):
            log.append("k", float(i))
        assert [e.time for e in log.tail(3)] == [7.0, 8.0, 9.0]
        assert log.tail(0) == []

    def test_subscriber_sees_every_event_despite_eviction(self):
        log = EventLog(capacity=2)
        seen = []
        log.subscribe(lambda e: seen.append(e.seq))
        for i in range(6):
            log.append("k", float(i))
        assert seen == [1, 2, 3, 4, 5, 6]
        assert len(log) == 2

    def test_jsonl_lines_round_trip(self):
        log = EventLog()
        log.append("a", 1.0, {"x": 1})
        log.append("b", 2.0, {"y": "z"})
        assert load_jsonl(log.jsonl_lines()) == list(log)

    def test_clear_keeps_sequence_counter(self):
        log = EventLog()
        log.append("k", 0.0)
        log.clear()
        assert len(log) == 0
        assert log.append("k", 1.0).seq == 2

"""Truncation sentinel of event-log exports (PR-9 satellite).

A bounded :class:`EventLog` that evicted events must say so in its
exports: the first JSONL line becomes an ``obs.truncated`` sentinel, and
every consumer that assumes a complete history (``load_jsonl``,
``reconstruct_timelines``, the REPLAY backend) either warns or refuses
instead of silently reconstructing a wrong prefix-less history.
"""

import io

import pytest

from repro.errors import ValidationError
from repro.obs.events import (
    ENGINE_CHECK,
    ENGINE_PHASE_ENTERED,
    ENGINE_SUBMITTED,
    OBS_TRUNCATED,
    EventLog,
    TruncatedStreamWarning,
    is_truncation,
    load_jsonl,
    stream_truncation,
)
from repro.obs.timeline import reconstruct_timelines


def filled_log(capacity: int, appended: int) -> EventLog:
    log = EventLog(capacity=capacity)
    for i in range(appended):
        log.append("engine.check", float(i), {"i": i})
    return log


class TestTruncationSentinel:
    def test_lossless_log_has_no_sentinel(self):
        log = filled_log(capacity=10, appended=10)
        assert log.dropped == 0
        assert log.truncation_sentinel() is None
        lines = list(log.jsonl_lines())
        assert len(lines) == 10
        assert all('"obs.truncated"' not in line for line in lines)

    def test_overflowed_log_emits_sentinel_first(self):
        log = filled_log(capacity=5, appended=12)
        sentinel = log.truncation_sentinel()
        assert sentinel is not None
        assert sentinel.kind == OBS_TRUNCATED
        assert sentinel.data["dropped"] == 7
        assert sentinel.data["first_retained_seq"] == 8
        # One below the first retained seq, so sorted exports keep it first.
        assert sentinel.seq == 7
        lines = list(log.jsonl_lines())
        assert len(lines) == 6  # sentinel + 5 retained
        assert '"obs.truncated"' in lines[0]

    def test_helpers(self):
        log = filled_log(capacity=5, appended=12)
        sentinel = log.truncation_sentinel()
        assert is_truncation(sentinel)
        assert not is_truncation(log.tail(1)[0])
        events = [sentinel, *log.events()]
        assert stream_truncation(events) is sentinel
        assert stream_truncation(log.events()) is None


class TestLoadJsonlPolicies:
    def lines(self) -> list[str]:
        return list(filled_log(capacity=5, appended=12).jsonl_lines())

    def test_warn_policy_keeps_sentinel_and_warns(self):
        with pytest.warns(TruncatedStreamWarning, match="7 events evicted"):
            events = load_jsonl(self.lines())
        assert len(events) == 6
        assert is_truncation(events[0])

    def test_error_policy_raises(self):
        with pytest.raises(ValidationError, match="truncated"):
            load_jsonl(self.lines(), on_truncated="error")

    def test_ignore_policy_is_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            events = load_jsonl(self.lines(), on_truncated="ignore")
        assert len(events) == 6

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValidationError, match="on_truncated"):
            load_jsonl([], on_truncated="explode")

    def test_lossless_stream_never_warns(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            events = load_jsonl(filled_log(10, 10).jsonl_lines())
        assert len(events) == 10


class TestTimelineRefusal:
    def engine_events(self) -> EventLog:
        log = EventLog(capacity=100)
        log.append(ENGINE_SUBMITTED, 0.0, {"strategy": "s", "start": 0.0})
        log.append(ENGINE_PHASE_ENTERED, 1.0, {"strategy": "s", "phase": "canary"})
        log.append(
            ENGINE_CHECK,
            5.0,
            {"strategy": "s", "check": "errors", "outcome": "pass"},
        )
        return log

    def test_reconstruct_refuses_truncated_stream(self):
        log = self.engine_events()
        sentinel = filled_log(capacity=2, appended=9).truncation_sentinel()
        events = [sentinel, *log.events()]
        with pytest.raises(ValidationError, match="truncated"):
            reconstruct_timelines(events)

    def test_reconstruct_allows_truncated_when_asked(self):
        log = self.engine_events()
        sentinel = filled_log(capacity=2, appended=9).truncation_sentinel()
        timelines = reconstruct_timelines(
            [sentinel, *log.events()], allow_truncated=True
        )
        assert "s" in timelines

    def test_reconstruct_intact_stream_unchanged(self):
        timelines = reconstruct_timelines(self.engine_events().events())
        assert set(timelines) == {"s"}


class TestSinkPolicyMatrix:
    """load_jsonl policies composed with sink round-trips under eviction.

    A :class:`JsonlEventSink` attached from the start captures the
    lossless stream even while the bounded ring evicts; the ring's own
    export is a suffix prefixed by the sentinel.  Every policy must
    behave correctly against both shapes.
    """

    CAPACITY = 4
    APPENDED = 12

    def both_exports(self) -> tuple[list[str], list[str]]:
        """(lossless sink lines, truncated ring lines) for one run."""
        from repro.obs.exporters import JsonlEventSink

        log = EventLog(capacity=self.CAPACITY)
        buffer = io.StringIO()
        with JsonlEventSink(buffer) as sink:
            sink.attach(log, replay=True)
            for i in range(self.APPENDED):
                log.append("engine.check", float(i), {"i": i})
        assert log.dropped == self.APPENDED - self.CAPACITY
        return buffer.getvalue().splitlines(), list(log.jsonl_lines())

    def test_sentinel_is_first_line_of_ring_export(self):
        _, ring_lines = self.both_exports()
        import json

        first = json.loads(ring_lines[0])
        assert first["kind"] == OBS_TRUNCATED
        assert first["data"]["dropped"] == self.APPENDED - self.CAPACITY
        # Exactly one sentinel, and only ever at the head.
        kinds = [json.loads(line)["kind"] for line in ring_lines]
        assert kinds.count(OBS_TRUNCATED) == 1

    @pytest.mark.parametrize("policy", ["warn", "error", "ignore"])
    def test_lossless_sink_stream_loads_under_every_policy(self, policy):
        import warnings

        sink_lines, _ = self.both_exports()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warn here is a bug
            events = load_jsonl(sink_lines, on_truncated=policy)
        assert len(events) == self.APPENDED
        assert stream_truncation(events) is None
        assert [e.seq for e in events] == list(range(1, self.APPENDED + 1))

    def test_truncated_ring_export_warn_keeps_sentinel(self):
        _, ring_lines = self.both_exports()
        dropped = self.APPENDED - self.CAPACITY
        with pytest.warns(TruncatedStreamWarning, match=f"{dropped} events"):
            events = load_jsonl(ring_lines, on_truncated="warn")
        assert is_truncation(events[0])
        assert len(events) == self.CAPACITY + 1

    def test_truncated_ring_export_error_raises(self):
        _, ring_lines = self.both_exports()
        with pytest.raises(ValidationError, match="truncated"):
            load_jsonl(ring_lines, on_truncated="error")

    def test_truncated_ring_export_ignore_is_silent(self):
        import warnings

        _, ring_lines = self.both_exports()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            events = load_jsonl(ring_lines, on_truncated="ignore")
        assert is_truncation(events[0])

    def test_ring_suffix_round_trips_exactly(self):
        """export -> load -> re-export is byte-identical (sentinel incl.)."""
        import json

        _, ring_lines = self.both_exports()
        events = load_jsonl(ring_lines, on_truncated="ignore")
        redumped = [
            json.dumps(e.as_dict(), separators=(",", ":"), sort_keys=True)
            for e in events
        ]
        assert redumped == ring_lines

    def test_sink_stream_is_superset_of_ring_suffix(self):
        sink_lines, ring_lines = self.both_exports()
        assert set(ring_lines[1:]) <= set(sink_lines)


class TestTruncationBanner:
    """The PR-10 satellite: truncation surfaces in renderings, loudly."""

    def overflowed_engine_log(self) -> EventLog:
        log = EventLog(capacity=4)
        log.append(ENGINE_SUBMITTED, 0.0, {"strategy": "s", "start": 0.0})
        for i in range(6):
            log.append(
                ENGINE_CHECK,
                float(i + 1),
                {"strategy": "s", "check": "errors", "outcome": "pass"},
            )
        assert log.dropped > 0
        return log

    def test_render_ascii_shows_banner(self):
        from repro.obs.timeline import render_ascii

        log = self.overflowed_engine_log()
        stream = [log.truncation_sentinel(), *log.events()]
        timelines = reconstruct_timelines(stream, allow_truncated=True)
        text = render_ascii(timelines["s"])
        assert text.splitlines()[0] == f"[TRUNCATED: {log.dropped} events dropped]"

    def test_render_ascii_lossless_has_no_banner(self):
        from repro.obs.timeline import render_ascii

        log = EventLog(capacity=100)
        log.append(ENGINE_SUBMITTED, 0.0, {"strategy": "s", "start": 0.0})
        timelines = reconstruct_timelines(log.events())
        assert "TRUNCATED" not in render_ascii(timelines["s"])

    def test_glass_box_panel_shows_banner(self):
        from repro.obs.dashboard import glass_box_panel
        from repro.obs.observer import Observer

        observer = Observer(enabled=True, event_capacity=4)
        observer.emit(ENGINE_SUBMITTED, 0.0, strategy="s", start=0.0)
        for i in range(8):
            observer.emit(
                ENGINE_CHECK,
                float(i + 1),
                strategy="s",
                check="errors",
                outcome="pass",
            )
        panel = glass_box_panel(observer)
        assert f"[TRUNCATED: {observer.events.dropped} events dropped]" in panel

    def test_glass_box_panel_lossless_has_no_banner(self):
        from repro.obs.dashboard import glass_box_panel
        from repro.obs.observer import Observer

        observer = Observer(enabled=True)
        observer.emit(ENGINE_SUBMITTED, 0.0, strategy="s", start=0.0)
        assert "TRUNCATED" not in glass_box_panel(observer)

"""Unit tests for the distributed tracing substrate."""

import re

import pytest

from repro.errors import ValidationError
from repro.tracing.collector import TraceCollector
from repro.tracing.query import TraceQuery
from repro.tracing.span import Span
from repro.tracing.trace import Trace


def make_span(
    span_id="s1",
    trace_id="t1",
    parent_id=None,
    service="frontend",
    version="1.0.0",
    endpoint="home",
    start=0.0,
    duration_ms=10.0,
    error=False,
    tags=None,
) -> Span:
    return Span(
        span_id=span_id,
        trace_id=trace_id,
        parent_id=parent_id,
        service=service,
        version=version,
        endpoint=endpoint,
        start=start,
        duration_ms=duration_ms,
        error=error,
        tags=tags or {},
    )


def make_trace() -> Trace:
    root = make_span("root")
    child_a = make_span("a", parent_id="root", service="auth", start=0.001)
    child_b = make_span("b", parent_id="root", service="backend", start=0.002)
    grandchild = make_span("c", parent_id="b", service="db", start=0.003)
    return Trace("t1", [root, child_a, child_b, grandchild])


class TestSpan:
    def test_end_time(self):
        span = make_span(start=1.0, duration_ms=500.0)
        assert span.end == pytest.approx(1.5)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValidationError):
            make_span(duration_ms=-1.0)

    def test_empty_service_rejected(self):
        with pytest.raises(ValidationError):
            make_span(service="")


class TestTrace:
    def test_root_identified(self):
        trace = make_trace()
        assert trace.root.span_id == "root"

    def test_children_ordered_by_start(self):
        trace = make_trace()
        children = trace.children("root")
        assert [c.span_id for c in children] == ["a", "b"]

    def test_walk_visits_all_with_parents(self):
        trace = make_trace()
        visited = {span.span_id: parent for span, parent in trace.walk()}
        assert visited["root"] is None
        assert visited["c"].span_id == "b"
        assert len(visited) == 4

    def test_walk_keeps_list_order_for_siblings_with_equal_starts(self):
        spans = [
            make_span("root"),
            make_span("y", parent_id="root", start=0.5),
            make_span("x", parent_id="root", start=0.5),
            make_span("w", parent_id="root", start=0.2),
            make_span("y1", parent_id="y", start=0.6),
        ]
        trace = Trace("t1", spans)
        order = ["root", "w", "y", "y1", "x"]
        assert [span.span_id for span, _ in trace.walk()] == order
        trace.children("root").clear()  # a copy: the walk is unaffected
        assert [span.span_id for span, _ in trace.walk()] == order

    def test_unknown_parent_error_names_the_first_orphan(self):
        spans = [
            make_span("root"),
            make_span("x", parent_id="ghost"),
            make_span("y", parent_id="phantom"),
        ]
        with pytest.raises(ValidationError, match="span x references unknown parent ghost"):
            Trace("t1", spans)

    def test_requires_single_root(self):
        with pytest.raises(ValidationError):
            Trace("t1", [make_span("r1"), make_span("r2")])

    def test_rejects_unknown_parent(self):
        with pytest.raises(ValidationError):
            Trace("t1", [make_span("root"), make_span("x", parent_id="ghost")])

    def test_rejects_foreign_spans(self):
        with pytest.raises(ValidationError):
            Trace("t1", [make_span("root", trace_id="other")])

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValidationError):
            Trace("t1", [make_span("root"), make_span("root", parent_id="root")])

    def test_duration_is_root_duration(self):
        assert make_trace().duration_ms == 10.0


class TestCollector:
    def test_assembles_out_of_order_spans(self):
        collector = TraceCollector()
        collector.record_all(
            [
                make_span("c", parent_id="b"),
                make_span("b", parent_id="root"),
                make_span("root"),
            ]
        )
        trace = collector.trace("t1")
        assert len(trace) == 3

    def test_unknown_trace(self):
        with pytest.raises(ValidationError):
            TraceCollector().trace("nope")

    def test_clear(self):
        collector = TraceCollector()
        collector.record(make_span())
        collector.clear()
        assert len(collector) == 0


class TestCollectorSubscriptions:
    def test_complete_trace_notifies_subscriber(self):
        collector = TraceCollector()
        seen = []
        collector.subscribe(lambda trace: seen.append(trace.trace_id))
        collector.record_all([make_span("child", parent_id="root"), make_span("root")])
        assert seen == ["t1"]

    def test_record_all_notifies_once_per_trace(self):
        collector = TraceCollector()
        seen = []
        collector.subscribe(lambda trace: seen.append(len(trace)))
        collector.record_all(
            [make_span("root"), make_span("a", parent_id="root")]
        )
        assert seen == [2]


class TestValidateOnce:
    """``record_trace`` checks the tree once, when it builds the trace, and
    hands subscribers that object; every bad tree fails with its message."""

    @staticmethod
    def collector_with_subscriber():
        collector = TraceCollector()
        seen = []
        collector.subscribe(seen.append)
        return collector, seen

    def test_notification_does_not_recheck_the_tree(self, monkeypatch):
        collector, seen = self.collector_with_subscriber()
        spans = make_trace().spans
        built = []
        original = Trace.__init__

        def counted(self, trace_id, spans):
            built.append(trace_id)
            original(self, trace_id, spans)

        monkeypatch.setattr(Trace, "__init__", counted)
        trace = collector.record_trace("t1", spans[::-1])
        assert built == ["t1"] and seen == [trace]
        assert collector.trace("t1") is trace and collector.traces() == [trace]
        assert [span.span_id for span, _ in trace.walk()] == ["root", "a", "b", "c"]

    def test_no_spans(self):
        with pytest.raises(ValidationError, match=re.escape("trace 't1' has no spans")):
            Trace("t1", [])

    def test_foreign_spans_rejected_by_record_trace(self):
        collector, seen = self.collector_with_subscriber()
        foreign = [make_span("root"), make_span("x", trace_id="t2", parent_id="root")]
        message = re.escape("trace 't1' contains foreign spans")
        with pytest.raises(ValidationError, match=message):
            collector.record_trace("t1", foreign)
        with pytest.raises(ValidationError, match=message):
            Trace("t1", foreign)
        assert seen == [] and len(collector) == 0

    @pytest.mark.parametrize(
        "spans, message",
        [
            (
                [make_span("root"), make_span("root", parent_id="root")],
                "trace 't1' has duplicate span ids",
            ),
            (
                [make_span("r1"), make_span("r2")],
                "trace 't1' must have exactly one root span, found 2",
            ),
            (
                [make_span("root"), make_span("x", parent_id="ghost")],
                "span x references unknown parent ghost",
            ),
        ],
        ids=["duplicate", "two-roots", "orphan"],
    )
    def test_bad_tree_is_never_notified_and_keeps_its_message(self, spans, message):
        collector, seen = self.collector_with_subscriber()
        with pytest.raises(ValidationError, match=re.escape(message)):
            collector.record_trace("t1", spans)
        assert seen == []


class TestRecordTraceRefuses:
    """A refused ``record_trace`` leaves the collector as it was: the
    traces recorded before stay, and no subscriber hears of the refusal."""

    @pytest.mark.parametrize(
        "trace_id, spans, message",
        [
            ("t0", [make_span("again", trace_id="t0")], "trace 't0' is already recorded"),
            ("t1", [make_span("r1"), make_span("r2")], "exactly one root span, found 2"),
            (
                "t1",
                [make_span("root"), make_span("x", parent_id="ghost")],
                "span x references unknown parent ghost",
            ),
            (
                "t1",
                [make_span("root"), make_span("root", parent_id="root")],
                "trace 't1' has duplicate span ids",
            ),
        ],
        ids=["repeated-id", "two-roots", "orphan", "duplicate"],
    )
    def test_refused_trace_is_neither_stored_nor_notified(self, trace_id, spans, message):
        collector = TraceCollector()
        seen = []
        collector.subscribe(seen.append)
        first = collector.record_trace("t0", [make_span("root", trace_id="t0")])
        with pytest.raises(ValidationError, match=re.escape(message)):
            collector.record_trace(trace_id, spans)
        assert collector.traces() == [first]
        assert seen == [first]


class TestRecordTraceEqualsRecordAll:
    """``record_all`` groups spans by trace id and hands each group to
    ``record_trace``: both leave the same collector, notifications and
    drop count (always 0), and return the same trace or raise the same
    error."""

    # (trace id, spans) in the order a runtime would hand them over.
    STEPS = [
        ("t1", [make_span("r", "t1"), make_span("a", "t1", parent_id="r", start=0.1)]),
        ("t2", [make_span("r1", "t2"), make_span("r2", "t2")]),  # two roots
        ("t3", [make_span("r", "t3"), make_span("b", "t3", parent_id="r")]),
        ("t1", [make_span("r", "t1")]),  # repeated id
        ("t4", [make_span("r", "t4"), make_span("r", "t4", parent_id="r")]),  # duplicate
        ("t5", [make_span("r", "t5")]),
        ("t5", [make_span("late", "t5", parent_id="r")]),  # repeated id
        ("t6", [make_span("r", "t6"), make_span("x", "t6", parent_id="ghost")]),
        ("t7", [make_span("r", "t7"), make_span("c", "t7", parent_id="r"),
                make_span("d", "t7", parent_id="c")]),
    ]

    @staticmethod
    def new_path(collector, trace_id, spans):
        return collector.record_trace(trace_id, spans)

    @staticmethod
    def old_path(collector, trace_id, spans):
        collector.record_all(spans)
        return collector.trace(trace_id)

    @staticmethod
    def observe(path, subscribed):
        collector = TraceCollector()
        notified = []
        if subscribed:
            collector.subscribe(
                lambda trace: notified.append(
                    (trace.trace_id, [span.span_id for span, _ in trace.walk()])
                )
            )
        seen = []
        for trace_id, spans in TestRecordTraceEqualsRecordAll.STEPS:
            try:
                trace = path(collector, trace_id, spans)
            except ValidationError as exc:
                outcome = ("raised", str(exc))
            else:
                outcome = (trace.trace_id, [(s.span_id, p and p.span_id) for s, p in trace.walk()])
            seen.append(
                (outcome, [t.trace_id for t in collector.traces()],
                 collector.late_spans_dropped.value, list(notified))
            )
        return seen

    @pytest.mark.parametrize("subscribed", [True, False], ids=["subscribed", "bare"])
    def test_same_collector_notifications_drops_and_trace(self, subscribed):
        new = self.observe(self.new_path, subscribed)
        assert new == self.observe(self.old_path, subscribed)
        outcomes = [step[0] for step in new]
        assert outcomes[1] == ("raised", "trace 't2' must have exactly one root span, found 2")
        assert outcomes[3] == ("raised", "trace 't1' is already recorded")
        assert outcomes[6] == ("raised", "trace 't5' is already recorded")
        assert new[-1][1] == ["t1", "t3", "t5", "t7"]
        assert {step[2] for step in new} == {0}
        if subscribed:
            assert [trace_id for trace_id, _ in new[-1][3]] == ["t1", "t3", "t5", "t7"]

    def test_the_outcome_trace_is_the_notified_one(self):
        collector = TraceCollector()
        notified = []
        collector.subscribe(notified.append)
        trace = collector.record_trace("t1", make_trace().spans)
        assert notified == [trace] and collector.trace("t1") is trace
        with pytest.raises(ValidationError):
            collector.record_trace("t1", [make_span("z", parent_id="root")])
        assert notified == [trace] and len(trace) == 4


class TestQuery:
    @pytest.fixture
    def collector(self) -> TraceCollector:
        collector = TraceCollector()
        for i in range(5):
            root = make_span(
                f"root{i}",
                trace_id=f"t{i}",
                start=float(i),
                tags={"experiment": "exp1"} if i % 2 == 0 else {},
            )
            child = make_span(
                f"child{i}",
                trace_id=f"t{i}",
                parent_id=f"root{i}",
                service="backend",
                version="2.0.0" if i >= 3 else "1.0.0",
                endpoint="api",
                error=(i == 4),
            )
            collector.record_all([root, child])
        return collector

    def test_window_filter(self, collector):
        assert TraceQuery(collector).in_window(1.0, 3.0).count() == 2

    def test_chained_filters(self, collector):
        count = TraceQuery(collector).in_window(1.0, 3.0).entry("frontend", "home").count()
        assert count == 2

    def test_entry_filter(self, collector):
        assert TraceQuery(collector).entry("frontend", "home").count() == 5
        assert TraceQuery(collector).entry("backend").count() == 0

    def test_limit(self, collector):
        assert len(TraceQuery(collector).run(limit=2)) == 2

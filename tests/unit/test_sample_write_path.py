"""Unit tests for the one sample write path (docs/PERF_KERNEL.md).

The span-sample buffer, the list branch of ``TimeSeries.extend_columns``,
the flush points of ``Runtime.replay``, and a call-count guard that keeps
``MetricStore.record`` off the bulk drivers.  Whole-run equivalence with
the per-sample loops is in ``tests/property/test_write_path_equivalence.py``.
"""

from collections import Counter

import pytest

from repro.bifrost import Bifrost
from repro.errors import ExecutionError, StatisticsError
from repro.fleet import FleetOrchestrator
from repro.microservices.application import Application
from repro.microservices.runtime import Runtime
from repro.microservices.service import DownstreamCall, ServiceVersion
from repro.simulation.engine import SimulationEngine
from repro.stats.timeseries import TimeSeries
from repro.telemetry import MetricStore
from repro.telemetry.monitor import SpanSampleBuffer
from repro.topology.scenarios import sample_application
from repro.tracing.span import Span, next_span_id
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.users import UserPopulation
from repro.traffic.workload import Request, WorkloadGenerator
from tests.conftest import constant_endpoint
from tests.property.test_write_path_equivalence import observe_spans, reference_replay
from tests.unit.test_fleet_orchestrator import fast_config, make_schedule

TRIPLE = {"response_time", "error", "throughput"}


def appended(samples, seed=()):
    series = TimeSeries("ref")
    for ts, value in list(seed) + list(samples):
        series.append(ts, value)
    return list(series)


class TestExtendColumnsListBranch:
    """Ascending plain lists at or after the tail skip numpy; everything
    else takes the general path.  Either way: repeated ``append``."""

    SEED = [(10.0, 1.0), (20.0, 2.0)]

    @pytest.mark.parametrize(
        "times, values",
        [
            ([20.0, 20.0, 30.5], [3.0, 4.0, 5.0]),  # ascending, ties the tail
            ([30.0, 25.0, 21.0], [3.0, 4.0, 5.0]),  # descending
            ([15.0, 25.0, 35.0], [3.0, 4.0, 5.0]),  # overlaps the tail
            ([5.0, 6.0], [3.0, 4.0]),  # wholly before the tail
            ([20, 30, 40], [3, True, 5]),  # int- and bool-valued
            ([], []),
        ],
    )
    def test_equals_repeated_append(self, times, values):
        for seed in ([], self.SEED):
            series = TimeSeries("col")
            for ts, value in seed:
                series.append(ts, value)
            series.extend_columns(list(times), list(values))
            assert repr(list(series)) == repr(appended(zip(times, values), seed))

    def test_other_sequences_keep_the_general_path(self):
        series = TimeSeries("col")
        series.extend_columns((1.0, 2.0), (5.0, 6.0))
        series.extend_columns([3.0, 4.0], (7.0, 8.0))
        assert list(series) == [(1.0, 5.0), (2.0, 6.0), (3.0, 7.0), (4.0, 8.0)]

    def test_length_mismatch_still_raises(self):
        series = TimeSeries("col")
        with pytest.raises(StatisticsError):
            series.extend_columns([1.0, 2.0], [1.0])
        with pytest.raises(StatisticsError):
            series.extend_columns([], [1.0])
        assert len(series) == 0

    def test_a_bad_value_leaves_the_series_untouched(self):
        series = TimeSeries("col")
        series.append(1.0, 1.0)
        with pytest.raises(TypeError):
            series.extend_columns([2.0, 3.0], [1.0, None])
        assert list(series) == [(1.0, 1.0)]

    def test_columns_are_copied(self):
        series = TimeSeries("col")
        times, values = [1.0, 2.0], [3.0, 4.0]
        series.extend_columns(times, values)
        times.clear()
        values.clear()
        assert list(series) == [(1.0, 3.0), (2.0, 4.0)]


def span(service, version, start, duration, error=False):
    return Span(next_span_id(), "t1", None, service, version, "ep", start, duration, error)


class TestSpanSampleBuffer:
    SPANS = [
        span("svc", "1.0", 2.0, 30.0),
        span("svc", "1.0", 1.0, 10.0, error=True),  # out of order
        span("svc", "2.0", 1.5, 20.0),
        span("db", "1.0", 1.2, 5.0),
    ]

    def test_flush_equals_observe_spans(self):
        reference = MetricStore()
        observe_spans(reference, self.SPANS)
        store = MetricStore()
        samples = SpanSampleBuffer()
        samples.add_spans(self.SPANS)
        assert store.keys() == []  # nothing lands before the flush
        samples.flush(store)
        assert store.snapshot() == reference.snapshot()

    def test_flush_empties_the_buffer_and_can_be_repeated(self):
        store = MetricStore()
        samples = SpanSampleBuffer()
        samples.add("svc", "1.0", 1.0, 10.0, False)
        samples.flush(store)
        samples.flush(store)
        samples.add("svc", "1.0", 2.0, 20.0, True)
        samples.flush(store)
        assert store.series("svc", "1.0", "response_time").values == [10.0, 20.0]
        assert store.series("svc", "1.0", "error").values == [0.0, 1.0]
        assert store.series("svc", "1.0", "throughput").values == [1.0, 1.0]

    def test_columns_are_the_lists_add_appends_to(self):
        samples = SpanSampleBuffer()
        starts, durations, errors = samples.columns("svc", "1.0")
        samples.add("svc", "1.0", 1.0, 10.0, True)
        assert (starts, durations, errors) == ([1.0], [10.0], [True])
        assert samples.columns("svc", "1.0")[0] is starts


class TestMetricStoreBulkPaths:
    def filled(self):
        store = MetricStore()
        for ts, value in [(3.0, 1.0), (1.0, 2.0), (2.0, 3.0), (2.0, 4.0)]:
            store.record("svc", "1.0", "m", ts, value)
        store.record("svc", "2.0", "m", 0.5, 9.0)
        return store

    def test_restore_lands_each_key_in_one_call(self, monkeypatch):
        snapshot = self.filled().snapshot()
        calls = count_writes(monkeypatch)
        restored = MetricStore()
        restored.restore(snapshot)
        assert restored.snapshot() == snapshot
        assert calls == {("extend_columns", "m"): 2}

    def test_restore_of_an_unsorted_dump_equals_recording_it(self):
        dump = {"series": [{"service": "s", "version": "1", "metric": "m",
                            "samples": [[2.0, 1.0], [1.0, 2.0], [2.0, 3.0]]}]}
        store, reference = MetricStore(), MetricStore()
        store.restore(dump)
        for ts, value in dump["series"][0]["samples"]:
            reference.record("s", "1", "m", ts, value)
        assert store.snapshot() == reference.snapshot()

    def test_restore_skips_keys_without_samples(self):
        store = MetricStore()
        store.restore({"series": [{"service": "s", "version": "1",
                                   "metric": "m", "samples": []}]})
        assert store.keys() == []

    def test_series_miss_returns_a_detached_empty_series(self):
        store = self.filled()
        missing = store.series("svc", "9.9", "m")
        assert len(missing) == 0 and missing.name == "svc@9.9/m"
        missing.append(1.0, 1.0)
        assert len(store.series("svc", "9.9", "m")) == 0
        assert store.series("svc", "1.0", "m") is store.series("svc", "1.0", "m")


def count_writes(monkeypatch) -> Counter:
    """Count ``MetricStore`` write calls by (method, metric) from now on."""
    calls: Counter = Counter()
    for name in ("record", "extend_columns"):
        original = getattr(MetricStore, name)

        def counting(self, service, version, metric, *rest, _o=original, _n=name):
            calls[_n, metric] += 1
            return _o(self, service, version, metric, *rest)

        monkeypatch.setattr(MetricStore, name, counting)
    return calls


class TestBulkDriversNeverRecordTheTriple:
    def test_bifrost_run_flushes_per_stretch(self, monkeypatch):
        bifrost = Bifrost(sample_application(), seed=3)
        ticks = []
        for at in range(1, 20):
            bifrost.simulation.schedule_at(float(at), lambda: ticks.append(1), "tick")
        population = UserPopulation(200, DEFAULT_GROUPS, seed=1)
        generator = WorkloadGenerator(population, entry="frontend.index", seed=5)
        calls = count_writes(monkeypatch)
        outcomes = bifrost.run(generator.constant(0.01, 2_000), until=25.0)
        assert len(outcomes) == 2_000
        span_keys = {(k.service, k.version) for k in bifrost.store.keys()
                     if k.metric in TRIPLE}
        spans = sum(len(o.trace.spans) for o in outcomes)
        extends = sum(n for (name, _), n in calls.items() if name == "extend_columns")
        assert not [key for key in calls if key[0] == "record" and key[1] in TRIPLE]
        # Three calls per key per event-free stretch — not three per span.
        assert 0 < extends <= 3 * len(span_keys) * (len(ticks) + 1)
        assert extends < spans / 20

    def test_one_fleet_slot_makes_six_calls_per_feed(self, monkeypatch):
        fleet = FleetOrchestrator(make_schedule(4), config=fast_config())
        calls = count_writes(monkeypatch)
        fleet.advance_slot()
        assert not [key for key in calls if key[0] == "record" and key[1] in TRIPLE]
        assert {key: n for key, n in calls.items() if key[1] in TRIPLE} == {
            ("extend_columns", metric): 2 * 4 for metric in TRIPLE
        }


def two_entry_app() -> Application:
    """``ok.x`` calls ``leaf.y``; ``loop.x`` calls itself (depth guard)."""
    app = Application()
    app.deploy(ServiceVersion(
        "ok", "1.0", {"x": constant_endpoint("x", 10.0, (DownstreamCall("leaf", "y"),))}
    ))
    app.deploy(ServiceVersion("leaf", "1.0", {"y": constant_endpoint("y", 2.0)}))
    app.deploy(ServiceVersion(
        "loop", "1.0", {"x": constant_endpoint("x", 1.0, (DownstreamCall("loop", "x"),))}
    ))
    return app


def requests(*entries):
    return [
        Request(f"r{i}", float(i), "u1", "eu", entry, {"user-id": "u1"})
        for i, entry in enumerate(entries)
    ]


class TestReplayFlushPoints:
    def test_a_request_that_raises_leaves_no_samples(self):
        stores = []
        for replay in (Runtime.replay, reference_replay):
            runtime = Runtime(two_entry_app(), seed=1)
            stream = replay(runtime, SimulationEngine(runtime.clock),
                            requests("ok.x", "ok.x", "loop.x", "ok.x"))
            assert len([next(stream), next(stream)]) == 2
            with pytest.raises(ExecutionError):
                next(stream)
            stores.append(runtime.monitor.store)
        assert stores[0].snapshot() == stores[1].snapshot()
        assert len(stores[0].series("ok", "1.0", "throughput")) == 2
        assert not [key for key in stores[0].keys() if key.service == "loop"]

    def test_bare_execute_that_raises_leaves_no_samples(self):
        runtime = Runtime(two_entry_app(), seed=1)
        with pytest.raises(ExecutionError):
            runtime.execute(requests("loop.x")[0])
        assert runtime.monitor.store.keys() == []

    def test_closing_the_iterator_early_flushes_what_was_pulled(self):
        stores = []
        for replay in (Runtime.replay, reference_replay):
            runtime = Runtime(two_entry_app(), seed=1)
            stream = replay(runtime, SimulationEngine(runtime.clock),
                            requests(*["ok.x"] * 6))
            pulled = [next(stream) for _ in range(3)]
            stream.close()
            assert runtime.requests_executed == len(pulled) == 3
            stores.append(runtime.monitor.store)
        assert stores[0].snapshot() == stores[1].snapshot()
        assert len(stores[0].series("leaf", "1.0", "throughput")) == 3

    def test_the_store_is_complete_when_an_event_runs_not_between_pulls(self):
        runtime = Runtime(two_entry_app(), seed=1)
        simulation = SimulationEngine(runtime.clock)
        store = runtime.monitor.store
        seen = []
        simulation.schedule_at(
            2.0, lambda: seen.append(len(store.series("ok", "1.0", "throughput")))
        )
        stream = runtime.replay(simulation, requests(*["ok.x"] * 4))
        next(stream)
        next(stream)
        assert store.keys() == []  # buffered: documented laziness
        next(stream)  # the event at t=2.0 runs before the third request
        assert seen == [2]
        list(stream)
        assert len(store.series("ok", "1.0", "throughput")) == 4

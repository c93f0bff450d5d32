"""Unit tests for the telemetry package."""

from array import array

import pytest

from repro.bifrost.middleware import Bifrost
from repro.bifrost.model import Strategy
from repro.errors import ValidationError
from repro.microservices.resilience import ResilienceEvent
from repro.microservices.runtime import Runtime
from repro.telemetry.metrics import Counter, Gauge, Histogram
from repro.telemetry.monitor import SpanSampleBuffer
from repro.telemetry.store import MetricKey, MetricStore, supported_aggregations
from tests.unit.test_bifrost_engine import canary_phase
from tests.unit.test_recovery import durability_count
from tests.unit.test_tracing import make_span


class TestCounter:
    def test_increment(self):
        counter = Counter("requests")
        counter.increment()
        counter.increment(2.5)
        assert counter.value == 3.5

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            Counter("x").increment(-1.0)


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge("inflight")
        gauge.set(5.0)
        gauge.add(-2.0)
        assert gauge.value == 3.0
        gauge.set(10.0)
        assert gauge.value == 10.0


class TestHistogram:
    def test_percentiles(self):
        histogram = Histogram("rt")
        for v in range(1, 101):
            histogram.observe(float(v))
        assert histogram.percentile(50) == pytest.approx(50.5)
        assert histogram.percentile(99) == pytest.approx(99.01, abs=0.5)

    def test_capacity_evicts_oldest(self):
        histogram = Histogram("rt", capacity=3)
        for v in (1.0, 2.0, 3.0, 100.0):
            histogram.observe(v)
        assert len(histogram) == 3
        assert histogram.percentile(0) == 2.0

    def test_empty_percentile_raises(self):
        with pytest.raises(ValidationError):
            Histogram("rt").percentile(50)

    def test_summary(self):
        histogram = Histogram("rt")
        histogram.observe(1.0)
        histogram.observe(3.0)
        assert histogram.summary().mean == 2.0


class TestMetricStore:
    def test_record_and_aggregate(self):
        store = MetricStore()
        for t in range(10):
            store.record("svc", "1.0", "response_time", float(t), float(t * 10))
        assert store.aggregate("svc", "1.0", "response_time", "mean", 0, 10) == 45.0
        assert store.aggregate("svc", "1.0", "response_time", "count", 0, 5) == 5.0
        assert store.aggregate("svc", "1.0", "response_time", "max", 0, 10) == 90.0

    def test_empty_window_returns_none(self):
        store = MetricStore()
        store.record("svc", "1.0", "m", 0.0, 1.0)
        assert store.aggregate("svc", "1.0", "m", "mean", 5.0, 10.0) is None

    def test_window_boundaries_are_half_open(self):
        store = MetricStore()
        for t in (1.0, 2.0, 3.0):
            store.record("svc", "1.0", "m", t, t * 10)
        # Sample at start included, sample at end excluded.
        assert store.values_in_window("svc", "1.0", "m", 1.0, 3.0) == [10.0, 20.0]
        assert store.aggregate("svc", "1.0", "m", "count", 1.0, 3.0) == 2.0
        # The end-boundary sample lands in the adjacent window instead.
        assert store.values_in_window("svc", "1.0", "m", 3.0, 5.0) == [30.0]

    def test_adjacent_windows_never_double_count(self):
        store = MetricStore()
        for t in range(6):
            store.record("svc", "1.0", "m", float(t), 1.0)
        first = store.aggregate("svc", "1.0", "m", "count", 0.0, 3.0)
        second = store.aggregate("svc", "1.0", "m", "count", 3.0, 6.0)
        assert first + second == 6.0

    def test_unknown_metric_returns_none(self):
        assert MetricStore().aggregate("a", "b", "c", "mean", 0, 1) is None

    def test_unknown_aggregation_raises(self):
        with pytest.raises(ValidationError):
            MetricStore().aggregate("a", "b", "c", "avg", 0, 1)

    def test_supported_aggregations_listed(self):
        assert {"mean", "p95", "count"} <= set(supported_aggregations())

    def test_keys_sorted(self):
        store = MetricStore()
        store.record("b", "1", "m", 0.0, 1.0)
        store.record("a", "1", "m", 0.0, 1.0)
        assert store.keys()[0] == MetricKey("a", "1", "m")

    def test_versions_are_separate_streams(self):
        store = MetricStore()
        store.record("svc", "1.0", "m", 0.0, 1.0)
        store.record("svc", "2.0", "m", 0.0, 9.0)
        assert store.aggregate("svc", "1.0", "m", "mean", 0, 1) == 1.0
        assert store.aggregate("svc", "2.0", "m", "mean", 0, 1) == 9.0


def observe(store: MetricStore, *spans) -> None:
    """Land spans in *store* the way every driver does."""
    samples = SpanSampleBuffer()
    for span in spans:
        samples.add(span.service, span.version, span.start, span.duration_ms, span.error)
    samples.flush(store)


class TestMonitor:
    """Span samples read back as the three standard metrics."""

    def test_observe_span_derives_metrics(self):
        store = MetricStore()
        observe(store, make_span(duration_ms=42.0))
        assert store.aggregate("frontend", "1.0.0", "response_time", "mean", 0, 1) == 42.0
        assert store.aggregate("frontend", "1.0.0", "error", "mean", 0, 1) == 0.0
        assert store.aggregate("frontend", "1.0.0", "throughput", "count", 0, 1) == 1.0

    def test_error_rate(self):
        store = MetricStore()
        observe(store, make_span("s1", error=True), make_span("s2", error=False))
        assert store.aggregate("frontend", "1.0.0", "error", "mean", 0, 1) == 0.5

    def test_no_traffic_is_none(self):
        store = MetricStore()
        assert store.aggregate("svc", "1.0", "error", "mean", 0, 1) is None
        assert store.aggregate("svc", "1.0", "throughput", "count", 0, 1) is None


class TestMetricStoreSnapshot:
    def make_store(self) -> MetricStore:
        store = MetricStore()
        store.record("svc", "1.0", "response_time", 0.0, 10.0)
        store.record("svc", "1.0", "response_time", 1.0, 12.0)
        store.record("svc", "2.0", "error", 0.5, 1.0)
        return store

    def test_snapshot_restore_round_trip(self):
        store = self.make_store()
        restored = MetricStore()
        restored.restore(store.snapshot())
        assert restored.keys() == store.keys()
        for key in store.keys():
            assert restored.values_in_window(
                key.service, key.version, key.metric, 0.0, 10.0
            ) == store.values_in_window(key.service, key.version, key.metric, 0.0, 10.0)

    def test_snapshot_is_json_compatible(self):
        import json

        dump = self.make_store().snapshot()
        assert json.loads(json.dumps(dump)) == dump

    def test_restore_replaces_existing_contents(self):
        restored = MetricStore()
        restored.record("stale", "1.0", "m", 0.0, 1.0)
        restored.restore(self.make_store().snapshot())
        assert all(key.service != "stale" for key in restored.keys())

    def test_restore_rejects_malformed_document(self):
        import pytest as _pytest

        from repro.errors import ValidationError

        with _pytest.raises(ValidationError):
            MetricStore().restore({"series": [{"service": "x"}]})


class TestMetricStoreKeys:
    """The store keeps one series per (service, version, metric) on every path."""

    def test_every_path_lands_in_one_series_per_key(self):
        store = MetricStore()
        store.record("svc", "1.0", "error", 0.0, 1.0)
        store.extend_columns("svc", "1.0", "error", [1.0, 2.0], [0.0, 1.0])
        store.extend_columns("svc", "2.0", "error", array("d", [0.5]), [1.0])
        assert store.keys() == [
            MetricKey("svc", "1.0", "error"),
            MetricKey("svc", "2.0", "error"),
        ]
        series = store.series("svc", "1.0", "error")
        assert series is store.series("svc", "1.0", "error")
        assert series.name == "svc@1.0/error"
        assert (series.timestamps, series.values) == ([0.0, 1.0, 2.0], [1.0, 0.0, 1.0])
        assert store.snapshot()["series"][0] == {
            "service": "svc",
            "version": "1.0",
            "metric": "error",
            "samples": [[0.0, 1.0], [1.0, 0.0], [2.0, 1.0]],
        }

    def test_absent_series_is_empty_and_not_stored(self):
        store = MetricStore()
        assert len(store.series("svc", "1.0", "error")) == 0
        assert store.series("svc", "1.0", "error").name == "svc@1.0/error"
        assert store.keys() == []

    def test_writes_after_restore_land_in_the_restored_series(self):
        source = MetricStore()
        source.extend_columns("svc", "1.0", "error", [0.0, 1.0], [1.0, 0.0])
        store = MetricStore()
        store.restore(source.snapshot())
        store.record("svc", "1.0", "error", 2.0, 1.0)
        store.extend_columns("svc", "1.0", "error", [3.0], [0.0])
        assert store.keys() == [MetricKey("svc", "1.0", "error")]
        series = store.series("svc", "1.0", "error")
        assert series.timestamps == [0.0, 1.0, 2.0, 3.0]
        assert store.aggregate("svc", "1.0", "error", "sum", 0.0, 4.0) == 2.0
        assert len(store.snapshot()["series"]) == 1


class TestDurabilityMetrics:
    """A durable middleware's supervisor stores its events in the shared store."""

    def test_observe_durability_records_under_engine_key(self, canary_app):
        bifrost = Bifrost(canary_app, durable=True)
        bifrost.supervisor.crash(5.0)
        bifrost.supervisor.restart(6.0)
        assert durability_count(bifrost.store, "crash", 0.0, 10.0) == 1.0
        assert durability_count(bifrost.store, "restart", 0.0, 10.0) == 1.0
        assert durability_count(bifrost.store, "restart", 0.0, 5.5) == 0.0

    def test_durability_value_carries_magnitude(self, canary_app):
        bifrost = Bifrost(canary_app, durable=True)
        bifrost.submit(Strategy("s", (canary_phase(),)), at=1.0)
        bifrost.simulation.run_until(2.0)
        bifrost.supervisor.crash(3.0)
        bifrost.supervisor.restart(4.0)
        replayed = bifrost.supervisor.reports[-1].records_replayed
        assert replayed > 1
        assert bifrost.store.aggregate(
            "bifrost", "engine", "durability.records_replayed", "sum", 0.0, 5.0
        ) == float(replayed)

    def test_no_events_is_zero(self, canary_app):
        bifrost = Bifrost(canary_app, durable=True)
        assert durability_count(bifrost.store, "crash", 0.0, 1.0) == 0.0


class TestHistogramEviction:
    """Sliding-window (FIFO) eviction and percentile edge cases."""

    def test_exactly_at_capacity_keeps_everything(self):
        histogram = Histogram("rt", capacity=4)
        for v in (4.0, 1.0, 3.0, 2.0):
            histogram.observe(v)
        assert len(histogram) == 4
        assert histogram.values() == [1.0, 2.0, 3.0, 4.0]

    def test_eviction_is_fifo_not_by_value(self):
        # The *oldest* observation leaves, even when it is the largest —
        # this is sliding-window truncation, not reservoir sampling.
        histogram = Histogram("rt", capacity=3)
        for v in (100.0, 1.0, 2.0, 3.0):
            histogram.observe(v)
        assert histogram.values() == [1.0, 2.0, 3.0]

    def test_heavy_eviction_keeps_only_recent_window(self):
        histogram = Histogram("rt", capacity=10)
        for v in range(1000):
            histogram.observe(float(v))
        assert histogram.values() == [float(v) for v in range(990, 1000)]

    def test_percentile_zero_is_minimum(self):
        histogram = Histogram("rt")
        for v in (5.0, 1.0, 9.0):
            histogram.observe(v)
        assert histogram.percentile(0) == 1.0

    def test_percentile_hundred_is_maximum(self):
        histogram = Histogram("rt")
        for v in (5.0, 1.0, 9.0):
            histogram.observe(v)
        assert histogram.percentile(100) == 9.0

    def test_single_element_every_percentile(self):
        histogram = Histogram("rt")
        histogram.observe(42.0)
        for q in (0, 25, 50, 75, 100):
            assert histogram.percentile(q) == 42.0

    def test_out_of_range_percentile_raises(self):
        histogram = Histogram("rt")
        histogram.observe(1.0)
        with pytest.raises(ValidationError):
            histogram.percentile(-1)
        with pytest.raises(ValidationError):
            histogram.percentile(101)


class TestResilienceMetrics:
    """Version mapping of resilience events."""

    @staticmethod
    def emit(canary_app, version):
        """A runtime whose resilience layer emitted one retry of *version*."""
        runtime = Runtime(canary_app)
        event = ResilienceEvent(kind="retry", time=1.0, service="checkout", version=version)
        runtime.resilience.emit(event)
        return runtime.store

    @staticmethod
    def retries(store, version):
        return store.aggregate("checkout", version, "resilience.retry", "count", 0.0, 2.0)

    def test_versioned_event_recorded_under_real_version(self, canary_app):
        store = self.emit(canary_app, "2.0.0")
        assert self.retries(store, "2.0.0") == 1.0
        # Nothing leaks into the wildcard bucket.
        assert self.retries(store, "*") is None

    def test_versionless_event_falls_back_to_wildcard(self, canary_app):
        assert self.retries(self.emit(canary_app, ""), "*") == 1.0

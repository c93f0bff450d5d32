"""Unit tests for repro.stats.timeseries."""

import pytest

from repro.errors import StatisticsError
from repro.stats.timeseries import TimeSeries


class TestAppend:
    def test_in_order(self):
        series = TimeSeries("t")
        series.append(1.0, 10.0)
        series.append(2.0, 20.0)
        assert series.values == [10.0, 20.0]

    def test_out_of_order_sorts(self):
        series = TimeSeries()
        series.append(2.0, 20.0)
        series.append(1.0, 10.0)
        assert series.timestamps == [1.0, 2.0]
        assert series.values == [10.0, 20.0]

    def test_extend(self):
        series = TimeSeries()
        series.extend_columns([0.0, 1.0], [1.0, 2.0])
        assert len(series) == 2

    def test_iteration_yields_pairs(self):
        series = TimeSeries()
        series.append(0.5, 5.0)
        assert list(series) == [(0.5, 5.0)]


class TestWindow:
    def test_half_open_interval(self):
        series = TimeSeries()
        for t in range(5):
            series.append(float(t), float(t) * 10)
        assert series.window(1.0, 3.0) == [10.0, 20.0]

    def test_empty_window(self):
        series = TimeSeries()
        series.append(1.0, 1.0)
        assert series.window(5.0, 6.0) == []

    def test_invalid_window(self):
        with pytest.raises(StatisticsError):
            TimeSeries().window(2.0, 1.0)

    def test_last_convenience(self):
        series = TimeSeries()
        for t in range(10):
            series.append(float(t), float(t))
        assert series.last(3.0, now=10.0) == [7.0, 8.0, 9.0]

    def test_start_boundary_included_end_excluded(self):
        series = TimeSeries()
        series.extend_columns([1.0, 2.0, 3.0], [10.0, 20.0, 30.0])
        # Half-open [start, end): exactly-on-start in, exactly-on-end out.
        assert series.window(1.0, 3.0) == [10.0, 20.0]
        assert series.window(3.0, 4.0) == [30.0]

    def test_adjacent_windows_partition_samples(self):
        series = TimeSeries()
        for t in range(8):
            series.append(float(t), float(t))
        lower = series.window(0.0, 4.0)
        upper = series.window(4.0, 8.0)
        assert lower + upper == series.values  # no loss, no double count

    def test_degenerate_window_is_empty(self):
        series = TimeSeries()
        series.append(2.0, 5.0)
        assert series.window(2.0, 2.0) == []

    def test_last_excludes_sample_at_now(self):
        series = TimeSeries()
        series.extend_columns([7.0, 10.0], [7.0, 99.0])
        # last(d, now) is the half-open [now - d, now): the sample
        # stamped exactly `now` belongs to the *next* window.
        assert series.last(3.0, now=10.0) == [7.0]


class TestResample:
    def test_buckets_average(self):
        series = TimeSeries()
        series.extend_columns([0.0, 0.5, 1.2], [10.0, 20.0, 30.0])
        buckets = series.resample(1.0)
        assert buckets[0] == (0.0, 15.0)
        assert buckets[1] == (1.0, 30.0)

    def test_empty_series(self):
        assert TimeSeries().resample(1.0) == []

    def test_invalid_bucket_width(self):
        with pytest.raises(StatisticsError):
            TimeSeries().resample(0.0)

    def test_gap_skips_empty_buckets(self):
        series = TimeSeries()
        series.extend_columns([0.0, 5.0], [1.0, 2.0])
        buckets = series.resample(1.0)
        assert len(buckets) == 2
        assert buckets[1][0] == 5.0


class TestSummary:
    def test_summary_over_values(self):
        series = TimeSeries()
        series.extend_columns([0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        stats = series.summary()
        assert stats.count == 3
        assert stats.mean == 2.0

"""Unit tests for repro.stats.descriptive."""

import math

import pytest

from repro.errors import StatisticsError
from repro.stats.descriptive import (
    mean,
    median,
    percentile,
    stddev,
    summarize,
)


class TestMean:
    def test_simple(self):
        assert mean([1, 2, 3]) == 2.0

    def test_single_value(self):
        assert mean([42.0]) == 42.0

    def test_negative_values(self):
        assert mean([-2, 2]) == 0.0

    def test_empty_raises(self):
        with pytest.raises(StatisticsError):
            mean([])

    def test_accepts_generator(self):
        assert mean(x for x in (1.0, 3.0)) == 2.0


class TestMedian:
    def test_odd_length(self):
        assert median([3, 1, 2]) == 2.0

    def test_even_length_interpolates(self):
        assert median([1, 2, 3, 4]) == 2.5

    def test_unsorted_input(self):
        assert median([9, 1, 5]) == 5.0

    def test_empty_raises(self):
        with pytest.raises(StatisticsError):
            median([])


class TestStddev:
    def test_known_value(self):
        # Sample stddev of [2, 4, 4, 4, 5, 5, 7, 9] is ~2.138.
        assert stddev([2, 4, 4, 4, 5, 5, 7, 9]) == pytest.approx(2.1381, abs=1e-3)

    def test_single_observation_is_zero(self):
        assert stddev([5.0]) == 0.0

    def test_constant_sample_is_zero(self):
        assert stddev([3, 3, 3]) == 0.0

    def test_population_variant(self):
        assert stddev([1, 3], ddof=0) == pytest.approx(1.0)


class TestPercentile:
    def test_median_equivalence(self):
        data = [1, 2, 3, 4, 5]
        assert percentile(data, 50) == median(data)

    def test_extremes(self):
        data = [10, 20, 30]
        assert percentile(data, 0) == 10
        assert percentile(data, 100) == 30

    def test_interpolation(self):
        assert percentile([0, 10], 25) == pytest.approx(2.5)

    def test_out_of_range_q(self):
        with pytest.raises(StatisticsError):
            percentile([1, 2], 101)

    def test_single_value(self):
        assert percentile([7], 99) == 7


class TestSummarize:
    def test_fields_consistent(self):
        stats = summarize([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        assert stats.count == 10
        assert stats.minimum == 1
        assert stats.maximum == 10
        assert stats.mean == 5.5
        assert stats.p25 <= stats.median <= stats.p75 <= stats.p95 <= stats.p99

    def test_as_row_keys(self):
        row = summarize([1.0, 2.0]).as_row()
        assert set(row) == {
            "count", "mean", "std", "min", "p25", "median", "p75",
            "p95", "p99", "max",
        }

    def test_empty_raises(self):
        with pytest.raises(StatisticsError):
            summarize([])

    def test_not_nan(self):
        stats = summarize([3.0])
        assert not math.isnan(stats.std)

"""Unit tests for repro.stats.hypothesis."""

import pytest
from scipy import stats as scipy_stats

from repro.errors import StatisticsError
from repro.simulation.rng import SeededRng
from repro.stats.hypothesis import (
    chi_square_test,
    mann_whitney_u_test,
    proportions_z_test,
    welch_t_test,
)


def _normal_sample(rng: SeededRng, mu: float, sigma: float, n: int) -> list[float]:
    return [rng.raw.gauss(mu, sigma) for _ in range(n)]


class TestWelchT:
    def test_matches_scipy(self):
        rng = SeededRng(1)
        a = _normal_sample(rng, 10, 2, 60)
        b = _normal_sample(rng, 11, 3, 80)
        ours = welch_t_test(a, b)
        ref = scipy_stats.ttest_ind(a, b, equal_var=False)
        assert ours.statistic == pytest.approx(ref.statistic, rel=1e-9)
        assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-9)

    def test_detects_clear_difference(self):
        rng = SeededRng(2)
        a = _normal_sample(rng, 100, 5, 100)
        b = _normal_sample(rng, 110, 5, 100)
        result = welch_t_test(a, b)
        assert result.significant(0.001)
        assert result.effect == pytest.approx(-10, abs=2.5)

    def test_no_difference_not_significant(self):
        rng = SeededRng(3)
        a = _normal_sample(rng, 50, 5, 100)
        b = _normal_sample(rng, 50, 5, 100)
        assert not welch_t_test(a, b).significant(0.01)

    def test_identical_constant_samples(self):
        result = welch_t_test([5, 5, 5], [5, 5, 5])
        assert result.p_value == 1.0

    def test_distinct_constant_samples(self):
        result = welch_t_test([5, 5, 5], [6, 6, 6])
        assert result.p_value == 0.0
        assert result.effect == -1.0

    def test_requires_two_observations(self):
        with pytest.raises(StatisticsError):
            welch_t_test([1.0], [1.0, 2.0])


class TestMannWhitney:
    def test_matches_scipy(self):
        rng = SeededRng(4)
        a = [rng.raw.expovariate(0.1) for _ in range(50)]
        b = [rng.raw.expovariate(0.08) for _ in range(60)]
        ours = mann_whitney_u_test(a, b)
        # Our implementation uses the plain normal approximation without
        # the continuity correction, so compare against the same method.
        ref = scipy_stats.mannwhitneyu(
            a, b, alternative="two-sided", use_continuity=False,
            method="asymptotic",
        )
        assert ours.statistic == pytest.approx(ref.statistic, rel=1e-9)
        assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-6)

    def test_handles_ties(self):
        a = [1, 2, 2, 3, 3, 3]
        b = [2, 3, 3, 4, 4, 4]
        result = mann_whitney_u_test(a, b)
        assert 0.0 <= result.p_value <= 1.0

    def test_effect_direction(self):
        result = mann_whitney_u_test([10, 11, 12], [1, 2, 3])
        assert result.effect == 1.0  # a stochastically dominates b

    def test_identical_samples_effect_zero(self):
        result = mann_whitney_u_test([1, 2, 3], [1, 2, 3])
        assert result.effect == pytest.approx(0.0)


class TestProportions:
    def test_clear_lift_significant(self):
        result = proportions_z_test(180, 1000, 120, 1000)
        assert result.significant(0.01)
        assert result.effect == pytest.approx(0.06)

    def test_no_lift_not_significant(self):
        result = proportions_z_test(100, 1000, 101, 1000)
        assert not result.significant(0.05)

    def test_invalid_trials(self):
        with pytest.raises(StatisticsError):
            proportions_z_test(1, 0, 1, 10)

    def test_successes_exceeding_trials(self):
        with pytest.raises(StatisticsError):
            proportions_z_test(11, 10, 1, 10)

    def test_all_zero_rates(self):
        result = proportions_z_test(0, 100, 0, 100)
        assert result.p_value == 1.0


class TestChiSquare:
    def test_matches_scipy(self):
        table = [[30, 10], [20, 40]]
        ours = chi_square_test(table)
        ref_stat, ref_p, _, _ = scipy_stats.chi2_contingency(table, correction=False)
        assert ours.statistic == pytest.approx(ref_stat, rel=1e-9)
        assert ours.p_value == pytest.approx(ref_p, rel=1e-9)

    def test_independent_table_not_significant(self):
        result = chi_square_test([[50, 50], [50, 50]])
        assert result.p_value == pytest.approx(1.0)
        assert result.effect == pytest.approx(0.0)

    def test_requires_rectangular(self):
        with pytest.raises(StatisticsError):
            chi_square_test([[1, 2], [3]])

    def test_rejects_zero_margin(self):
        with pytest.raises(StatisticsError):
            chi_square_test([[0, 0], [1, 2]])

    def test_requires_two_columns(self):
        with pytest.raises(StatisticsError):
            chi_square_test([[1], [2]])

"""Hypothesis tests for business-driven experiment evaluation.

Chapter 2 characterizes business-driven experiments (A/B tests) as using
"rigorous hypothesis testing on selected metrics".  This module implements
the tests most relevant to release experimentation:

- Welch's t-test for metric means (response times, revenue per user),
- Mann-Whitney U for non-normal latency distributions,
- two-proportion z-test for conversion rates,
- chi-square test of independence for categorical outcomes.

Implementations use :mod:`scipy` distributions for p-values but keep the
statistic computation explicit and documented.  scipy is imported inside
the four tests, not at module scope: ``import repro`` stays scipy-free
(~490 modules, ~65 MiB) until a p-value is actually asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import StatisticsError


@dataclass(frozen=True)
class HypothesisTestResult:
    """Outcome of a two-sample hypothesis test.

    Attributes:
        test: short identifier of the test that produced the result.
        statistic: the test statistic value.
        p_value: two-sided p-value.
        effect: a test-specific effect estimate (difference of means,
            difference of proportions, rank-biserial correlation, ...).
    """

    test: str
    statistic: float
    p_value: float
    effect: float

    def significant(self, alpha: float = 0.05) -> bool:
        """Whether the null hypothesis is rejected at level *alpha*."""
        return self.p_value < alpha


def _clean(sample: Iterable[float], name: str, minimum: int = 2) -> list[float]:
    data = [float(v) for v in sample]
    if len(data) < minimum:
        raise StatisticsError(
            f"{name} requires at least {minimum} observations, got {len(data)}"
        )
    return data


def welch_t_test(a: Iterable[float], b: Iterable[float]) -> HypothesisTestResult:
    """Welch's unequal-variance t-test comparing the means of *a* and *b*.

    Returns the two-sided p-value; ``effect`` is ``mean(a) - mean(b)``.
    """
    xs = _clean(a, "welch_t_test sample a")
    ys = _clean(b, "welch_t_test sample b")
    mean_a = sum(xs) / len(xs)
    mean_b = sum(ys) / len(ys)
    var_a = sum((x - mean_a) ** 2 for x in xs) / (len(xs) - 1)
    var_b = sum((y - mean_b) ** 2 for y in ys) / (len(ys) - 1)
    se_sq = var_a / len(xs) + var_b / len(ys)
    if se_sq == 0.0:
        # Identical constant samples: no evidence against H0 unless the
        # means differ, in which case the difference is exact.
        p_value = 0.0 if mean_a != mean_b else 1.0
        return HypothesisTestResult("welch-t", 0.0, p_value, mean_a - mean_b)
    t_stat = (mean_a - mean_b) / math.sqrt(se_sq)
    # Welch-Satterthwaite degrees of freedom.
    df_num = se_sq**2
    df_den = (var_a / len(xs)) ** 2 / (len(xs) - 1) + (var_b / len(ys)) ** 2 / (
        len(ys) - 1
    )
    df = df_num / df_den if df_den > 0 else len(xs) + len(ys) - 2
    from scipy import stats as _scipy_stats

    p_value = 2.0 * _scipy_stats.t.sf(abs(t_stat), df)
    return HypothesisTestResult("welch-t", t_stat, float(p_value), mean_a - mean_b)


def mann_whitney_u_test(a: Iterable[float], b: Iterable[float]) -> HypothesisTestResult:
    """Mann-Whitney U test (two-sided, normal approximation with tie correction).

    ``effect`` is the rank-biserial correlation ``2U/(n1*n2) - 1`` in
    ``[-1, 1]``; positive values mean *a* tends to be larger than *b*.
    """
    xs = _clean(a, "mann_whitney_u_test sample a")
    ys = _clean(b, "mann_whitney_u_test sample b")
    n1, n2 = len(xs), len(ys)
    combined = sorted((v, 0) for v in xs)
    combined += sorted((v, 1) for v in ys)
    combined.sort(key=lambda pair: pair[0])
    # Assign midranks for ties.
    ranks = [0.0] * len(combined)
    i = 0
    tie_correction = 0.0
    while i < len(combined):
        j = i
        while j + 1 < len(combined) and combined[j + 1][0] == combined[i][0]:
            j += 1
        midrank = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[k] = midrank
        tie_len = j - i + 1
        tie_correction += tie_len**3 - tie_len
        i = j + 1
    rank_sum_a = sum(r for r, (_, grp) in zip(ranks, combined) if grp == 0)
    u_a = rank_sum_a - n1 * (n1 + 1) / 2.0
    mu = n1 * n2 / 2.0
    n = n1 + n2
    sigma_sq = (n1 * n2 / 12.0) * ((n + 1) - tie_correction / (n * (n - 1)))
    effect = 2.0 * u_a / (n1 * n2) - 1.0
    if sigma_sq <= 0.0:
        return HypothesisTestResult("mann-whitney-u", u_a, 1.0, effect)
    from scipy import stats as _scipy_stats

    z = (u_a - mu) / math.sqrt(sigma_sq)
    p_value = 2.0 * _scipy_stats.norm.sf(abs(z))
    return HypothesisTestResult("mann-whitney-u", u_a, float(p_value), effect)


def proportions_z_test(
    successes_a: int, trials_a: int, successes_b: int, trials_b: int
) -> HypothesisTestResult:
    """Two-proportion z-test, the workhorse for conversion-rate A/B tests.

    ``effect`` is ``p_a - p_b``.
    """
    if trials_a <= 0 or trials_b <= 0:
        raise StatisticsError("proportions_z_test requires positive trial counts")
    if not 0 <= successes_a <= trials_a or not 0 <= successes_b <= trials_b:
        raise StatisticsError("successes must lie in [0, trials]")
    p_a = successes_a / trials_a
    p_b = successes_b / trials_b
    pooled = (successes_a + successes_b) / (trials_a + trials_b)
    se_sq = pooled * (1.0 - pooled) * (1.0 / trials_a + 1.0 / trials_b)
    if se_sq == 0.0:
        p_value = 0.0 if p_a != p_b else 1.0
        return HypothesisTestResult("proportions-z", 0.0, p_value, p_a - p_b)
    from scipy import stats as _scipy_stats

    z = (p_a - p_b) / math.sqrt(se_sq)
    p_value = 2.0 * _scipy_stats.norm.sf(abs(z))
    return HypothesisTestResult("proportions-z", z, float(p_value), p_a - p_b)


def chi_square_test(table: Sequence[Sequence[float]]) -> HypothesisTestResult:
    """Chi-square test of independence on a contingency *table*.

    ``effect`` is Cramér's V.  Rows/columns whose totals are zero are
    rejected as invalid input.
    """
    rows = [list(map(float, row)) for row in table]
    if len(rows) < 2 or any(len(row) != len(rows[0]) for row in rows):
        raise StatisticsError("chi_square_test requires a rectangular table (>=2 rows)")
    if len(rows[0]) < 2:
        raise StatisticsError("chi_square_test requires at least 2 columns")
    row_totals = [sum(row) for row in rows]
    col_totals = [sum(col) for col in zip(*rows)]
    total = sum(row_totals)
    if total <= 0 or any(t <= 0 for t in row_totals) or any(t <= 0 for t in col_totals):
        raise StatisticsError("chi_square_test requires positive row/column totals")
    statistic = 0.0
    for i, row in enumerate(rows):
        for j, observed in enumerate(row):
            expected = row_totals[i] * col_totals[j] / total
            statistic += (observed - expected) ** 2 / expected
    df = (len(rows) - 1) * (len(rows[0]) - 1)
    from scipy import stats as _scipy_stats

    p_value = float(_scipy_stats.chi2.sf(statistic, df))
    k = min(len(rows), len(rows[0]))
    cramers_v = math.sqrt(statistic / (total * (k - 1))) if k > 1 else 0.0
    return HypothesisTestResult("chi-square", statistic, p_value, cramers_v)

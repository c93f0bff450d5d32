"""Power analysis: minimum sample sizes for valid experiments.

Chapter 1 frames experiment planning as "identifying optimal plans to
collect required sample sizes for sound statistical interpretation"
(cf. Kohavi et al.).  Fenrir consumes the *required sample size* of each
experiment as a scheduling constraint; this module computes those numbers
from the desired sensitivity of the underlying test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import StatisticsError


def _z(quantile: float) -> float:
    from scipy import stats as _scipy_stats

    return float(_scipy_stats.norm.ppf(quantile))


@dataclass(frozen=True)
class PowerAnalysis:
    """Parameters of a two-sample power calculation.

    Attributes:
        alpha: two-sided significance level (type I error rate).
        power: desired statistical power (1 - type II error rate).
    """

    alpha: float = 0.05
    power: float = 0.8

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise StatisticsError(f"alpha must be in (0, 1), got {self.alpha}")
        if not 0.0 < self.power < 1.0:
            raise StatisticsError(f"power must be in (0, 1), got {self.power}")

    @property
    def z_alpha(self) -> float:
        """z-quantile for the two-sided significance level."""
        return _z(1.0 - self.alpha / 2.0)

    @property
    def z_beta(self) -> float:
        """z-quantile for the desired power."""
        return _z(self.power)


def required_sample_size_mean(
    effect_size: float,
    std: float,
    analysis: PowerAnalysis | None = None,
) -> int:
    """Per-group sample size to detect a difference in means of *effect_size*.

    Uses the standard normal approximation
    ``n = 2 * ((z_a + z_b) * std / effect)^2`` rounded up.
    """
    if effect_size <= 0:
        raise StatisticsError("effect_size must be positive")
    if std <= 0:
        raise StatisticsError("std must be positive")
    analysis = analysis or PowerAnalysis()
    n = 2.0 * ((analysis.z_alpha + analysis.z_beta) * std / effect_size) ** 2
    return max(2, math.ceil(n))


def required_sample_size_proportion(
    baseline_rate: float,
    minimum_detectable_effect: float,
    analysis: PowerAnalysis | None = None,
) -> int:
    """Per-group sample size to detect an absolute lift in a conversion rate.

    *baseline_rate* is the control conversion rate p, and
    *minimum_detectable_effect* the absolute difference to detect.  Uses
    the conservative pooled-variance normal approximation.
    """
    p1 = baseline_rate
    p2 = baseline_rate + minimum_detectable_effect
    if not 0.0 < p1 < 1.0:
        raise StatisticsError(f"baseline_rate must be in (0, 1), got {p1}")
    if not 0.0 < p2 < 1.0:
        raise StatisticsError(
            "baseline_rate + minimum_detectable_effect must stay in (0, 1), "
            f"got {p2}"
        )
    if minimum_detectable_effect == 0:
        raise StatisticsError("minimum_detectable_effect must be nonzero")
    analysis = analysis or PowerAnalysis()
    p_bar = (p1 + p2) / 2.0
    numerator = (
        analysis.z_alpha * math.sqrt(2.0 * p_bar * (1.0 - p_bar))
        + analysis.z_beta * math.sqrt(p1 * (1.0 - p1) + p2 * (1.0 - p2))
    ) ** 2
    n = numerator / (p2 - p1) ** 2
    return max(2, math.ceil(n))

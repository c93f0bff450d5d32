"""Statistics toolkit underpinning experiment planning and analysis.

The dissertation leans on "sound statistical interpretation" of experiment
data (Kohavi-style controlled experiments): minimum sample sizes, hypothesis
tests on collected metrics, sequential health evaluation while an experiment
runs, and nDCG for ranking quality (Chapter 5).  This package provides those
building blocks without any external service dependency.
"""

from repro.stats.abtest import ABTestAnalysis, ABTestReport, Verdict
from repro.stats.descriptive import (
    SummaryStats,
    mean,
    median,
    percentile,
    stddev,
    summarize,
)
from repro.stats.hypothesis import (
    HypothesisTestResult,
    chi_square_test,
    mann_whitney_u_test,
    proportions_z_test,
    welch_t_test,
)
from repro.stats.power import (
    PowerAnalysis,
    required_sample_size_mean,
    required_sample_size_proportion,
)
from repro.stats.ranking import dcg, idcg, ndcg
from repro.stats.sequential import SequentialProbabilityRatioTest, SprtDecision
from repro.stats.timeseries import TimeSeries

__all__ = [
    "ABTestAnalysis",
    "ABTestReport",
    "Verdict",
    "SummaryStats",
    "mean",
    "median",
    "percentile",
    "stddev",
    "summarize",
    "HypothesisTestResult",
    "chi_square_test",
    "mann_whitney_u_test",
    "proportions_z_test",
    "welch_t_test",
    "PowerAnalysis",
    "required_sample_size_mean",
    "required_sample_size_proportion",
    "dcg",
    "idcg",
    "ndcg",
    "SequentialProbabilityRatioTest",
    "SprtDecision",
    "TimeSeries",
]

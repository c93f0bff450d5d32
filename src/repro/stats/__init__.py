"""Statistics toolkit underpinning experiment planning and analysis.

The dissertation leans on "sound statistical interpretation" of experiment
data (Kohavi-style controlled experiments): minimum sample sizes, hypothesis
tests on collected metrics, sequential health evaluation while an experiment
runs, and nDCG for ranking quality (Chapter 5).  This package provides those
building blocks without any external service dependency.
"""

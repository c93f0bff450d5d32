"""The conceptual framework for continuous experimentation (Chapter 1).

The dissertation's thesis: a detailed understanding of continuous
experiments enables a conceptual framework for *planning*, *executing*, and
*analyzing* them.  This package holds the shared experiment model — the
regression-/business-driven classification from the empirical study, the
experiment life cycle — and
:class:`~repro.core.framework.ExperimentationFramework`, the facade that
wires Fenrir (planning), Bifrost (execution), and the topology-aware health
assessment (analysis) together.
"""

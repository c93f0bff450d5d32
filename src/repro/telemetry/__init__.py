"""Telemetry: metric collection for experiment health evaluation.

The dissertation's premise is that "sophisticated telemetry solutions keep
track of releases" — Bifrost checks read windowed aggregates of metrics
such as response time, error rate, and CPU utilization per service
version.  This package provides the metric primitives and a windowed
:class:`~repro.telemetry.store.MetricStore` keyed by (service, version, metric).
"""

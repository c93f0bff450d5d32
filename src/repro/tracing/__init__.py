"""Distributed tracing substrate (Zipkin/Jaeger equivalent).

Chapter 5's health assessment consumes distributed traces "as produced by
Zipkin or Jaeger": trees of spans annotated with service, version, endpoint,
and timing.  The simulated microservice runtime emits spans into a
:class:`~repro.tracing.collector.TraceCollector`; the topology package reads
them back through :class:`~repro.tracing.query.TraceQuery`.
"""

"""Simulated microservice applications.

The dissertation evaluates Bifrost and the health-assessment heuristics on
microservice-based case-study applications deployed to public-cloud VMs.
This package is the offline substitute: services with independently
deployable *versions*, endpoints with latency/error behaviour and downstream
calls, and a :class:`~repro.microservices.runtime.Runtime` that executes
end-user requests through the topology — emitting distributed traces and
telemetry exactly like an instrumented production system would.

The resilience layer (:mod:`repro.microservices.resilience`) threads
retries, fallbacks, and circuit breakers through every call a service
makes;
the fault module (:mod:`repro.microservices.faults`) provides both
static degradations and time-windowed transient fault campaigns.
"""

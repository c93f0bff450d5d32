"""Simulated microservice applications.

The dissertation evaluates Bifrost and the health-assessment heuristics on
microservice-based case-study applications deployed to public-cloud VMs.
This package is the offline substitute: services with independently
deployable *versions*, endpoints with latency/error behaviour and
downstream calls, and a :class:`Runtime` that executes end-user requests
through the topology — emitting distributed traces and telemetry exactly
like an instrumented production system would.

The resilience layer (:mod:`repro.microservices.resilience`) threads
retries, fallbacks, and circuit breakers through every call a service
makes;
the fault module (:mod:`repro.microservices.faults`) provides both
static degradations and time-windowed transient fault campaigns.
"""

from repro.microservices.service import (
    DownstreamCall,
    EndpointSpec,
    Service,
    ServiceVersion,
)
from repro.microservices.application import Application
from repro.microservices.runtime import LoadTracker, RequestOutcome, Runtime
from repro.microservices.resilience import (
    BreakerConfig,
    BreakerState,
    BreakerTransition,
    CallPolicy,
    CircuitBreaker,
    ResilienceEvent,
    ResilienceLayer,
    ResilienceSummary,
)
from repro.microservices.faults import (
    CampaignEvent,
    ErrorBurst,
    FaultCampaign,
    FaultInjector,
    LatencySpike,
    NetworkState,
    Partition,
    VersionCrash,
)

__all__ = [
    "DownstreamCall",
    "EndpointSpec",
    "Service",
    "ServiceVersion",
    "Application",
    "LoadTracker",
    "RequestOutcome",
    "Runtime",
    "BreakerConfig",
    "BreakerState",
    "BreakerTransition",
    "CallPolicy",
    "CircuitBreaker",
    "ResilienceEvent",
    "ResilienceLayer",
    "ResilienceSummary",
    "CampaignEvent",
    "ErrorBurst",
    "FaultCampaign",
    "FaultInjector",
    "LatencySpike",
    "NetworkState",
    "Partition",
    "VersionCrash",
]

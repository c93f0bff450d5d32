"""The request-execution runtime.

Executes end-user requests through the application topology on simulated
time: each hop resolves the callee's version through a *router* (the
traffic-routing mechanism Bifrost relies on), samples the endpoint's
latency under the current load, recurses into downstream calls, and emits
spans into the trace collector and metrics into the monitor.

Load is modelled as the ratio of recent arrival rate to a version's
deployed capacity; the latency models translate load > 1 into inflated
response times.  That single mechanism produces both effects the Bifrost
evaluation reports: dark launches *duplicate* traffic (load up, latency
up) while A/B tests *split* it (load down, latency down).

Every hop additionally consults the :class:`ResilienceLayer`: a
:class:`~repro.microservices.resilience.CallPolicy` can time the call
out, retry it with seeded exponential backoff, or serve a fallback
response; a per-(service, version) circuit breaker can reject the call
before it reaches a failing version.  Retry latency and backoff are
charged to the observed duration, and every resilience occurrence is
emitted as a tagged event so trace analysis sees it.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Protocol

from repro.errors import ExecutionError
from repro.microservices.application import Application
from repro.microservices.resilience import ResilienceLayer
from repro.simulation.clock import SimulationClock
from repro.simulation.rng import SeededRng
from repro.telemetry.monitor import Monitor
from repro.tracing.collector import TraceCollector
from repro.tracing.span import Span, next_span_id
from repro.tracing.trace import Trace
from repro.traffic.workload import Request

_MAX_CALL_DEPTH = 32


@dataclass(frozen=True)
class RoutingDecision:
    """Outcome of routing one service call.

    Attributes:
        version: concrete version to serve the call, or None for the
            service's stable version.
        shadow_versions: versions that additionally receive a *duplicated*
            (dark-launched) copy of the call; their work does not affect
            the user-visible response.
        proxy_hops: number of routing proxies traversed; each hop adds
            the runtime's configured proxy overhead to the observed
            latency (the source of Bifrost's end-user overhead).
    """

    version: str | None = None
    shadow_versions: tuple[str, ...] = ()
    proxy_hops: int = 0


class Router(Protocol):
    """Anything that can resolve a service call to a concrete version."""

    def route(self, request: Request, service: str) -> RoutingDecision:
        """Decide which version of *service* handles *request*."""
        ...  # pragma: no cover - protocol


class StaticRouter:
    """Routes everything to the stable version with no proxy overhead."""

    def route(self, request: Request, service: str) -> RoutingDecision:
        return RoutingDecision()


class NetworkGate(Protocol):
    """Anything that can veto the link between two services."""

    def is_partitioned(self, caller: str, callee: str) -> bool:
        """Whether calls from *caller* to *callee* currently fail."""
        ...  # pragma: no cover - protocol


class LoadTracker:
    """Sliding-window arrival-rate tracker per (service, version)."""

    def __init__(self, window_seconds: float = 10.0) -> None:
        if window_seconds <= 0:
            raise ExecutionError("load window must be positive")
        self.window_seconds = window_seconds
        self._arrivals: dict[tuple[str, str], deque[float]] = {}

    def observe(self, service: str, version: str, now: float, capacity_rps: float) -> float:
        """Record one arrival and return the resulting relative load."""
        key = (service, version)
        arrivals = self._arrivals.setdefault(key, deque())
        arrivals.append(now)
        cutoff = now - self.window_seconds
        while arrivals and arrivals[0] < cutoff:
            arrivals.popleft()
        rate = len(arrivals) / self.window_seconds
        return rate / capacity_rps if capacity_rps > 0 else 0.0

    def current_load(self, service: str, version: str, now: float, capacity_rps: float) -> float:
        """Relative load without recording an arrival."""
        arrivals = self._arrivals.get((service, version))
        if not arrivals:
            return 0.0
        cutoff = now - self.window_seconds
        count = sum(1 for t in arrivals if t >= cutoff)
        rate = count / self.window_seconds
        return rate / capacity_rps if capacity_rps > 0 else 0.0

    def arrivals_for(self, service: str, version: str) -> deque[float]:
        """The raw arrival deque of (service, version), created on demand.

        The batch execution kernel maintains this deque inline (append +
        expire + count, exactly :meth:`observe`'s bookkeeping) so scalar
        and batch slices share one continuous load window.
        """
        return self._arrivals.setdefault((service, version), deque())


@dataclass(frozen=True)
class RequestOutcome:
    """Result of executing one end-user request."""

    request: Request
    trace: Trace
    duration_ms: float
    error: bool
    version_path: tuple[tuple[str, str], ...] = field(default=())


class Runtime:
    """Executes requests against an :class:`Application`."""

    def __init__(
        self,
        application: Application,
        router: Router | None = None,
        clock: SimulationClock | None = None,
        seed: int = 101,
        collector: TraceCollector | None = None,
        monitor: Monitor | None = None,
        proxy_overhead_ms: float = 2.0,
        load_window_seconds: float = 10.0,
        resilience: ResilienceLayer | None = None,
        network: NetworkGate | None = None,
    ) -> None:
        self.application = application
        self.router = router or StaticRouter()
        self.clock = clock or SimulationClock()
        self.rng = SeededRng(seed)
        self.collector = collector or TraceCollector()
        self.monitor = monitor or Monitor()
        self.proxy_overhead_ms = proxy_overhead_ms
        self.load = LoadTracker(load_window_seconds)
        self.resilience = resilience or ResilienceLayer()
        self.resilience.subscribe(self.monitor.observe_resilience)
        self.network = network
        self._trace_counter = itertools.count(1)
        self.requests_executed = 0

    # -- batch fast-path hooks ---------------------------------------------

    def next_trace_id(self) -> str:
        """Allocate the next trace id (shared scalar/batch numbering)."""
        return f"t{next(self._trace_counter):09d}"

    def advance_trace_ids(self, count: int) -> None:
        """Consume *count* trace ids in O(1).

        The batch kernel's non-recording mode doesn't build traces but
        still burns one id per request, so a scalar request executed
        after a batch run gets the same id it would have in an all-scalar
        replay.
        """
        if count <= 0:
            return
        base = next(self._trace_counter)
        self._trace_counter = itertools.count(base + count)

    def execute(self, request: Request) -> RequestOutcome:
        """Run *request* through the topology and return its outcome.

        The shared clock is advanced to the request's arrival time first,
        so workloads must be replayed in timestamp order.
        """
        if request.timestamp > self.clock.now:
            self.clock.advance_to(request.timestamp)
        service, _, endpoint = request.entry.partition(".")
        if not endpoint:
            raise ExecutionError(
                f"request entry must be 'service.endpoint', got {request.entry!r}"
            )
        trace_id = f"t{next(self._trace_counter):09d}"
        spans: list[Span] = []
        versions: list[tuple[str, str]] = []
        duration, error = self._dispatch(
            request,
            trace_id,
            parent_id=None,
            caller=None,
            service=service,
            endpoint=endpoint,
            start=self.clock.now,
            depth=0,
            shadow=False,
            spans=spans,
            versions=versions,
        )
        self.collector.record_all(spans)
        self.monitor.observe_spans(spans)
        self.requests_executed += 1
        trace = Trace(trace_id, spans)
        return RequestOutcome(request, trace, duration, error, tuple(versions))

    def _dispatch(
        self,
        request: Request,
        trace_id: str,
        parent_id: str | None,
        caller: str | None,
        service: str,
        endpoint: str,
        start: float,
        depth: int,
        shadow: bool,
        spans: list[Span],
        versions: list[tuple[str, str]],
    ) -> tuple[float, bool]:
        """Execute one hop under its :class:`CallPolicy` (if any).

        The attempt loop (timeout, retries with seeded backoff jitter,
        fallback) is :meth:`ResilienceLayer.call_with_policy`, shared
        with the batch kernel.
        """
        policy = self.resilience.policy_for(service, endpoint)
        if policy is None or shadow:
            duration, error, _ = self._call(
                request, trace_id, parent_id, caller, service, endpoint,
                start, depth, shadow, spans, versions,
            )
            return duration, error
        return self.resilience.call_with_policy(
            policy,
            service,
            endpoint,
            start,
            self.rng,
            lambda attempt_start, attempt: self._call(
                request, trace_id, parent_id, caller, service, endpoint,
                attempt_start, depth, shadow, spans, versions,
                attempt=attempt,
            ),
        )

    def _call(
        self,
        request: Request,
        trace_id: str,
        parent_id: str | None,
        caller: str | None,
        service: str,
        endpoint: str,
        start: float,
        depth: int,
        shadow: bool,
        spans: list[Span],
        versions: list[tuple[str, str]],
        forced_version: str | None = None,
        attempt: int = 0,
    ) -> tuple[float, bool, str]:
        """Execute one attempt; returns (observed duration ms, error, version)."""
        if depth > _MAX_CALL_DEPTH:
            raise ExecutionError(
                f"call depth exceeded {_MAX_CALL_DEPTH}; cyclic topology?"
            )
        if forced_version is not None:
            decision = RoutingDecision(version=forced_version)
        else:
            decision = self.router.route(request, service)
        svc = self.application.service(service)
        version_name = decision.version or svc.stable_version
        version = svc.get(version_name)

        base_tags = {"group": request.group, "user": request.user_id}
        if shadow:
            base_tags["shadow"] = "true"
        if attempt > 0:
            base_tags["retry_attempt"] = str(attempt)

        # A refused call fails before any work happens on the callee.
        # Network partition: the link between caller and callee is down.
        # Circuit breaker: an open breaker rejects the call outright.
        refusal = None
        if (
            caller is not None
            and self.network is not None
            and self.network.is_partitioned(caller, service)
        ):
            refusal = {"fault": "partition"}
            self.resilience.observe(service, version_name, start, success=False)
        elif not self.resilience.admit(
            service, version_name, start, endpoint, attempt
        ):
            refusal = {"breaker": "open"}
        if refusal is not None:
            spans.append(
                Span(
                    span_id=next_span_id(),
                    trace_id=trace_id,
                    parent_id=parent_id,
                    service=service,
                    version=version_name,
                    endpoint=endpoint,
                    start=start,
                    duration_ms=0.0,
                    error=True,
                    tags={**base_tags, **refusal},
                )
            )
            if not shadow:
                versions.append((service, version_name))
            return 0.0, True, version_name

        spec = version.endpoint(endpoint)
        load = self.load.observe(
            service, version_name, start, version.total_capacity_rps
        )
        own_latency = spec.latency.sample(self.rng, load)
        proxy_cost = decision.proxy_hops * self.proxy_overhead_ms
        local_error = self.rng.random() < spec.error_rate
        if not shadow:
            versions.append((service, version_name))
        # Allocate the span id up front so children can reference their
        # parent directly.
        span_id = next_span_id()

        children_duration = 0.0
        slowest_child = 0.0
        child_error = False
        # Children start after the local pre-processing share of the
        # endpoint's own latency; sequentially they chain one after the
        # other, with fan-out they all start together and the endpoint
        # waits for the slowest.
        child_start = start + 0.3 * own_latency / 1000.0
        for call in spec.calls:
            if call.probability < 1.0 and self.rng.random() >= call.probability:
                continue
            offset = 0.0 if spec.parallel_calls else children_duration / 1000.0
            child_duration, failed = self._dispatch(
                request,
                trace_id,
                parent_id=span_id,
                caller=service,
                service=call.service,
                endpoint=call.endpoint,
                start=child_start + offset,
                depth=depth + 1,
                shadow=shadow,
                spans=spans,
                versions=versions,
            )
            children_duration += child_duration
            slowest_child = max(slowest_child, child_duration)
            child_error = child_error or failed
        waited = slowest_child if spec.parallel_calls else children_duration
        duration = own_latency + proxy_cost + waited
        error = local_error or child_error

        span = Span(
            span_id=span_id,
            trace_id=trace_id,
            parent_id=parent_id,
            service=service,
            version=version_name,
            endpoint=endpoint,
            start=start,
            duration_ms=duration,
            error=error,
            tags=base_tags,
        )
        spans.append(span)
        self.resilience.observe(
            service, version_name, start + duration / 1000.0, success=not error
        )

        # Dark-launch duplication: replay the same call against shadow
        # versions; their spans join the trace (tagged) but their latency
        # never reaches the user.
        for shadow_version in decision.shadow_versions:
            if not svc.has_version(shadow_version):
                continue
            self._call(
                request,
                trace_id,
                parent_id=span_id,
                caller=caller,
                service=service,
                endpoint=endpoint,
                start=start,
                depth=depth + 1,
                shadow=True,
                spans=spans,
                versions=versions,
                forced_version=shadow_version,
            )
        return duration, error, version_name

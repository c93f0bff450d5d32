"""The request-execution runtime.

Executes end-user requests through the application topology on simulated
time: each hop resolves the callee's version through a *router* (the
traffic-routing mechanism Bifrost relies on), samples the endpoint's
latency under the current load, recurses into downstream calls, and emits
spans into the trace collector and metrics into the metric store.

The hop itself — the draw sequence, the child loop, the refusal branches
and the shadow replay — lives in one place,
:class:`~repro.microservices.kernel.core.RequestKernel`, which the batch driver
runs over columnar rows and :meth:`Runtime.execute` runs over one
:class:`~repro.traffic.workload.Request`.  This module owns what
surrounds it: the routing protocol, the load deques, trace ids, and
handing the finished spans to the collector and the kernel's sample
buffer.

Load is modelled as the ratio of recent arrival rate to a version's
deployed capacity; the latency models translate load > 1 into inflated
response times.  That single mechanism produces both effects the Bifrost
evaluation reports: dark launches *duplicate* traffic (load up, latency
up) while A/B tests *split* it (load down, latency down).

Every hop additionally consults the :class:`ResilienceLayer`: a caller's
:class:`~repro.microservices.resilience.CallPolicy` can retry the call
with seeded exponential backoff or serve a fallback response; a
per-(service, version) circuit breaker can reject the call before it
reaches a failing version.  Retry latency and backoff are
charged to the observed duration, and every resilience occurrence is
emitted as a tagged event so trace analysis sees it.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Protocol

from repro.microservices.application import Application
from repro.microservices.kernel.core import RequestKernel
from repro.microservices.resilience import ResilienceEvent, ResilienceLayer
from repro.routing.proxy import RoutingDecision, StaticRouter
from repro.simulation.clock import SimulationClock
from repro.simulation.rng import SeededRng
from repro.telemetry.store import MetricStore
from repro.tracing.collector import TraceCollector
from repro.tracing.trace import Trace
from repro.traffic.workload import Request


class Router(Protocol):
    """Anything that can resolve a service call to a concrete version."""

    def route(self, request: Request, service: str) -> RoutingDecision:
        """Decide which version of *service* handles *request*."""
        ...  # pragma: no cover - protocol


class NetworkGate(Protocol):
    """Anything that can veto the link between two services."""

    def is_partitioned(self, caller: str, callee: str) -> bool:
        """Whether calls from *caller* to *callee* currently fail."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class RequestOutcome:
    """Result of executing one end-user request."""

    request: Request
    trace: Trace
    duration_ms: float
    error: bool

    @property
    def version_path(self) -> tuple[tuple[str, str], ...]:
        """(service, version) of every user-visible hop, in call order.

        Every attempt of a retried hop and every refused hop is listed;
        dark-launch replays are not.  Span ids are allocated when a hop
        starts, so id order is the call (pre-)order.
        """
        hops = sorted(
            (span for span in self.trace if "shadow" not in span.tags),
            key=lambda span: span.span_id,
        )
        return tuple((span.service, span.version) for span in hops)


class Runtime:
    """Executes requests against an :class:`Application`."""

    def __init__(
        self,
        application: Application,
        router: Router | None = None,
        clock: SimulationClock | None = None,
        seed: int = 101,
        proxy_overhead_ms: float = 2.0,
        resilience: ResilienceLayer | None = None,
        network: NetworkGate | None = None,
    ) -> None:
        self.application = application
        self.router = router or StaticRouter()
        self.clock = clock or SimulationClock()
        self.rng = SeededRng(seed)
        self.collector = TraceCollector()
        self.store = MetricStore()
        self.proxy_overhead_ms = proxy_overhead_ms
        # Arrival times per (service, version); the request kernel appends,
        # expires and counts each deque over LOAD_WINDOW_SECONDS.
        self.arrivals: dict[tuple[str, str], deque[float]] = {}
        self.resilience = resilience or ResilienceLayer()
        self.resilience.subscribe(self._observe_resilience)
        self.network = network
        self._trace_counter = itertools.count(1)
        self.requests_executed = 0

    def _observe_resilience(self, event: ResilienceEvent) -> None:
        """Store one resilience event as a ``resilience.<kind>`` count sample
        under its version, or under ``"*"`` when it carries none (a breaker
        transition outside any request), which per-version queries skip."""
        self.store.record(
            event.service, event.version or "*", f"resilience.{event.kind}", event.time, 1.0
        )

    # -- request-kernel hooks ----------------------------------------------

    def next_trace_id(self) -> str:
        """Allocate the next trace id (one numbering for every driver)."""
        return f"t{next(self._trace_counter):09d}"

    def advance_trace_ids(self, count: int) -> None:
        """Consume *count* trace ids in O(1).

        The batch driver's non-recording mode doesn't build traces but
        still burns one id per request, so a request executed after a
        batch run gets the same id it would have in a run that recorded
        everything.
        """
        if count <= 0:
            return
        base = next(self._trace_counter)
        self._trace_counter = itertools.count(base + count)

    def execute(
        self, request: Request, kernel: RequestKernel | None = None
    ) -> RequestOutcome:
        """Run *request* through the topology and return its outcome.

        The one-request form: a :class:`RequestKernel` (endpoint specs,
        call policies, breaker/partition presence, resolved once) is
        compiled for this call, so the request sees every mutation made
        before it, and its samples are in the store when it returns.  A
        workload runs through :meth:`repro.bifrost.middleware.Bifrost.run`, whose
        interleave driver passes one *kernel* per event-free stretch; the
        kernel then holds the samples until the stretch flushes it.  The
        shared clock is advanced to the request's arrival time first, so
        a request earlier than the clock runs at the clock's time.
        """
        if request.timestamp > self.clock.now:
            self.clock.advance_to(request.timestamp)
        compiled = kernel or RequestKernel(self)
        trace_id, spans, duration, error = compiled.execute_request(request, self.clock.now)
        trace = self.collector.record_trace(trace_id, spans)
        # A request that raised mid-tree never gets here: no samples.
        compiled.samples.add_spans(spans)
        if kernel is None:
            compiled.flush()
        self.requests_executed += 1
        return RequestOutcome(request, trace, duration, error)

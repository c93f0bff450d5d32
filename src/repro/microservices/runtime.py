"""The request-execution runtime.

Executes end-user requests through the application topology on simulated
time: each hop resolves the callee's version through a *router* (the
traffic-routing mechanism Bifrost relies on), samples the endpoint's
latency under the current load, recurses into downstream calls, and emits
spans into the trace collector and metrics into the monitor.

The hop itself — the draw sequence, the child loop, the refusal branches
and the shadow replay — lives in one place,
:class:`~repro.simulation.batch.RequestKernel`, which the batch driver
runs over columnar rows and :meth:`Runtime.execute` runs over one
:class:`~repro.traffic.workload.Request`.  This module owns what
surrounds it: the routing protocol, the load window, trace ids, and
handing the finished spans to the collector and the kernel's sample
buffer.

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
from dataclasses import dataclass
from typing import Iterable, Iterator, Protocol

from repro.errors import ExecutionError
from repro.microservices.application import Application
from repro.microservices.resilience import ResilienceLayer
from repro.simulation.batch import RequestKernel
from repro.simulation.clock import SimulationClock
from repro.simulation.engine import SimulationEngine
from repro.simulation.rng import SeededRng
from repro.telemetry.monitor import Monitor
from repro.tracing.collector import TraceCollector
from repro.tracing.trace import Trace
from repro.traffic.workload import Request


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
    """Sliding-window arrival times per (service, version).

    The request kernel maintains each deque inline (append, expire, count)
    so every driver shares one continuous load window.
    """

    def __init__(self, window_seconds: float = 10.0) -> None:
        if window_seconds <= 0:
            raise ExecutionError("load window must be positive")
        self.window_seconds = window_seconds
        self._arrivals: dict[tuple[str, str], deque[float]] = {}

    def arrivals_for(self, service: str, version: str) -> deque[float]:
        """The raw arrival deque of (service, version), created on demand."""
        return self._arrivals.setdefault((service, version), deque())


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
        before it, and its samples are in the store when it returns.  To
        run a workload use :meth:`replay`, the loop API: it passes its own
        *kernel*, which then holds the samples until the loop flushes it.
        The shared clock is advanced to the request's arrival time first,
        so requests must come in timestamp order.
        """
        if request.timestamp > self.clock.now:
            self.clock.advance_to(request.timestamp)
        compiled = kernel or RequestKernel(self)
        trace_id, spans, duration, error = compiled.execute_request(request, self.clock.now)
        self.collector.record_all(spans)
        # A request that raised mid-tree never gets here: no samples.
        compiled.samples.add_spans(spans)
        if kernel is None:
            compiled.flush()
        self.requests_executed += 1
        return RequestOutcome(request, Trace(trace_id, spans), duration, error)

    def replay(
        self, simulation: SimulationEngine, requests: Iterable[Request]
    ) -> Iterator[RequestOutcome]:
        """Execute *requests* interleaved with *simulation*'s events.

        Every event due at or before a request's timestamp runs before
        that request.  The world only changes at engine events, so the
        kernel is compiled once per event-free stretch and the stretch's
        samples reach the store in one flush: before the next event runs,
        and when the iterator is exhausted or closed.  Lazy: a request
        executes when its outcome is pulled, and between pulls the store
        may lag behind the outcomes already returned.
        """
        kernel = RequestKernel(self)
        try:
            for request in requests:
                target = max(request.timestamp, simulation.now)
                due = simulation.queue.peek_time()
                if due is not None and due <= target:
                    kernel.flush()
                if simulation.run_until(target):
                    kernel = RequestKernel(self)
                yield self.execute(request, kernel)
        finally:
            kernel.flush()

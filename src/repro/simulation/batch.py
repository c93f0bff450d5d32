"""The request kernel and its batch driver: million-request replay.

:class:`RequestKernel` owns the per-hop algorithm of the whole repo —
the draw sequence that turns routing, load, faults and shadow
duplication into latencies.  ``Runtime.execute`` runs one
:class:`~repro.traffic.workload.Request` through it; :func:`run_batches`
replays columnar :class:`~repro.traffic.batch.RequestBatch` chunks
through it, interleaved with simulation-engine events exactly like the
``Bifrost.run`` loop — but between events it executes whole *slices* of
requests instead of materializing one ``Request``/``Span``/
``RequestOutcome`` object chain per arrival.

Equivalence contract (property-tested in
``tests/property/test_batch_equivalence.py``, with the absolute values
pinned by ``tests/integration/test_scalar_golden.py``):

- Every driver consumes the runtime's RNG stream in the same draw order
  per hop (latency sample, error draw, per-probabilistic-call draw),
  maintains the same load-tracker deques, performs the same float
  arithmetic in the same association order, and feeds the same
  (timestamp, value) sequences into the metric store — so routing
  decisions, metric aggregates, and therefore every promotion/abort
  decision an engine makes on top of them are bit-identical, not
  statistically close.
- A slice runs one of two hops, picked once per slice from state the
  kernel can observe.  The *plain* hop covers slices where every
  per-hop hook is a no-op.  The *general* hop — the one
  ``Runtime.execute`` always runs — additionally executes call policies
  (timeouts, retries, fallbacks), circuit breakers, network partitions,
  dark-launch shadow replays and routers the kernel cannot compile, and
  materializes spans for the trace collector when it has stream
  subscribers.  Fault campaigns need no hook at all: they rewrite
  endpoint specs at engine events, and nodes are compiled from the
  specs per kernel.  Event boundaries delimit slices, and all of these
  conditions only change at events, so a condition can never flip
  mid-slice.

Memory behaviour: samples wait in a per-(service, version)
:class:`~repro.telemetry.monitor.SpanSampleBuffer` flushed at slice ends
(the store keeps ``array('d')`` columns) and the result keeps running
totals only — so a ten-million request replay holds O(slice) transient
state, not O(run).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.errors import ConfigurationError, ExecutionError
from repro.simulation.latency import (
    ConstantLatency,
    LoadSensitiveLatency,
    LogNormalLatency,
    ParetoLatency,
)
from repro.telemetry.monitor import SpanSampleBuffer
from repro.tracing.span import Span, next_span_id

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.microservices.runtime import Runtime
    from repro.simulation.engine import SimulationEngine
    from repro.traffic.batch import RequestBatch
    from repro.traffic.workload import Request

_MAX_CALL_DEPTH = 32


@dataclass
class BatchRunResult:
    """Aggregate outcome of one :func:`run_batches` replay.

    Every request runs on the kernel, so ``fast_requests == requests``;
    ``fallback_requests``, ``fallback_slices`` and ``fallback_reasons``
    always read 0 and stay only because the benchmark ledger reads them.
    """

    requests: int = 0
    errors: int = 0
    duration_sum_ms: float = 0.0
    fast_requests: int = 0
    fallback_requests: int = 0
    fast_slices: int = 0
    fallback_slices: int = 0
    fallback_reasons: Counter = field(default_factory=Counter)

    @property
    def mean_duration_ms(self) -> float:
        """Mean end-user duration across every executed request."""
        return self.duration_sum_ms / self.requests if self.requests else 0.0

    @property
    def error_rate(self) -> float:
        """Fraction of executed requests that failed."""
        return self.errors / self.requests if self.requests else 0.0

    def _add_fast(self, durations: list, error_count: int) -> None:
        n = len(durations)
        self.requests += n
        self.fast_requests += n
        self.errors += error_count
        self.duration_sum_ms += math.fsum(durations)


def _compile_sampler(model, kernel):
    """Specialize one latency model into ``(sample(load) -> ms, needs_load)``.

    Known model types bind their parameters and the raw RNG method
    directly (skipping attribute lookups and the :class:`SeededRng`
    delegation layer); unknown subclasses fall back to generic
    ``model.sample(rng, load)`` dispatch, conservatively marked
    load-dependent.  Either way the *draws* are ``model.sample``'s.
    """
    kind = type(model)
    if kind is ConstantLatency:
        value = model.value_ms
        return (lambda load, _v=value: _v), False
    if kind is LogNormalLatency:
        if model.sigma == 0:
            value = model.median_ms
            return (lambda load, _v=value: _v), False
        draw = kernel.raw.lognormvariate
        return (
            lambda load, _d=draw, _mu=model._mu, _s=model.sigma: _d(_mu, _s)
        ), False
    if kind is ParetoLatency:
        draw = kernel.raw.paretovariate
        return (
            lambda load, _d=draw, _sc=model.scale_ms, _a=model.alpha: _sc * _d(_a)
        ), False
    if kind is LoadSensitiveLatency:
        # Flatten the common base models into a single closure — the
        # per-hop call chain (wrapper -> base -> SeededRng -> Random) is
        # measurable at millions of samples.  Float semantics match
        # ``sample``: base sample first, then multiply by the inflation.
        base = model.base
        base_kind = type(base)
        pressure = model.pressure
        if base_kind is LogNormalLatency and base.sigma != 0:
            draw = kernel.raw.lognormvariate

            def sample(load, _d=draw, _mu=base._mu, _s=base.sigma, _p=pressure):
                return _d(_mu, _s) * (1.0 + _p * max(0.0, load - 1.0))

            return sample, True
        if base_kind is ConstantLatency or base_kind is LogNormalLatency:
            value = (
                base.value_ms if base_kind is ConstantLatency else base.median_ms
            )

            def sample(load, _v=value, _p=pressure):
                return _v * (1.0 + _p * max(0.0, load - 1.0))

            return sample, True
        if base_kind is ParetoLatency:
            draw = kernel.raw.paretovariate

            def sample(
                load, _d=draw, _sc=base.scale_ms, _a=base.alpha, _p=pressure
            ):
                return _sc * _d(_a) * (1.0 + _p * max(0.0, load - 1.0))

            return sample, True
        inner, _ = _compile_sampler(base, kernel)

        def sample(load, _inner=inner, _p=pressure):
            return _inner(load) * (1.0 + _p * max(0.0, load - 1.0))

        return sample, True
    # Imported here: faults imports the simulation package at module level.
    from repro.microservices.faults import _ScaledLatency

    if kind is _ScaledLatency:
        inner, needs_load = _compile_sampler(model.base, kernel)
        return (
            lambda load, _inner=inner, _f=model.factor: _inner(load) * _f
        ), needs_load
    seeded = kernel.seeded
    return (lambda load, _m=model, _rng=seeded: _m.sample(_rng, load)), True


# Node record layout (plain list: index access beats attribute access in
# the per-hop loop).  One node per (service, endpoint, version).
_N_SAMPLE = 0  # compiled latency sampler: load -> ms
_N_ERROR_RATE = 1  # endpoint error probability
_N_CHILDREN = 2  # tuple of (probability, service, endpoint) descriptors
_N_PARALLEL = 3  # fan-out vs sequential children
_N_ARRIVALS = 4  # the runtime LoadTracker's deque for this version
_N_CAPACITY = 5  # deployed capacity in rps
_N_TS_BUF = 6  # buffered span start times
_N_DUR_BUF = 7  # buffered span durations
_N_ERR_BUF = 8  # buffered span error flags
_N_NEEDS_LOAD = 9  # whether the sampler reads the load value
_N_PROXY_MS = 10  # per-hop proxy overhead (routed services only)
_N_SERVICE = 11
_N_VERSION = 12
_N_ENDPOINT = 13


def _split_entry(entry: str) -> tuple[str, str]:
    service, _, endpoint = entry.partition(".")
    if not endpoint:
        raise ExecutionError(
            f"request entry must be 'service.endpoint', got {entry!r}"
        )
    return service, endpoint


class _VariantNodes(dict):
    """A routed edge's ``{version: node}``, each compiled on first use: a
    version no request reaches is never compiled, so one that lacks the
    endpoint fails only when routed to — as ``router.route`` does."""

    __slots__ = ("_compile",)

    def __init__(self, compile_node) -> None:
        super().__init__()
        self._compile = compile_node

    def __missing__(self, version: str):
        node = self[version] = self._compile(version)
        return node


class RequestKernel:
    """Compiled execution state for one event-free stretch of requests.

    Built fresh per stretch: routes, endpoint specs, policies, partitions,
    and subscribers only change at engine events (= stretch boundaries), so
    everything resolved here — samplers, error rates, children, variant
    thresholds, which hop runs — is constant for the kernel's lifetime.
    Children and variant nodes are resolved *lazily* during execution
    (descriptors, not node references) so a probabilistic call cycle trips
    the depth guard, and a variant without the endpoint fails, only when a
    request actually gets there.

    With a *population* the requests are rows of a
    :class:`~repro.traffic.batch.RequestBatch` (:meth:`run_slice`), and a
    hop buffers its sample in :attr:`samples` as it finishes.  Without one
    they are :class:`~repro.traffic.workload.Request` objects
    (:meth:`execute_request`, what ``Runtime.execute`` runs), and the
    caller buffers the spans in :attr:`samples` once the request has
    returned.  Rows resolve their versions through memoized records
    compiled from a :class:`~repro.routing.proxy.VersionRouter`'s routes
    (a ``StaticRouter`` compiles to none); ``Request`` objects, and rows
    under any other ``Router``, ask ``runtime.router.route`` on every hop,
    with the row's ``Request`` in hand.  Spans are built for ``Request``
    objects, and for rows while the collector has stream subscribers.
    Whoever drives the kernel calls :meth:`flush` before an engine event
    can read the store.
    """

    def __init__(self, runtime: "Runtime", population=None) -> None:
        # Imported here: microservices.runtime imports this module at
        # module level, and routing.proxy imports microservices.runtime.
        from repro.microservices.runtime import StaticRouter
        from repro.routing.proxy import VersionRouter

        router = runtime.router
        compiled = population is not None and isinstance(
            router, (VersionRouter, StaticRouter)
        )
        self._runtime = runtime
        self._router = (
            router if compiled and isinstance(router, VersionRouter) else None
        )
        self._route_per_hop = not compiled
        self._app = runtime.application
        self._proxy_ms = runtime.proxy_overhead_ms
        self._window = runtime.load.window_seconds
        self.seeded = runtime.rng
        self.raw = runtime.rng.raw
        self._random = self.raw.random
        self._population = population
        self._group_codes = (
            population.group_codes() if population is not None else None
        )
        self._nodes: dict = {}
        self._edges: dict = {}
        self._route_recs: dict = {}
        self.samples = SpanSampleBuffer()
        # Which hop this stretch runs.  The runtime's own resilience layer
        # is used, so breaker state and the event log stay continuous
        # across kernels.
        self._resilience = runtime.resilience
        self._breakers = runtime.resilience.breaker_config is not None
        # A gate that does not expose its partitions is asked on every hop.
        network = runtime.network
        self._network = (
            network
            if network is not None and getattr(network, "partitions", True)
            else None
        )
        self._spans = population is None or runtime.collector.has_subscribers
        self._general = (
            self._spans
            or self._route_per_hop
            or self._network is not None
            or not runtime.resilience.passthrough
            or (
                self._router is not None
                and any(
                    router.active_route(service).shadow_versions
                    for service in router.routed_services
                )
            )
        )

    # -- compilation -------------------------------------------------------

    def entry_edge(self, entry: str):
        return self._edge(*_split_entry(entry))

    def _edge(self, service: str, endpoint: str):
        """An edge is ``(route_record | None, node | {version: node} | None,
        policy | None, shadow nodes, service, endpoint)``; when routing per
        hop only the policy is compiled — the router picks the node."""
        key = (service, endpoint)
        edge = self._edges.get(key)
        if edge is not None:
            return edge
        policy = self._resilience.policy_for(service, endpoint)
        router = self._router
        route = router.active_route(service) if router is not None else None
        if self._route_per_hop:
            edge = (None, None, policy, (), service, endpoint)
        elif route is None:
            node = self._node(service, endpoint, None, 0.0)
            edge = (None, node, policy, (), service, endpoint)
        else:
            rec = self._route_rec(service, route)
            nodes = _VariantNodes(
                lambda version: self._node(service, endpoint, version, self._proxy_ms)
            )
            shadows = self._shadow_nodes(service, endpoint, route.shadow_versions)
            edge = (rec, nodes, policy, shadows, service, endpoint)
        self._edges[key] = edge
        return edge

    def _shadow_nodes(self, service: str, endpoint: str, versions):
        """Dark-launch duplicates are forced to their version and bypass
        the proxy; versions the service does not have are skipped."""
        svc = self._app.service(service)
        return tuple(
            self._node(service, endpoint, version, 0.0)
            for version in versions
            if svc.has_version(version)
        )

    def _route_rec(self, service: str, route):
        """Per-service routing record: [memo, assigner, variants, eligible
        group codes (None = all), stable version, required headers (None =
        none)]."""
        rec = self._route_recs.get(service)
        if rec is None:
            eligible = None
            if route.audience.groups:
                eligible = {
                    code
                    for code, name in enumerate(self._population.group_names)
                    if name in route.audience.groups
                }
            assigner = (
                self._router.assigner(route.experiment) if route.variants else None
            )
            stable = self._app.service(service).stable_version
            rec = [
                {},
                assigner,
                route.variants,
                eligible,
                stable,
                route.audience.headers or None,
            ]
            self._route_recs[service] = rec
        return rec

    def _node(self, service: str, endpoint: str, version_name: str | None, proxy_ms: float):
        if version_name is None:
            version_name = self._app.service(service).stable_version
        # Routed and forced (shadow) nodes of one version differ in cost.
        key = (service, endpoint, version_name, proxy_ms)
        node = self._nodes.get(key)
        if node is not None:
            return node
        version = self._app.service(service).get(version_name)
        spec = version.endpoint(endpoint)
        sample, needs_load = _compile_sampler(spec.latency, self)
        buffers = self.samples.columns(service, version_name)
        node = [
            sample,
            spec.error_rate,
            tuple((c.probability, c.service, c.endpoint) for c in spec.calls),
            bool(spec.parallel_calls),
            self._runtime.load.arrivals_for(service, version_name),
            version.total_capacity_rps,
            buffers[0],
            buffers[1],
            buffers[2],
            needs_load,
            proxy_ms,
            service,
            version_name,
            endpoint,
        ]
        self._nodes[key] = node
        return node

    # -- variant assignment ------------------------------------------------

    def _matches(self, rec, user_index: int, group_code: int) -> bool:
        """Whether the route's audience includes this user — scalar
        ``AudienceFilter.matches``.  A batch row's headers are exactly
        ``{"user-id": user_id}`` (``RequestBatch.request``), so a header
        filter is decidable per user."""
        eligible = rec[3]
        if eligible is not None and group_code not in eligible:
            return False
        if rec[5] is None:
            return True
        row = {"user-id": self._population.user_at(user_index)}
        return all(row.get(key) == value for key, value in rec[5].items())

    def _assign(self, rec, user_index: int, group_code: int) -> str:
        if rec[2] and self._matches(rec, user_index, group_code):
            version = rec[1].assign(
                self._population.user_at(user_index), rec[2]
            )
        else:
            version = rec[4]
        rec[0][user_index] = version
        return version

    def prefill_assignments(self, batch: "RequestBatch", lo: int, hi: int) -> None:
        """Vectorize variant assignment for certainly-reached services.

        For every routed service that *every* request in the slice is
        guaranteed to traverse (reachable from the batch's entry point
        through probability-1.0 calls only, across all servable
        versions), bucket the slice's distinct users in one
        :meth:`~repro.routing.assignment.StickyAssigner.assign_many`
        call.  Probabilistically-reached services keep the lazy per-user
        path so the assigner's distinct-user bookkeeping only ever sees
        users a request-by-request run would have assigned.  A partition or an
        open breaker can cut any call short, so with either present
        nothing is certain and every assignment stays lazy.
        """
        router = self._router
        if router is None or self._breakers or self._network is not None:
            return
        routed = router.routed_services
        if not routed:
            return
        certain = self._certain_services(batch.entry)
        population = self._population
        group_codes = self._group_codes
        distinct = np.unique(batch.user_indices[lo:hi]).tolist()
        for service in routed:
            if service not in certain:
                continue
            route = router.active_route(service)
            if not route.variants:
                continue
            rec = self._route_rec(service, route)
            memo, assigner, variants, eligible, stable, headers = rec
            kept = distinct
            if eligible is not None or headers is not None:
                kept = []
                for index in distinct:
                    if self._matches(rec, index, group_codes[index]):
                        kept.append(index)
                    else:
                        memo[index] = stable
            if kept:
                kept_ids = [population.user_at(i) for i in kept]
                for index, version in zip(
                    kept, assigner.assign_many(kept_ids, variants)
                ):
                    memo[index] = version

    def _certain_services(self, entry: str) -> set[str]:
        """Services every request entering at *entry* traverses for sure.

        Follows only calls with probability >= 1 that appear in *every*
        version a service might serve with (stable plus any routed
        variants) — the conservative closure under which vectorized
        assignment is safe.
        """
        router = self._router
        seen: set[tuple[str, str]] = set()
        stack = [_split_entry(entry)]
        services: set[str] = set()
        while stack:
            svc_name, ep = stack.pop()
            if (svc_name, ep) in seen:
                continue
            seen.add((svc_name, ep))
            services.add(svc_name)
            svc = self._app.service(svc_name)
            version_names = {svc.stable_version}
            route = router.active_route(svc_name) if router is not None else None
            if route is not None:
                version_names.update(v.version for v in route.variants)
            shared: set[tuple[str, str]] | None = None
            for version_name in version_names:
                try:
                    spec = svc.get(version_name).endpoint(ep)
                except ConfigurationError:  # no such version or endpoint
                    shared = set()
                    break
                calls = {
                    (c.service, c.endpoint)
                    for c in spec.calls
                    if c.probability >= 1.0
                }
                shared = calls if shared is None else shared & calls
            for child in shared or ():
                stack.append(child)
        return services

    # -- execution ---------------------------------------------------------

    def run_slice(
        self, batch: "RequestBatch", lo: int, hi: int, now: float
    ) -> tuple[float, list, int]:
        """Execute rows [lo, hi); returns (clock, durations, error count).

        Trace ids match a ``Request``-by-``Request`` run: one is formatted
        per request when spans are materialized, otherwise the same number
        is burned in O(1).
        """
        timestamps = batch.timestamps[lo:hi].tolist()
        user_indices = batch.user_indices[lo:hi].tolist()
        edge = self.entry_edge(batch.entry)
        group_codes = self._group_codes
        runtime = self._runtime
        durations: list = []
        append = durations.append
        errors = 0
        if not self._general:
            execute = self._execute
            for ts, user in zip(timestamps, user_indices):
                if ts > now:
                    now = ts
                duration, error = execute(edge, now, user, group_codes[user], 0)
                append(duration)
                if error:
                    errors += 1
        else:
            population = self._population
            group_names = population.group_names
            collector = runtime.collector
            dispatch = self._dispatch
            # A router asked per hop gets the row's Request.
            subjects = (
                map(batch.request, range(lo, hi))
                if self._route_per_hop
                else user_indices
            )
            trace_id = spans = None
            for ts, user, subject in zip(timestamps, user_indices, subjects):
                if ts > now:
                    now = ts
                group_code = group_codes[user]
                if self._spans:
                    trace_id = runtime.next_trace_id()
                    spans = []
                # Per-request context: user index (or the Request), group
                # code, trace id, span sink (None = no spans), group name,
                # user id (formatted only for the span tags that carry it).
                ctx = (
                    subject,
                    group_code,
                    trace_id,
                    spans,
                    group_names[group_code],
                    population.user_at(user) if spans is not None else None,
                )
                duration, error = dispatch(edge, None, now, 0, False, None, ctx)
                if spans is not None:
                    collector.record_trace(trace_id, spans)
                append(duration)
                if error:
                    errors += 1
        if not self._spans:
            runtime.advance_trace_ids(len(durations))
        runtime.requests_executed += len(durations)
        return now, durations, errors

    def execute_request(self, request: "Request", start: float):
        """Run one :class:`Request` through the general hop with spans on;
        returns (trace id, spans, duration ms, error).  Recording the
        spans is the caller's (``Runtime.execute``) business."""
        edge = self.entry_edge(request.entry)
        trace_id = self._runtime.next_trace_id()
        spans: list[Span] = []
        ctx = (request, None, trace_id, spans, request.group, request.user_id)
        duration, error = self._dispatch(edge, None, start, 0, False, None, ctx)
        return trace_id, spans, duration, error

    def _execute(self, edge, start: float, user: int, group_code: int, depth: int):
        """The plain hop (plus children): the general hop draw for draw
        when no policy, breaker, partition, shadow, or span applies."""
        if depth > _MAX_CALL_DEPTH:
            raise ExecutionError(
                f"call depth exceeded {_MAX_CALL_DEPTH}; cyclic topology?"
            )
        rec = edge[0]
        if rec is None:
            node = edge[1]
        else:
            version = rec[0].get(user)
            if version is None:
                version = self._assign(rec, user, group_code)
            node = edge[1][version]
        arrivals = node[_N_ARRIVALS]
        arrivals.append(start)
        cutoff = start - self._window
        while arrivals[0] < cutoff:
            arrivals.popleft()
        if node[_N_NEEDS_LOAD]:
            capacity = node[_N_CAPACITY]
            load = (
                (len(arrivals) / self._window) / capacity if capacity > 0 else 0.0
            )
        else:
            load = 0.0
        own_latency = node[_N_SAMPLE](load)
        error = self._random() < node[_N_ERROR_RATE]
        children = node[_N_CHILDREN]
        if children:
            child_start = start + 0.3 * own_latency / 1000.0
            children_duration = 0.0
            slowest_child = 0.0
            parallel = node[_N_PARALLEL]
            random = self._random
            edges = self._edges
            for probability, child_service, child_endpoint in children:
                if probability < 1.0 and random() >= probability:
                    continue
                child_edge = edges.get((child_service, child_endpoint))
                if child_edge is None:
                    child_edge = self._edge(child_service, child_endpoint)
                offset = 0.0 if parallel else children_duration / 1000.0
                child_duration, failed = self._execute(
                    child_edge, child_start + offset, user, group_code, depth + 1
                )
                children_duration += child_duration
                if child_duration > slowest_child:
                    slowest_child = child_duration
                if failed:
                    error = True
            waited = slowest_child if parallel else children_duration
            duration = own_latency + node[_N_PROXY_MS] + waited
        else:
            duration = own_latency + node[_N_PROXY_MS]
        node[_N_TS_BUF].append(start)
        node[_N_DUR_BUF].append(duration)
        node[_N_ERR_BUF].append(error)
        return duration, error

    def _dispatch(
        self, edge, caller, start: float, depth: int, shadow: bool, parent_id, ctx
    ):
        """The general hop under its :class:`CallPolicy` (if any); the
        attempt loop (timeout, retries with seeded backoff jitter,
        fallback) is :meth:`ResilienceLayer.call_with_policy`."""
        policy = edge[2]
        if policy is None or shadow:
            duration, error, _ = self._call(
                edge, None, caller, start, depth, shadow, parent_id, ctx, 0
            )
            return duration, error
        return self._resilience.call_with_policy(
            policy,
            edge[4],
            edge[5],
            start,
            self.seeded,
            lambda attempt_start, attempt: self._call(
                edge, None, caller, attempt_start, depth, False, parent_id,
                ctx, attempt,
            ),
        )

    def _call(
        self,
        edge,
        forced,
        caller,
        start: float,
        depth: int,
        shadow: bool,
        parent_id,
        ctx,
        attempt: int,
    ):
        """One attempt of the general hop, with every hook: partition,
        breaker admission, optional span, breaker observation, shadow
        replays.  *forced* pins the node (a shadow replay); returns
        (duration ms, error, version)."""
        if depth > _MAX_CALL_DEPTH:
            raise ExecutionError(
                f"call depth exceeded {_MAX_CALL_DEPTH}; cyclic topology?"
            )
        user, group_code, _, spans, group, user_id = ctx
        shadows = ()
        if forced is not None:
            node = forced
        elif self._route_per_hop:
            # ctx[0] is the Request itself; any Router resolves it.
            _, _, _, _, service, endpoint = edge
            decision = self._runtime.router.route(user, service)
            node = self._node(
                service,
                endpoint,
                decision.version,
                decision.proxy_hops * self._proxy_ms,
            )
            if decision.shadow_versions:
                shadows = self._shadow_nodes(
                    service, endpoint, decision.shadow_versions
                )
        elif edge[0] is None:
            node = edge[1]
        else:
            rec = edge[0]
            version = rec[0].get(user)
            if version is None:
                version = self._assign(rec, user, group_code)
            node = edge[1][version]
            shadows = edge[3]
            if shadows and not self._matches(rec, user, group_code):
                shadows = ()
        service = node[_N_SERVICE]
        version = node[_N_VERSION]
        tags = None
        if spans is not None:
            tags = {"group": group, "user": user_id}
            if shadow:
                tags["shadow"] = "true"
            if attempt > 0:
                tags["retry_attempt"] = str(attempt)
        resilience = self._resilience
        # A refused call fails before any work happens on the callee: no
        # draws, a zero-duration error sample.  Network partition: the
        # link between caller and callee is down.  Circuit breaker: an
        # open breaker rejects the call outright.
        refusal = None
        if (
            self._network is not None
            and caller is not None
            and self._network.is_partitioned(caller, service)
        ):
            refusal = {"fault": "partition"}
            resilience.observe(service, version, start, success=False)
        elif self._breakers and not resilience.admit(
            service, version, start, node[_N_ENDPOINT], attempt
        ):
            refusal = {"breaker": "open"}
        if refusal is not None:
            if tags is not None:
                tags.update(refusal)
            self._finish(node, ctx, None, parent_id, start, 0.0, True, tags)
            return 0.0, True, version
        # Load is the ratio of the recent arrival rate to the version's
        # deployed capacity.
        arrivals = node[_N_ARRIVALS]
        arrivals.append(start)
        cutoff = start - self._window
        while arrivals[0] < cutoff:
            arrivals.popleft()
        if node[_N_NEEDS_LOAD]:
            capacity = node[_N_CAPACITY]
            load = (
                (len(arrivals) / self._window) / capacity if capacity > 0 else 0.0
            )
        else:
            load = 0.0
        own_latency = node[_N_SAMPLE](load)
        error = self._random() < node[_N_ERROR_RATE]
        # Span ids are allocated pre-order (before children, so children
        # can reference their parent), span objects appended post-order.
        span_id = next_span_id() if spans is not None else None
        children_duration = 0.0
        slowest_child = 0.0
        # Children start after the local pre-processing share of the
        # endpoint's own latency; sequentially they chain one after the
        # other, with fan-out they all start together and the endpoint
        # waits for the slowest.
        child_start = start + 0.3 * own_latency / 1000.0
        parallel = node[_N_PARALLEL]
        for probability, child_service, child_endpoint in node[_N_CHILDREN]:
            if probability < 1.0 and self._random() >= probability:
                continue
            child_edge = self._edges.get((child_service, child_endpoint))
            if child_edge is None:
                child_edge = self._edge(child_service, child_endpoint)
            offset = 0.0 if parallel else children_duration / 1000.0
            child_duration, failed = self._dispatch(
                child_edge, service, child_start + offset, depth + 1, shadow,
                span_id, ctx,
            )
            children_duration += child_duration
            if child_duration > slowest_child:
                slowest_child = child_duration
            if failed:
                error = True
        waited = slowest_child if parallel else children_duration
        duration = own_latency + node[_N_PROXY_MS] + waited
        self._finish(node, ctx, span_id, parent_id, start, duration, error, tags)
        if self._breakers:
            resilience.observe(
                service, version, start + duration / 1000.0, success=not error
            )
        # Dark-launch duplication: replay the hop against each shadow
        # version; their spans join the trace (tagged) but their latency
        # never reaches the user.
        for shadow_node in shadows:
            self._call(
                edge, shadow_node, caller, start, depth + 1, True, span_id, ctx, 0
            )
        return duration, error, version

    def _finish(
        self, node, ctx, span_id, parent_id, start, duration, error, tags
    ) -> None:
        """Append one hop's span when spans are on (a refused hop has no
        children, so it gets its id only here) and, for rows, buffer its
        sample."""
        if tags is not None:
            ctx[3].append(
                Span(
                    span_id=span_id or next_span_id(),
                    trace_id=ctx[2],
                    parent_id=parent_id,
                    service=node[_N_SERVICE],
                    version=node[_N_VERSION],
                    endpoint=node[_N_ENDPOINT],
                    start=start,
                    duration_ms=duration,
                    error=error,
                    tags=tags,
                )
            )
        if self._population is not None:
            node[_N_TS_BUF].append(start)
            node[_N_DUR_BUF].append(duration)
            node[_N_ERR_BUF].append(error)

    def flush(self) -> None:
        """Land the buffered samples in the runtime's store (the
        ``resilience.*`` series the general hop's events write immediately
        are different keys, so their order relative to these is unobservable)."""
        self.samples.flush(self._runtime.monitor.store)


def run_batches(
    simulation: "SimulationEngine",
    runtime: "Runtime",
    batches: Iterable["RequestBatch"],
    *,
    until: float | None = None,
) -> BatchRunResult:
    """Replay columnar request batches interleaved with engine events.

    The event-interleaving contract is ``Runtime.replay``'s: every event
    with time <= a request's timestamp runs before that request.  Between
    events, requests execute as one kernel slice.
    """
    result = BatchRunResult()
    for batch in batches:
        timestamps = batch.timestamps
        size = len(batch)
        lo = 0
        while lo < size:
            next_event = simulation.queue.peek_time()
            if next_event is None:
                hi = size
            else:
                hi = int(np.searchsorted(timestamps, next_event, side="left"))
                if hi <= lo:
                    # Events due at or before the next request: run them
                    # all, exactly like Runtime.replay's run_until.
                    simulation.run_until(
                        max(float(timestamps[lo]), simulation.now)
                    )
                    continue
            kernel = RequestKernel(runtime, batch.population)
            kernel.prefill_assignments(batch, lo, hi)
            now, durations, errors = kernel.run_slice(
                batch, lo, hi, simulation.now
            )
            kernel.flush()
            runtime.clock.advance_to(now)
            result.fast_slices += 1
            result._add_fast(durations, errors)
            lo = hi
    if until is not None:
        simulation.run_until(until)
    return result

"""The request kernel's compiled state, variant assignment and general hop."""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import ExecutionError
from repro.microservices.faults import _ScaledLatency
from repro.routing.proxy import StaticRouter, VersionRouter
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
    from repro.traffic.batch import RequestBatch
    from repro.traffic.workload import Request

_MAX_CALL_DEPTH = 32
#: Seconds of arrivals a version's load counts: load is the arrival rate
#: over this window divided by the version's deployed capacity.
LOAD_WINDOW_SECONDS = 10.0


def _recipe(model):
    """A latency model as ``(draw, a, b, ops)``, or None for any other type.

    The one dispatch on the model type behind both the scalar sampler and
    the columnar slice.  *draw* is ``"const"`` (value *a*), ``"normal"``
    (``exp`` of a Kinderman–Monahan normal with mu *a* and sigma *b*) or
    ``"pareto"`` (scale *a* times a Pareto variate of shape *b*); *ops*,
    innermost first, multiply the draw by the load inflation
    (``("load", pressure)``) or a fault's factor (``("scale", factor)``).
    """
    kind = type(model)
    if kind is ConstantLatency:
        return "const", model.value_ms, None, ()
    if kind is LogNormalLatency:
        if model.sigma == 0:
            return "const", model.median_ms, None, ()
        return "normal", model._mu, model.sigma, ()
    if kind is ParetoLatency:
        return "pareto", model.scale_ms, model.alpha, ()
    if kind is LoadSensitiveLatency:
        op = ("load", model.pressure)
    elif kind is _ScaledLatency:
        op = ("scale", model.factor)
    else:
        return None
    inner = _recipe(model.base)
    return None if inner is None else (*inner[:3], inner[3] + (op,))


def _compile_sampler(model, recipe, kernel):
    """Specialize one latency model into ``(sample(load) -> ms, needs_load)``.

    A model with a *recipe* binds its parameters and the raw RNG method
    directly (skipping attribute lookups and the :class:`SeededRng`
    delegation layer); any other falls back to generic
    ``model.sample(rng, load)`` dispatch, conservatively marked
    load-dependent.  Either way the *draws* and the float operations are
    ``model.sample``'s: base sample first, then each factor.
    """
    if recipe is None:
        seeded = kernel.seeded
        return (lambda load, _m=model, _rng=seeded: _m.sample(_rng, load)), True
    draw, a, b, ops = recipe
    needs_load = any(op == "load" for op, _ in ops)
    if draw == "const":
        sample = lambda load, _v=a: _v  # noqa: E731
    elif draw == "normal" and ops[:1] and ops[0][0] == "load":
        # The model of every endpoint in topology.scenarios: one closure,
        # not two, for the general hop's per-hop call.
        draw, (_, pressure), ops = kernel.raw.lognormvariate, ops[0], ops[1:]

        def sample(load, _d=draw, _mu=a, _s=b, _p=pressure):
            return _d(_mu, _s) * (1.0 + _p * max(0.0, load - 1.0))

    elif draw == "normal":
        draw = kernel.raw.lognormvariate
        sample = lambda load, _d=draw, _mu=a, _s=b: _d(_mu, _s)  # noqa: E731
    else:
        draw = kernel.raw.paretovariate
        sample = lambda load, _d=draw, _sc=a, _a=b: _sc * _d(_a)  # noqa: E731
    for op, arg in ops:
        if op == "scale":
            sample = lambda load, _i=sample, _f=arg: _i(load) * _f  # noqa: E731
        else:

            def sample(load, _i=sample, _p=arg):
                return _i(load) * (1.0 + _p * max(0.0, load - 1.0))

    return sample, needs_load


@dataclass(slots=True, eq=False)
class _Node:
    """One (service, endpoint, version) compiled for the hops."""

    sample: Callable  # load -> ms
    error_rate: float
    children: tuple  # (probability, service, endpoint) descriptors
    parallel: bool  # fan-out, else sequential children
    arrivals: deque  # the runtime's arrival deque for this version
    capacity: float  # deployed capacity in rps
    start_buf: object  # buffered sample columns of (service, version)
    duration_buf: object
    error_buf: object
    needs_load: bool  # whether ``sample`` reads the load
    proxy_ms: float  # per-hop proxy overhead (routed services only)
    service: str
    version: str
    endpoint: str
    recipe: tuple | None  # None: the columnar slice cannot draw it


@dataclass(slots=True, eq=False)
class _Route:
    """A routed service's compiled route, shared by its call sites."""

    memo: dict  # user index -> version, for users already assigned
    assigner: object  # the route's StickyAssigner (None without variants)
    variants: tuple
    eligible: bytes | None  # per group code, 1 if in the audience (None: every group)
    stable: str
    prefilled: tuple | None  # see ``columns._prefill``
    peeked: dict  # user -> pick looked up by the columnar slice, unrecorded


@dataclass(slots=True, eq=False)
class _Edge:
    """A (service, endpoint) call site on the general hop.  Routing per
    hop compiles only its policy: the router picks the node."""

    policy: object  # the caller-side CallPolicy, or None
    service: str
    endpoint: str
    route: _Route | None = None
    node: _Node | None = None  # the stable node of an unrouted service
    variants: _VariantNodes | None = None  # ``{version: node}`` of a routed one
    shadows: tuple = ()  # the route's dark-launch versions


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
    endpoint fails only when routed to — as ``router.route`` does.  The
    kernel is held weakly, so a finished kernel is freed without the
    cyclic collector."""

    __slots__ = ("_site",)

    def __init__(self, kernel: "RequestKernel", service: str, endpoint: str) -> None:
        super().__init__()
        self._site = (weakref.ref(kernel), service, endpoint)

    def __missing__(self, version: str):
        kernel, service, endpoint = self._site
        kernel = kernel()
        node = self[version] = kernel._node(service, endpoint, version, kernel._proxy_ms)
        return node


class RequestKernel:
    """Compiled execution state for one event-free stretch of requests.

    Routes, endpoint specs, policies, partitions and subscribers change
    only at engine events, so a kernel built per stretch resolves them
    once.  Children and variant nodes are compiled on first use, so a
    probabilistic call cycle trips the depth guard, and a variant without
    the endpoint fails, only when a request gets there.  With a
    *population* the requests are rows of a
    :class:`~repro.traffic.batch.RequestBatch`
    (:func:`~repro.microservices.kernel.columns.run_slice`); without one,
    :class:`~repro.traffic.workload.Request` objects
    (:meth:`execute_request`).  Whoever drives the kernel calls
    :meth:`flush` before an engine event can read the store.
    """

    def __init__(self, runtime: "Runtime", population=None) -> None:
        """Pick the stretch's hop.  Rows resolve versions through compiled
        routes when the router is a :class:`VersionRouter` or a
        :class:`StaticRouter`; ``Request`` objects, and rows under any
        other router, ask ``runtime.router.route`` on every hop.  Those,
        rows under a network gate with partitions (or one that does not
        expose them), and rows while a collector subscriber lacks a column
        entry point run the general hop (:attr:`_general`); other rows run
        as columns unless :func:`~.plan.plan` refuses the slice.
        """
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
        self.seeded = runtime.rng
        self.raw = runtime.rng.raw
        self._random = self.raw.random
        self._population = population
        # The population's codes as an ndarray (no copy): the columnar
        # slice gathers a column of them per audience gate.
        self._group_codes = (
            np.asarray(memoryview(population.group_codes()))
            if population is not None
            else None
        )
        self._nodes: dict = {}
        self._edges: dict = {}
        self._routes: dict = {}
        self.samples = SpanSampleBuffer()
        # The runtime's own resilience layer, so breaker state and the
        # event log stay continuous across kernels.
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
        self._folds = None if population is None else runtime.collector.column_subscribers
        self._general = (
            self._route_per_hop
            or self._network is not None
            or (self._spans and not self._folds)
        )

    # -- compilation -------------------------------------------------------

    def entry_edge(self, entry: str) -> _Edge:
        return self._edge(*_split_entry(entry))

    def _edge(self, service: str, endpoint: str) -> _Edge:
        key = (service, endpoint)
        edge = self._edges.get(key)
        if edge is not None:
            return edge
        policy = self._resilience.policy_for(service, endpoint)
        router = self._router
        route = router.active_route(service) if router is not None else None
        edge = _Edge(policy=policy, service=service, endpoint=endpoint)
        if route is not None:
            edge.route = self._route(service, route)
            edge.variants = _VariantNodes(self, service, endpoint)
            edge.shadows = route.shadow_versions
        elif not self._route_per_hop:
            edge.node = self._node(service, endpoint, None, 0.0)
        self._edges[key] = edge
        return edge

    def _shadow_nodes(self, service: str, endpoint: str, versions):
        """Dark-launch duplicates are forced to their version and bypass
        the proxy; versions the service does not have are skipped.  Asked
        per replay, so a duplicate no request replays is never compiled."""
        svc = self._app.service(service)
        return tuple(
            self._node(service, endpoint, version, 0.0)
            for version in versions
            if svc.has_version(version)
        )

    def _route(self, service: str, route) -> _Route:
        rec = self._routes.get(service)
        if rec is None:
            eligible = None
            if route.audience.groups:
                groups = route.audience.groups
                eligible = bytes(name in groups for name in self._population.group_names)
            rec = self._routes[service] = _Route(
                memo={},
                assigner=self._router.assigner(route.experiment) if route.variants else None,
                variants=route.variants,
                eligible=eligible,
                stable=self._app.service(service).stable_version,
                prefilled=None,
                peeked={},
            )
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
        recipe = _recipe(spec.latency)
        sample, needs_load = _compile_sampler(spec.latency, recipe, self)
        starts, durations, errors = self.samples.columns(service, version_name)
        node = self._nodes[key] = _Node(
            sample=sample,
            error_rate=spec.error_rate,
            children=tuple((c.probability, c.service, c.endpoint) for c in spec.calls),
            parallel=bool(spec.parallel_calls),
            arrivals=self._runtime.arrivals.setdefault((service, version_name), deque()),
            capacity=version.capacity_rps,
            start_buf=starts,
            duration_buf=durations,
            error_buf=errors,
            needs_load=needs_load,
            proxy_ms=proxy_ms,
            service=service,
            version=version_name,
            endpoint=endpoint,
            recipe=recipe,
        )
        return node

    # -- variant assignment ------------------------------------------------

    def _matches(self, rec: _Route, group_code: int) -> bool:
        """Whether the route's audience includes this user — scalar
        ``AudienceFilter.matches``."""
        return rec.eligible is None or rec.eligible[group_code] == 1

    def _assign(self, rec: _Route, user_index: int, group_code: int) -> str:
        if rec.prefilled is not None:  # a memo miss after a prefill: take the columns
            distinct, picks, versions = rec.prefilled
            rec.prefilled = None
            rec.memo.update(zip(distinct.tolist(), map(versions.__getitem__, picks.tolist())))
            if user_index in rec.memo:
                return rec.memo[user_index]
        if rec.variants and self._matches(rec, group_code):
            version = rec.assigner.assign(
                self._population.user_at(user_index), rec.variants
            )
        else:
            version = rec.stable
        rec.memo[user_index] = version
        return version

    # -- the general hop ---------------------------------------------------

    def execute_request(self, request: "Request", start: float):
        """Run one :class:`Request` through the general hop with spans on;
        returns (trace id, spans, duration ms, error).  Recording the
        spans is the caller's (``Runtime.execute``) business."""
        edge = self.entry_edge(request.entry)
        trace_id = self._runtime.next_trace_id()
        spans: list[Span] = []
        ctx = (request, None, trace_id, spans, request.group, request.user_id)
        duration, error, _ = self._call(edge, None, None, start, 0, False, None, ctx, 0)
        return trace_id, spans, duration, error

    def _dispatch(
        self, edge: _Edge, caller, start: float, depth: int, shadow: bool, parent_id, ctx
    ):
        """A call from *caller* under its :class:`CallPolicy` (if any); the
        attempt loop (retries with seeded backoff jitter, fallback) is
        :meth:`ResilienceLayer.call_with_policy`.  The entry call has no
        caller, so no policy applies to it: it runs :meth:`_call`."""
        policy = edge.policy
        if policy is None or shadow:
            duration, error, _ = self._call(
                edge, None, caller, start, depth, shadow, parent_id, ctx, 0
            )
            return duration, error
        return self._resilience.call_with_policy(
            policy,
            edge.service,
            edge.endpoint,
            start,
            self.seeded,
            lambda attempt_start, attempt: self._call(
                edge, None, caller, attempt_start, depth, False, parent_id,
                ctx, attempt,
            ),
        )

    def _call(
        self,
        edge: _Edge,
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
            decision = self._runtime.router.route(user, edge.service)
            node = self._node(
                edge.service,
                edge.endpoint,
                decision.version,
                decision.proxy_hops * self._proxy_ms,
            )
            if decision.shadow_versions:
                shadows = self._shadow_nodes(
                    edge.service, edge.endpoint, decision.shadow_versions
                )
        elif edge.route is None:
            node = edge.node
        else:
            rec = edge.route
            version = rec.memo.get(user)
            if version is None:
                version = self._assign(rec, user, group_code)
            node = edge.variants[version]
            if edge.shadows and self._matches(rec, group_code):
                shadows = self._shadow_nodes(edge.service, edge.endpoint, edge.shadows)
        service = node.service
        version = node.version
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
            service, version, start, node.endpoint, attempt
        ):
            refusal = {"breaker": "open"}
        if refusal is not None:
            if tags is not None:
                tags.update(refusal)
            self._finish(node, ctx, None, parent_id, start, 0.0, True, tags)
            return 0.0, True, version
        # Load is the ratio of the recent arrival rate to the version's
        # deployed capacity.
        arrivals = node.arrivals
        arrivals.append(start)
        cutoff = start - LOAD_WINDOW_SECONDS
        while arrivals[0] < cutoff:
            arrivals.popleft()
        if node.needs_load:
            capacity = node.capacity
            load = (
                (len(arrivals) / LOAD_WINDOW_SECONDS) / capacity if capacity > 0 else 0.0
            )
        else:
            load = 0.0
        own_latency = node.sample(load)
        error = self._random() < node.error_rate
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
        parallel = node.parallel
        for probability, child_service, child_endpoint in node.children:
            if probability < 1.0 and self._random() >= probability:
                continue
            child_edge = self._edges.get((child_service, child_endpoint))
            if child_edge is None:
                child_edge = self._edge(child_service, child_endpoint)
            offset = 0.0 if parallel else children_duration / 1000.0
            if child_edge.policy is None:  # _dispatch's own shortcut
                child_duration, failed, _ = self._call(
                    child_edge, None, service, child_start + offset, depth + 1,
                    shadow, span_id, ctx, 0,
                )
            else:
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
        duration = own_latency + node.proxy_ms + waited
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
        self, node: _Node, ctx, span_id, parent_id, start, duration, error, tags
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
                    service=node.service,
                    version=node.version,
                    endpoint=node.endpoint,
                    start=start,
                    duration_ms=duration,
                    error=error,
                    tags=tags,
                )
            )
        if self._population is not None:
            node.start_buf.append(start)
            node.duration_buf.append(duration)
            node.error_buf.append(error)

    def flush(self) -> None:
        """Land the buffered samples in the runtime's store (the
        ``resilience.*`` series the general hop's events write immediately
        are different keys, so their order relative to these is unobservable)."""
        self.samples.flush(self._runtime.store)

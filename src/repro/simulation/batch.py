"""The request kernel and its batch driver: million-request replay.

:class:`RequestKernel` owns the per-hop algorithm of the whole repo —
the draw sequence that turns routing, load, faults and shadow
duplication into latencies.  ``Runtime.execute`` runs one
:class:`~repro.traffic.workload.Request` through it; :func:`run_batches`
replays columnar :class:`~repro.traffic.batch.RequestBatch` chunks
through it, interleaved with engine events by :func:`drive`, the loop
``Bifrost.run`` and REPLAY share — but between events it executes whole
*slices* of requests instead of materializing one ``Request``/``Span``/
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
  kernel can observe.  The *plain* hop runs the slice as columns: it
  compiles the entry's call tree into a plan of call sites, each
  dark-launch shadow replay and each retry attempt of a call policy one
  more call site, draws each sub-block's uniforms in bulk
  (:func:`~repro.simulation.rng.random_block`), finds where every hop's
  draws fall with one composed offset table per combination of shadow
  audiences and of versions where a policy decides, then computes
  latencies, loads, durations, errors and policy events one call site at
  a time (``tests/property/test_columnar_slice.py``).  Under circuit
  breakers each sub-block's outcomes replay the breakers' windows before
  anything lands: the rows before the first one that would move a
  breaker land, and the rows from it on run the general hop until every
  breaker is closed again.  It builds no span: while the trace collector
  has stream subscribers it runs only if every one has a column entry
  point, and hands those each sub-block's hops
  (``tests/property/test_columnar_spans.py``).  The *general* hop — the
  one ``Runtime.execute`` always runs, the plain slices whose plan
  refuses them and the rows a breaker cut — executes every hook per hop:
  call policies, circuit breakers, network partitions and routers the
  kernel cannot compile, and builds spans as it goes for subscribers
  without a column entry point.
  Fault campaigns need no hook at all: they rewrite endpoint specs at
  engine events, and nodes are compiled from the specs per kernel.
  Event boundaries delimit slices, and all of these conditions but a
  breaker's state only change at events, so they can never flip
  mid-slice.

Memory behaviour: samples wait in a per-(service, version)
:class:`~repro.telemetry.monitor.SpanSampleBuffer` flushed at slice ends
(the store keeps ``array('d')`` columns) and the result keeps running
totals only — so a ten-million request replay holds O(slice) transient
state, not O(run), live health on columns too; block arrays are
O(sub-block).  Spans recorded for span subscribers are O(run).
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import islice, repeat
from random import NV_MAGICCONST
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from repro.errors import ConfigurationError, ExecutionError
from repro.simulation.latency import (
    ConstantLatency,
    LoadSensitiveLatency,
    LogNormalLatency,
    ParetoLatency,
)
from repro.simulation.rng import random_block
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


def _recipe(model):
    """A latency model as ``(draw, a, b, ops)``, or None for any other type.

    The one dispatch on the model type behind both the scalar sampler and
    the columnar slice.  *draw* is ``"const"`` (value *a*), ``"normal"``
    (``exp`` of a Kinderman–Monahan normal with mu *a* and sigma *b*) or
    ``"pareto"`` (scale *a* times a Pareto variate of shape *b*); *ops*,
    innermost first, multiply the draw by the load inflation
    (``("load", pressure)``) or a fault's factor (``("scale", factor)``).
    """
    # Imported here: faults imports the simulation package at module level.
    from repro.microservices.faults import _ScaledLatency

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
_N_RECIPE = 14  # the latency model's recipe (None = not columnar)


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


#: Rows per columnar sub-block: bounds the block's tables (not a knob).
_SUB_BLOCK = 4096
#: Extra uniforms drawn per block beyond the expected need.
_BLOCK_SLACK = 64
#: Kinderman–Monahan acceptance tests within this relative distance of
#: the boundary are decided with ``math.log``, not ``np.log``.
_LOG_GUARD = 1e-12
#: Expected uniforms per latency sample (K–M: two per pair, ≈ 1.37 pairs).
_DRAWS = {"const": 0.0, "normal": 2.74, "pareto": 1.0}


class _Position:
    """One call site of a slice's plan: the versions rows can take there,
    their one draw kind and error rates, the child call sites in call
    order, the dark-launch duplicates (``shadows``) replayed after them
    and, under a call policy, the retry ``attempts`` placed after those.
    A duplicate runs for the rows its *gate* (the primary's route record,
    None when every user is in its audience) admits, attempt k for the
    rows whose attempt k − 1 failed.  A policy reads the error of every
    ``judged`` position; ``kids`` are the positions of the spans whose
    parent is this one's, in span order, and ``done`` counts the
    positions that finish before this one's policy events."""

    __slots__ = (
        "key", "rec", "versions", "codes", "kind", "rates", "certain",
        "children", "shadows", "gate", "parallel", "proxy", "pre", "post",
        "policy", "attempts", "judged", "kids", "done",
    )


class _Block:
    """One sub-block's uniforms and the draw-offset tables over them.

    An offset indexes ``u``; ``over`` (its length + 1) marks a walk that
    ran past the block, and every table maps it to itself.  ``first[s]``
    is the first accepted Kinderman–Monahan pair at or after *s* in steps
    of two, ``z`` the pair's normal deviate.
    """

    __slots__ = ("u", "z", "first", "km", "step", "over")

    def __init__(self, u: np.ndarray) -> None:
        n = len(u)
        self.over = over = n + 1
        # Past the end a probability draw is never taken; its walk is
        # already ``over`` either way.
        self.u = np.concatenate((u, (2.0, 2.0)))
        self.step = np.minimum(np.arange(1, n + 3), over)
        u2 = 1.0 - u[1:]
        self.z = z = NV_MAGICCONST * (u[:-1] - 0.5) / u2
        zz = z * z / 4.0
        bound = -np.log(u2)
        accept = zz <= bound
        for j in np.flatnonzero(np.abs(zz - bound) <= _LOG_GUARD * bound).tolist():
            accept[j] = zz[j] <= -math.log(u2[j])
        first = np.full(n + 2, n - 1)
        first[: n - 1] = np.where(accept, np.arange(n - 1), n - 1)
        for parity in (0, 1):
            lane = first[parity : n - 1 : 2]
            lane[:] = np.minimum.accumulate(lane[::-1])[::-1]
        self.first = first
        self.km = first + 2


def _expected_draws(pos: _Position) -> float:
    draws = _DRAWS[pos.kind] + 1.0
    for probability, child in pos.children:
        below = _expected_draws(child)
        draws += below if probability >= 1.0 else 1.0 + probability * below
    draws += sum(map(_expected_draws, pos.shadows))
    if pos.attempts:
        # A retry follows a failure: its jitter draw and its subtree again.
        lost = max(pos.rates)
        again = sum(lost**k for k in range(1, len(pos.attempts) + 1))
        draws += again * (draws + (pos.policy.jitter_ms > 0))
    return draws


def _table(pos: _Position, block: _Block, combo) -> tuple:
    """Draw offset after *pos*'s subtree and its duplicates, for every
    start offset, for rows whose gates are the ids in ``combo[0]`` and
    whose versions are ``combo[1]`` (route record id -> code); with the
    error a call policy reads, if ``judged`` (else None)."""
    admitted, picked = combo
    # The error draw's offset: the start offset itself for a constant.
    at = None if pos.kind == "const" else block.km if pos.kind == "normal" else block.step
    table = block.step if at is None else block.step[at]
    failed = None
    if pos.judged:
        rate = pos.rates[picked.get(id(pos.rec), 0)]
        failed = (block.u if at is None else block.u[at]) < rate
    for probability, child in pos.children:
        end, fail = _site_table(child, block, combo)
        at, taken = table, True
        if probability < 1.0:
            at, taken = block.step[table], block.u[table] < probability
            table = np.where(taken, end[at], at)
        else:
            table = end[at]
        if failed is not None:
            failed = failed | (fail[at] & taken)
    for shadow in pos.shadows:
        if shadow.gate is None or id(shadow.gate) in admitted:
            table = _table(shadow, block, combo)[0][table]
    return table, failed


def _site_table(pos: _Position, block: _Block, combo) -> tuple:
    """:func:`_table` of a whole call site: under its call policy, attempt
    k + 1 runs from where attempt k ended (after a jitter draw) for the
    offsets whose attempt k failed.  Every attempt of a row draws as
    attempt 0 would from the same offset, so one table serves them all."""
    end, failed = _table(pos, block, combo)
    policy = pos.policy
    if policy is None:
        return end, failed
    table, lost = end, failed
    for _ in range(policy.max_retries):
        at = block.step[table] if policy.jitter_ms > 0 else table
        table = np.where(lost, end[at], table)
        lost = lost & failed[at]
    return table, np.zeros_like(lost) if policy.fallback else lost


def _chain(steps, over: int) -> list:
    """Each row's first draw offset while the rows fit the block, then the
    offset after the last one; *steps* maps each row's first offset to
    the next row's."""
    offsets = [0]
    append = offsets.append
    offset = 0
    for step in steps:
        offset = step(offset)
        if offset == over:
            break
        append(offset)
    return offsets


def _walk(pos: _Position, orders: dict, order: list) -> None:
    """Append the pres of *pos*'s subtree in ``Trace.walk`` order: each
    position's kids in ``orders[pos]``'s order (by start, stably in span
    order), else in span order."""
    order.append(pos.pre)
    kids = pos.kids
    for index in orders.get(pos, range(len(kids))):
        _walk(kids[index], orders, order)


def _latency(recipe, block: _Block, offsets: np.ndarray, load):
    """A latency column for hops whose draws start at *offsets*, with the
    scalar sampler's float operations (``exp`` and ``**`` as Python
    floats); returns it and the offsets of the hops' error draws."""
    draw, a, b, ops = recipe
    n = len(offsets)
    if draw == "const":
        column = np.full(n, a)
    elif draw == "normal":
        pairs = block.first[offsets]
        column = np.fromiter(map(math.exp, (a + block.z[pairs] * b).tolist()), float, n)
        offsets = pairs + 2
    else:
        exponents = repeat(-1.0 / b, n)
        column = a * np.fromiter(
            map(pow, (1.0 - block.u[offsets]).tolist(), exponents), float, n
        )
        offsets = offsets + 1
    for op, arg in ops:
        if op == "scale":
            column = column * arg
        else:
            column = column * (1.0 + arg * np.maximum(0.0, load - 1.0))
    return column, offsets


def _loads(arrivals, starts: np.ndarray, window: float) -> np.ndarray:
    """The load deque's length each hop starting at *starts* sees after
    its append and expiry, leaving the deque as it is.  Hop *i* pops while
    the head is before its cutoff, so the head stops at an arrival no
    earlier cutoff passes either: after hop *i* it is the first arrival
    at or after the running maximum of the cutoffs, a searchsorted over
    the arrivals' running maximum.  Only the deque's head that can expire
    is read."""
    cutoffs = np.maximum.accumulate(starts - window)
    size = len(arrivals)
    take = min(size, 2 * len(starts))
    while True:
        head = np.fromiter(islice(arrivals, take), float, take)
        if take == size or head.max() >= cutoffs[-1]:
            break
        take = min(size, 2 * take)
    peaks = np.maximum.accumulate(np.concatenate((head, starts)))
    return size + np.arange(1, len(starts) + 1) - np.searchsorted(peaks, cutoffs)


def _arrive(arrivals, starts: list, window: float) -> None:
    """Leave a load deque as the hops starting at *starts* would, one
    append and expiry each: by :func:`_loads`' argument, one expiry
    against the latest start's cutoff after every append."""
    arrivals.extend(starts)
    cutoff = max(starts) - window
    popleft = arrivals.popleft
    while arrivals[0] < cutoff:
        popleft()


def _hop_order(entries: list, positions: int) -> list:
    """The array columns ``(rows, *columns)`` of one or more positions'
    entries ``(order, rows, *columns)``, in global hop order: by row,
    then by *order* in the row."""
    if len(entries) == 1:
        return entries[0][1:]
    key = np.concatenate([rows * positions + order for order, rows, *_ in entries])
    order = np.argsort(key)
    return [
        np.concatenate([entry[i] for entry in entries])[order]
        for i in range(1, len(entries[0]))
    ]


def _before(entries: list, cut: int) -> list:
    """*entries* ``(order, rows, *columns)`` cut to the rows before *cut*
    (each entry's rows ascend)."""
    kept = []
    for order, rows, *columns in entries:
        k = int(np.searchsorted(rows, cut))
        if k:
            kept.append((order, rows[:k], *(column[:k] for column in columns)))
    return kept


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
    :class:`~repro.traffic.batch.RequestBatch` (:meth:`run_slice`), and
    their samples land in :attr:`samples` in hop-completion order (per
    sub-block on the plain hop, per hop on the general one).  Without one
    they are :class:`~repro.traffic.workload.Request` objects
    (:meth:`execute_request`, what ``Runtime.execute`` runs), and the
    caller buffers the spans in :attr:`samples` once the request has
    returned.  Rows resolve their versions through memoized records
    compiled from a :class:`~repro.routing.proxy.VersionRouter`'s routes
    (a ``StaticRouter`` compiles to none); ``Request`` objects, and rows
    under any other ``Router``, ask ``runtime.router.route`` on every hop,
    with the row's ``Request`` in hand.  ``Request`` objects, and rows
    under such a router or a partition, run the general hop, and so do
    rows while the collector has a stream subscriber without a column
    entry point; other rows, shadow routes, call policies and breakers
    included, run as columns unless the plan refuses the slice, and for
    the rows from one that would move a breaker until every breaker is
    closed.  The general hop builds spans for ``Request`` objects and,
    while the collector has stream subscribers, for rows; the columnar
    slice hands its hops to the column entry points instead.  Whoever
    drives the kernel calls :meth:`flush` before an engine event can read
    the store.
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
        self._folds = None if population is None else runtime.collector.column_subscribers
        self._general = (
            self._route_per_hop
            or self._network is not None
            or (self._spans and not self._folds)
        )

    # -- compilation -------------------------------------------------------

    def entry_edge(self, entry: str):
        return self._edge(*_split_entry(entry))

    def _edge(self, service: str, endpoint: str):
        """An edge is ``(route_record | None, node | {version: node} | None,
        policy | None, shadow versions, service, endpoint)``; when routing
        per hop only the policy is compiled — the router picks the node."""
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
            nodes = _VariantNodes(self, service, endpoint)
            edge = (rec, nodes, policy, route.shadow_versions, service, endpoint)
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

    def _route_rec(self, service: str, route):
        """Per-service routing record: [memo, assigner, variants, eligible
        group codes (None = all), stable version, required headers (None =
        none), prefilled columns (None = none, see
        :meth:`prefill_assignments`), versions the columnar slice looked
        up before the assigner recorded them (see :meth:`_codes`)]."""
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
                None,
                {},
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
        recipe = _recipe(spec.latency)
        sample, needs_load = _compile_sampler(spec.latency, recipe, self)
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
            recipe,
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
        if rec[6] is not None:  # a memo miss after a prefill: take the columns
            distinct, picks, versions = rec[6]
            rec[6] = None
            rec[0].update(zip(distinct.tolist(), map(versions.__getitem__, picks.tolist())))
            if user_index in rec[0]:
                return rec[0][user_index]
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
        call.  The route record keeps the result as columns — the sorted
        distinct users and each one's index into ``(*variants, stable)``
        — which :meth:`_codes` reads for the rows of ``[lo, hi)``.
        Probabilistically-reached services keep the lazy per-user
        path so the assigner's distinct-user bookkeeping only ever sees
        users a request-by-request run would have assigned.  A partition or an
        open breaker can cut any call short, so with either configured
        nothing is certain and every assignment stays lazy: the columnar
        slice records its rows' users when they land (:meth:`_record`),
        the general hop when it routes them.
        """
        router = self._router
        if router is None or self._breakers or self._network is not None or lo >= hi:
            return
        routed = router.routed_services
        if not routed:
            return
        certain = self._certain_services(batch.entry)
        # Sorted distinct users; numpy 2.4's hashing np.unique is ≈ 18× slower.
        users = np.sort(batch.user_indices[lo:hi])
        distinct = users[np.concatenate(((True,), users[1:] != users[:-1]))]
        for service in routed:
            if service not in certain:
                continue
            route = router.active_route(service)
            if not route.variants:
                continue
            rec = self._route_rec(service, route)
            picks = self._picks(rec, distinct, True)
            rec[6] = (distinct, picks, (*(v.version for v in rec[2]), rec[4]))

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
        plan = None if self._general else self._plan(batch.entry)
        if plan is not None:
            now, durations, errors = self._run_columns(plan, batch, lo, hi, now)
        else:
            now, durations, errors = self._run_rows(batch, lo, hi, now)
        if not self._spans:
            self._runtime.advance_trace_ids(len(durations))
        self._runtime.requests_executed += len(durations)
        return now, durations, errors

    def _run_rows(self, batch: "RequestBatch", lo: int, hi: int, now: float):
        """Rows [lo, hi) on the general hop, one at a time."""
        runtime = self._runtime
        timestamps = batch.timestamps[lo:hi].tolist()
        user_indices = batch.user_indices[lo:hi].tolist()
        edge = self.entry_edge(batch.entry)
        group_codes = self._group_codes
        durations = []
        append = durations.append
        errors = 0
        population = self._population
        group_names = population.group_names
        collector = runtime.collector
        call = self._call
        # A router asked per hop gets the row's Request.
        subjects = (
            map(batch.request, range(lo, hi)) if self._route_per_hop else user_indices
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
            duration, error, _ = call(edge, None, None, now, 0, False, None, ctx, 0)
            if spans is not None:
                collector.record_trace(trace_id, spans)
            append(duration)
            if error:
                errors += 1
        return now, durations, errors

    # -- the columnar slice (the plain hop) -----------------------------------

    def _plan(self, entry: str):
        """The entry's call tree as positions in pre-order, each call site's
        dark-launch duplicates right after its subtree and its retry
        attempts after those, or None when the columnar slice cannot
        express the slice and the general hop runs it: a latency model
        without a recipe, a cycle, a load deque shared by two positions
        where one reads the load, a call site whose versions differ in
        their calls or their draw kinds."""
        positions: list = []
        plan = (positions, [], {})
        if self._position(*_split_entry(entry), True, (), plan) is None:
            return None
        for count, reads in plan[2].values():
            if count > 1 and reads:
                return None
        return positions

    def _position(
        self, service: str, endpoint: str, certain: bool, path, plan, forced=None,
        replay=False, judged=False, retry=False,
    ):
        """One call site (a duplicate forced to version *forced*, a retry
        attempt when *retry*) and its subtree; *path* holds one call site
        per level of depth.  As in :meth:`_dispatch`, no policy applies
        to the entry call (its caller is the user) or under a shadow
        *replay*; below a policy every position is *judged*."""
        positions, finished, deques = plan
        if len(path) > _MAX_CALL_DEPTH or (forced is None and (service, endpoint) in path):
            return None
        replay = replay or forced is not None
        policy = (
            None if replay or retry or not path
            else self._resilience.policy_for(service, endpoint)
        )
        judged = judged or policy is not None
        router = self._router
        route = router.active_route(service) if router is not None else None
        try:
            svc = self._app.service(service)
            if forced is not None:
                rec, versions = None, (forced,)
            elif route is None:
                rec, versions = None, (svc.stable_version,)
            else:
                rec = self._route_rec(service, route)
                versions = tuple(dict.fromkeys((rec[4], *(v.version for v in rec[2]))))
            specs = [svc.get(version).endpoint(endpoint) for version in versions]
        except ConfigurationError:  # raised by the general hop, if reached
            return None
        recipes = [_recipe(spec.latency) for spec in specs]
        calls = {
            tuple((c.probability, c.service, c.endpoint) for c in spec.calls)
            for spec in specs
        }
        kinds = {None if recipe is None else recipe[0] for recipe in recipes}
        if (
            None in kinds
            or len(kinds) > 1
            or len(calls) > 1
            or len({bool(spec.parallel_calls) for spec in specs}) > 1
        ):
            return None
        for version, recipe in zip(versions, recipes):
            use = deques.setdefault((service, version), [0, False])
            use[0] += 1
            use[1] = use[1] or any(op == "load" for op, _ in recipe[3])
        pos = _Position()
        pos.key, pos.rec, pos.versions, pos.kind = (service, endpoint), rec, versions, kinds.pop()
        pos.codes = {version: code for code, version in enumerate(versions)}
        pos.rates = tuple(spec.error_rate for spec in specs)
        pos.certain, pos.parallel = certain, bool(specs[0].parallel_calls)
        pos.proxy = 0.0 if rec is None else self._proxy_ms
        pos.policy, pos.judged = policy, judged
        pos.gate = None
        pos.pre = len(positions)
        positions.append(pos)
        below = (*path, (service, endpoint))
        children = []
        for probability, child_service, child_endpoint in calls.pop():
            child = self._position(
                child_service, child_endpoint, certain and probability >= 1.0, below,
                plan, replay=replay, judged=judged,
            )
            if child is None:
                return None
            children.append((probability, child))
        pos.children = tuple(children)
        pos.post = len(finished)
        finished.append(pos)
        # ``_call`` replays each duplicate after the primary's subtree, one
        # level deeper, forced and without the proxy; rows outside the
        # route's audience skip it, and so no row reaches it for sure.
        shadows = []
        if rec is not None:
            gate = rec if rec[3] is not None or rec[5] is not None else None
            for version in route.shadow_versions:
                if svc.has_version(version):
                    shadow = self._position(service, endpoint, False, below, plan, version)
                    if shadow is None:
                        return None
                    shadow.gate = gate
                    shadows.append(shadow)
        pos.shadows = tuple(shadows)
        pos.kids = (*(a for _, c in children for a in (c, *c.attempts)), *shadows)
        pos.done = len(finished)
        # ``call_with_policy`` runs attempt k after attempt k - 1 returned,
        # duplicates included: a sibling of attempt 0, never certain.
        attempts = []
        for _ in range(policy.max_retries if policy is not None else 0):
            again = self._position(
                service, endpoint, False, path, plan, judged=True, retry=True
            )
            if again is None:
                return None
            attempts.append(again)
        pos.attempts = tuple(attempts)
        return pos

    def _codes(self, pos: _Position, users: np.ndarray) -> np.ndarray:
        """Each user's version at *pos* as an index into ``pos.versions``:
        read from the prefilled columns when they hold every user, else
        from the memo or, for users not in it, picked as :meth:`_assign`
        picks but recorded nowhere but ``rec[7]`` (:meth:`_record` records
        the committed rows that reached the position)."""
        rec = pos.rec
        codes = [pos.codes[v.version] for v in rec[2]] + [pos.codes[rec[4]]]
        if rec[6] is not None:
            distinct, picks, _ = rec[6]
            at = np.minimum(np.searchsorted(distinct, users), len(distinct) - 1)
            if np.array_equal(distinct[at], users):
                return np.array(codes)[picks[at]]
        memo, peeked = rec[0], rec[7]
        unseen = [u for u in dict.fromkeys(users.tolist()) if u not in memo and u not in peeked]
        if unseen:
            unseen = np.array(unseen, np.int64)
            peeked.update(zip(unseen.tolist(), self._picks(rec, unseen, False).tolist()))
        return np.fromiter(
            (pos.codes[memo[u]] if u in memo else codes[peeked[u]] for u in users.tolist()),
            np.intp,
            len(users),
        )

    def _picks(self, rec, users: np.ndarray, record: bool) -> np.ndarray:
        """Each user's version at *rec*'s service as :meth:`_assign` gives
        it, as an index into ``(*variants, stable)``: a variant for the
        users in the route's audience (recorded in the assigner if
        *record*), the stable version for the rest."""
        picks = np.full(len(users), len(rec[2]))
        if not rec[2]:
            return picks
        kept = slice(None)
        if rec[3] is not None or rec[5] is not None:
            group_codes = self._group_codes
            kept = np.array([self._matches(rec, u, group_codes[u]) for u in users.tolist()], bool)
        chosen = users[kept]
        if len(chosen):
            pick = rec[1].assign_many if record else rec[1].pick_many
            picks[kept] = pick(chosen, rec[2])
        return picks

    def _run_columns(self, positions: list, batch: "RequestBatch", lo: int, hi: int, now: float):
        """Rows [lo, hi) as columns, a sub-block at a time: one bulk draw,
        each row's draw offsets from the composed table, then every
        position's hops at once.  Under breakers, each sub-block's
        outcomes replay the breakers' windows first; from the first row
        that would move one, rows run on the general hop until every
        breaker is closed again (see docs/PERF_KERNEL.md, "The two hops")."""
        raw = self.raw
        root = positions[0]
        width = len(positions)
        routed = [pos for pos in positions if pos.rec is not None and pos.certain]
        gates = {id(pos.gate): pos.gate for pos in positions if pos.gate is not None}
        # A policy's decisions read the versions at its routed positions.
        judged = {
            id(pos.rec): pos
            for pos in positions
            if pos.judged and pos.rec is not None and len(pos.versions) > 1
        }
        group_codes = self._group_codes
        per_row = _expected_draws(root) * 1.05
        durations: list = []
        errors = 0
        limit, general = _SUB_BLOCK, False
        while lo < hi:
            if general or (self._breakers and self._resilience.tripped()):
                now, took, failed = self._run_rows(batch, lo, lo + 1, now)
                durations += took
                errors += failed
                lo, general = lo + 1, False
                continue
            rows = min(limit, hi - lo)
            users = batch.user_indices[lo : lo + rows]
            codes = {pos: self._codes(pos, users) for pos in routed}
            for pos in routed:
                codes.update(dict.fromkeys(pos.attempts, codes[pos]))
            # Rows whose gates admit the same duplicates and that take the
            # same versions where a policy decides share a composed table.
            masks = {
                key: np.array([self._matches(rec, u, group_codes[u]) for u in users.tolist()])
                for key, rec in gates.items()
            }
            picked = {
                key: codes[pos] if pos in codes else self._codes(pos, users)
                for key, pos in judged.items()
            }
            combos = list(zip(*(c.tolist() for c in (*masks.values(), *picked.values()))))
            size = max(2, math.ceil(rows * per_row) + _BLOCK_SLACK)
            while True:
                state = raw.getstate()
                block = _Block(random_block(raw, size))
                if combos:
                    tables = {
                        combo: _site_table(root, block, (
                            {k for k, on in zip(masks, combo) if on},
                            dict(zip(picked, combo[len(masks) :])),
                        ))[0].item
                        for combo in dict.fromkeys(combos)
                    }
                    steps = map(tables.__getitem__, combos)
                else:
                    steps = repeat(_site_table(root, block, ((), {}))[0].item, rows)
                offsets = _chain(steps, block.over)
                raw.setstate(state)
                if len(offsets) > 1:
                    break
                size *= 2
            done = len(offsets) - 1
            starts = np.maximum.accumulate(
                np.concatenate(((now,), batch.timestamps[lo : lo + done]))
            )[1:]
            ctx = (users, codes, {}, {}, masks, [], [])
            duration, error, _ = self._site(
                root, np.arange(done), starts, np.array(offsets[:-1]), block, ctx
            )
            outcomes = [(node, _hop_order(entries, width)) for node, entries in ctx[3].values()]
            cut = self._trip_row(outcomes, done) if self._breakers else done
            # Keep exactly the draws the committed rows consumed.
            raw.getrandbits(64 * offsets[cut])
            if cut:
                self._commit(positions, ctx, outcomes, cut)
                durations.extend(duration[:cut].tolist())
                errors += int(np.count_nonzero(error[:cut]))
                now = starts[cut - 1].item()
                lo += cut
            general = cut < done
            limit = min(_SUB_BLOCK, 2 * cut + 1 if general else 2 * limit)
        return now, durations, errors

    def _trip_row(self, outcomes: list, rows: int) -> int:
        """The first row one of whose outcomes would move a breaker, or
        *rows*: each (service, version) window replayed over the
        sub-block's outcomes in (row, post) order, as ``record`` sees
        them while every breaker is closed."""
        cut = rows
        for node, (at, _, _, failed) in outcomes:
            index = self._resilience.opens_at(node[_N_SERVICE], node[_N_VERSION], failed)
            if index < len(failed):
                cut = min(cut, int(at[index]))
        return cut

    def _commit(self, positions: list, ctx, outcomes: list, cut: int) -> None:
        """Land the sub-block's rows before *cut*: load deques, samples,
        breaker windows (breakers created as ``admit`` creates them),
        assignments, resilience events and column folds."""
        users, _, arrivals, samples, _, events, reached = ctx
        width = len(positions)
        for deque_, entries in arrivals.values():
            entries = _before(entries, cut)
            if entries:
                _arrive(deque_, _hop_order(entries, width)[1].tolist(), self._window)
        for node, (at, starts, took, failed) in outcomes:
            k = int(np.searchsorted(at, cut))
            if k:
                service, version = node[_N_SERVICE], node[_N_VERSION]
                self.samples.add_columns(service, version, starts[:k], took[:k], failed[:k])
                if self._breakers:
                    self._resilience.breaker(service, version).absorb(failed[:k])
        self._record(_before(reached, cut), users)
        # Policy events in row order, then in the order attempts return.
        emit = self._resilience.emit
        for event in sorted(event for event in events if event[0] < cut):
            emit(event[-1])
        if self._folds:
            kept = {key: (node, _before(entries, cut)) for key, (node, entries) in samples.items()}
            self._fold_columns(positions, kept, cut)
            self._runtime.advance_trace_ids(cut)

    def _record(self, reached: list, users: np.ndarray) -> None:
        """Memo the users new to a route record among the committed rows
        that reached one of its positions, and record those in its
        audience in its assigner (as :meth:`_assign` would have, row by
        row), taking their picks out of ``rec[7]``."""
        by_rec: dict = {}
        for rec, rows in reached:
            by_rec.setdefault(id(rec), (rec, []))[1].append(users[rows])
        for rec, parts in by_rec.values():
            memo, peeked = rec[0], rec[7]
            fresh = [u for u in dict.fromkeys(np.concatenate(parts).tolist()) if u not in memo]
            if not fresh:
                continue
            picks = np.array([peeked.pop(u) for u in fresh], np.intp)
            names = (*(v.version for v in rec[2]), rec[4])
            memo.update(zip(fresh, map(names.__getitem__, picks.tolist())))
            kept = picks < len(rec[2])
            if kept.any():
                rec[1].record_many(np.array(fresh, np.int64)[kept], picks[kept], names[:-1])

    def _site(self, pos: _Position, rows, start, offsets, block: _Block, ctx):
        """:meth:`_hop` for a whole call site: under its call policy, the
        retry attempts of the rows whose attempt failed, timed and charged
        with ``call_with_policy``'s float operations; the durations
        returned are its elapsed times.  Its events wait in *ctx* for the
        commit."""
        # Imported here: microservices imports this module at module level.
        from repro.microservices.resilience import FALLBACK, RETRY, ResilienceEvent

        duration, error, after = self._hop(pos, rows, start, offsets, block, ctx)
        policy = pos.policy
        if policy is None:
            return duration, error, after
        service, endpoint = pos.key

        def note(attempt, order, kind, n, at, times, details):
            """Queue *kind* events of rows *at*, keyed (row, attempt's
            ``done``, order) for the commit's sort."""
            versions = repeat(pos.versions[0])
            if pos.rec is not None:
                codes = self._codes(pos, ctx[0][rows[at]]).tolist()
                versions = map(pos.versions.__getitem__, codes)
            ctx[5].extend(
                (row, attempt.done, order, ResilienceEvent(kind, t, service, v, endpoint, n, d))
                for row, t, v, d in zip(rows[at].tolist(), times.tolist(), versions, details)
            )

        elapsed = np.zeros(len(rows))
        at = np.arange(len(rows))  # the rows still trying
        for n, attempt in enumerate((pos, *pos.attempts)):
            if n:
                begin = start[at] + elapsed[at] / 1000.0
                duration, error, after[at] = self._hop(
                    attempt, rows[at], begin, after[at], block, ctx
                )
            elapsed[at] += duration
            at = at[error]
            if n == policy.max_retries or not len(at):
                break
            backoff = policy.backoff_ms(n + 1)
            if policy.jitter_ms > 0:
                backoff = backoff + (0.0 + policy.jitter_ms * block.u[after[at]])
                after[at] += 1
            elapsed[at] += backoff
            details = [f"backoff={b:.1f}ms" for b in np.broadcast_to(backoff, len(at)).tolist()]
            note(attempt, 0, RETRY, n + 1, at, start[at] + elapsed[at] / 1000.0, details)
        failed = np.zeros(len(rows), bool)
        if not policy.fallback:
            failed[at] = True
        elif len(at):
            note(attempt, 1, FALLBACK, n, at, start[at] + elapsed[at] / 1000.0, repeat(""))
        return elapsed, failed, after

    def _hop(self, pos: _Position, rows, start, offsets, block: _Block, ctx):
        """*pos*'s hops for *rows* (ascending sub-block indices) starting at
        *start* with their first draw at *offsets*, children included;
        returns their durations, errors and next draw offsets.  Load
        deques, samples, assignments and events wait in *ctx*."""
        users, codes, arrivals, samples, masks, _, reached = ctx
        n = len(rows)
        if pos.rec is None:
            picks = None
        else:
            picks = codes[pos][rows] if pos in codes else self._codes(pos, users[rows])
            if pos.rec[6] is None:
                reached.append((pos.rec, rows))
        own = np.empty(n)
        error = np.empty(n, bool)
        after = np.empty(n, np.intp)
        groups = []
        for code, version in enumerate(pos.versions):
            if picks is None:
                sel = slice(None)
            else:
                sel = np.flatnonzero(picks == code)
                if not len(sel):
                    continue
            node = self._node(*pos.key, version, pos.proxy)
            begin = start[sel]
            groups.append((node, sel, begin))
            load = None
            if node[_N_NEEDS_LOAD]:
                counts = _loads(node[_N_ARRIVALS], begin, self._window)
                capacity = node[_N_CAPACITY]
                load = (
                    counts / self._window / capacity
                    if capacity > 0
                    else np.zeros(len(counts))
                )
            arrivals.setdefault(
                id(node[_N_ARRIVALS]), (node[_N_ARRIVALS], [])
            )[1].append((pos.pre, rows[sel], begin))
            own[sel], drawn = _latency(node[_N_RECIPE], block, offsets[sel], load)
            error[sel] = block.u[drawn] < node[_N_ERROR_RATE]
            after[sel] = drawn + 1
        if pos.children:
            child_start = start + 0.3 * own / 1000.0
            total = np.zeros(n)
            slowest = np.zeros(n)
            for probability, child in pos.children:
                taken = slice(None)
                if probability < 1.0:
                    taken = np.flatnonzero(block.u[after] < probability)
                    after = after + 1
                    if not len(taken):
                        continue
                begin = child_start[taken]
                if not pos.parallel:
                    begin = begin + total[taken] / 1000.0
                took, failed, after[taken] = self._site(
                    child, rows[taken], begin, after[taken], block, ctx
                )
                total[taken] += took
                slowest[taken] = np.maximum(slowest[taken], took)
                error[taken] |= failed
            duration = own + pos.proxy + (slowest if pos.parallel else total)
        else:
            duration = own + pos.proxy
        for node, sel, begin in groups:
            samples.setdefault(id(node[_N_TS_BUF]), (node, []))[1].append(
                (pos.post, rows[sel], begin, duration[sel], error[sel])
            )
        # Duplicates start with the primary; their durations and errors
        # stay their own.
        for shadow in pos.shadows:
            taken = slice(None)
            if shadow.gate is not None:
                taken = np.flatnonzero(masks[id(shadow.gate)][rows])
                if not len(taken):
                    continue
            _, _, after[taken] = self._hop(
                shadow, rows[taken], start[taken], after[taken], block, ctx
            )
        return duration, error, after

    def _fold_columns(self, positions: list, samples: dict, rows: int) -> None:
        """Hand the sub-block's hops, in the order ``Trace.walk`` visits the
        spans the general hop builds, to the column subscribers."""
        keys: dict = {}
        width = len(positions)
        ids = np.full((width, rows), -1)  # key index per position and row
        begins = np.full((width, rows), np.nan)
        parents = np.full(width, -1)
        parts = []
        by_post = {pos.post: pos for pos in positions}
        for pos in positions:
            for kid in pos.kids:
                parents[kid.pre] = pos.pre
        for node, node_entries in samples.values():
            for post, at, starts, durations, errors in node_entries:
                pos = by_post[post]
                key = (node[_N_SERVICE], node[_N_VERSION], pos.key[1])
                ids[pos.pre, at] = keys.setdefault(key, len(keys))
                begins[pos.pre, at] = starts
                parts.append((pos.pre, at, starts, durations, errors))
        # Walk order per row: a span's children by start, stably in span
        # order.  A duplicate ties with a 0 ms primary's children, a retry
        # can start after a later sibling, so each position's kids are
        # sorted per row and the walk built per distinct pattern.
        forks = [pos for pos in positions if len(pos.kids) > 1]
        patterns = [
            np.argsort(begins[[kid.pre for kid in fork.kids]].T, axis=1, kind="stable")
            for fork in forks
        ]
        walks, walk_of = (
            np.unique(np.concatenate(patterns, axis=1), axis=0, return_inverse=True)
            if forks
            else (np.zeros((1, 0), np.intp), np.zeros(rows, np.intp))
        )
        ranks = np.empty((len(walks), width), np.intp)
        for rank, walk in zip(ranks, walks.tolist()):
            orders, at = {}, 0
            for fork in forks:
                orders[fork] = walk[at : at + len(fork.kids)]
                at += len(fork.kids)
            order: list = []
            _walk(positions[0], orders, order)
            rank[order] = np.arange(width)
        entries = [
            (ranks[walk_of[at], pre], at, np.full(len(at), pre), starts, durations, errors)
            for pre, at, starts, durations, errors in parts
        ]
        at, pres, starts, durations, errors = _hop_order(entries, width)
        callers = np.where(parents[pres] < 0, -1, ids[parents[pres], at])
        root = pres == 0
        ends = starts[root] + durations[root] / 1000.0
        hops = (callers, ids[pres, at], durations, errors)
        for fold in self._folds:
            fold(list(keys), at, hops, starts, ends)

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
        self, edge, caller, start: float, depth: int, shadow: bool, parent_id, ctx
    ):
        """A call from *caller* under its :class:`CallPolicy` (if any); the
        attempt loop (retries with seeded backoff jitter, fallback) is
        :meth:`ResilienceLayer.call_with_policy`.  The entry call has no
        caller, so no policy applies to it: it runs :meth:`_call`."""
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
            if edge[3] and self._matches(rec, user, group_code):
                shadows = self._shadow_nodes(edge[4], edge[5], edge[3])
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
            if child_edge[2] is None:  # no policy: _dispatch's own shortcut
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


def drive(
    simulation: "SimulationEngine",
    timestamps: Sequence[float],
    run_stretch: Callable[[int, int], None],
) -> None:
    """Run rows with non-decreasing *timestamps*, interleaved with events.

    Every event due at or before a row's time (the later of its timestamp
    and the clock) runs before that row.  ``run_stretch(lo, hi)`` executes
    the event-free rows ``[lo, hi)`` and lands their samples before it
    returns, so no event reads a store that lags the rows before it.
    """
    lo, size = 0, len(timestamps)
    while lo < size:
        due = simulation.queue.peek_time()
        if due is None:
            hi = size
        else:
            now = simulation.now
            hi = lo if due <= now else bisect_left(timestamps, due, lo)
            if hi == lo:
                simulation.run_until(max(float(timestamps[lo]), now))
                continue
        run_stretch(lo, hi)
        lo = hi


def run_batches(
    simulation: "SimulationEngine",
    runtime: "Runtime",
    batches: Iterable["RequestBatch"],
    *,
    until: float | None = None,
) -> BatchRunResult:
    """Replay columnar request batches interleaved with engine events.

    Each batch goes through :func:`drive`, so a stretch never spans two
    batches; every stretch runs as one kernel slice.
    """
    result = BatchRunResult()
    for batch in batches:

        def run_slice(lo: int, hi: int) -> None:
            kernel = RequestKernel(runtime, batch.population)
            kernel.prefill_assignments(batch, lo, hi)
            now, durations, errors = kernel.run_slice(
                batch, lo, hi, simulation.now
            )
            kernel.flush()
            runtime.clock.advance_to(now)
            result.fast_slices += 1
            result._add_fast(durations, errors)

        drive(simulation, batch.timestamps, run_slice)
    if until is not None:
        simulation.run_until(until)
    return result

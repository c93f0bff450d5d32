"""LIVE backend: a real asyncio/HTTP microservice testbed.

One stdlib ``asyncio`` HTTP server per deployed *service version*, bound
to a loopback ephemeral port — no aiohttp, no third-party dependency.
Each server parses raw HTTP/1.1, sleeps its endpoint's modeled latency
(scaled by ``time_scale`` so a 300-logical-second canary fits a CI
budget), injects seeded errors, and issues its downstream calls over
real sockets *through the shared client-side router* — the very same
:class:`~repro.routing.proxy.VersionRouter` the Bifrost engine installs
experiment routes into, so sticky assignments and canary splits steer
actual TCP connections.

The engine runs in the same event loop on a logical clock derived from
wall time: requests are paced to their logical timestamps, every handler
records its observed (real!) latency into the shared metric store at
logical time, and due engine decisions (check ticks, deadlines,
rollout steps) fire between requests.  Promote/rollback therefore
happen exactly as in SIM — except the latency being judged came off a
socket, not a sampler.
"""

from __future__ import annotations

import asyncio
import time as _time
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.bifrost.middleware import Bifrost
from repro.bifrost.model import Strategy
from repro.errors import ExecutionError
from repro.exec.sim import RunResult
from repro.microservices.application import Application
from repro.microservices.service import EndpointSpec
from repro.obs.observer import Observer
from repro.routing.proxy import VersionRouter
from repro.simulation.rng import SeededRng
from repro.telemetry.monitor import SpanSampleBuffer
from repro.telemetry.store import MetricStore
from repro.traffic.workload import Request

_CRLF = b"\r\n"
#: Wall-clock timeout per client call; a timed out call counts as an error.
REQUEST_TIMEOUT_S = 10.0
#: Cap on concurrently issued end-user requests.
MAX_INFLIGHT = 64


@dataclass(frozen=True)
class LiveOptions:
    """Tuning knobs of the live testbed.

    Attributes:
        time_scale: wall seconds per logical second.  0.02 runs a
            300-logical-second canary in ~6 wall seconds while keeping
            modeled latencies (tens of ms logical) around a wall
            millisecond — large enough for real socket round-trips to
            stay well-ordered, small enough for CI.
        host: bind address; loopback only by design.
        max_wall_s: hard budget for the whole run; exceeding it raises
            :class:`~repro.errors.ExecutionError` (the CI smoke's 60 s
            ceiling sits above this).
    """

    time_scale: float = 0.02
    host: str = "127.0.0.1"
    max_wall_s: float = 55.0


class _LiveServer:
    """One HTTP server: one (service, version) deployment."""

    def __init__(
        self,
        cluster: "LiveCluster",
        service: str,
        version: str,
        endpoints: dict[str, EndpointSpec],
        rng: SeededRng,
    ) -> None:
        self.cluster = cluster
        self.service = service
        self.version = version
        self.endpoints = endpoints
        self.rng = rng
        self.port = 0
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.cluster.options.host, 0
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await reader.readline()
            headers: dict[str, str] = {}
            while True:
                line = await reader.readline()
                if line in (_CRLF, b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            parts = request_line.decode("latin-1").split()
            endpoint = parts[1].lstrip("/") if len(parts) >= 2 else ""
            status, body = await self._serve(endpoint, headers)
        except (ConnectionError, asyncio.IncompleteReadError):
            status, body = 0, b""
        except Exception:  # a crashing handler answers 500, like any server
            status, body = 500, b'{"error":"internal"}'
        if status:
            payload = (
                f"HTTP/1.1 {status} {'OK' if status == 200 else 'ERR'}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"X-Service: {self.service}\r\n"
                f"X-Version: {self.version}\r\n"
                f"Connection: close\r\n\r\n"
            ).encode("latin-1") + body
            try:
                writer.write(payload)
                await writer.drain()
            except ConnectionError:
                pass
        writer.close()

    async def _serve(self, endpoint: str, headers: dict[str, str]) -> tuple[int, bytes]:
        spec = self.endpoints.get(endpoint)
        if spec is None:
            return 404, b'{"error":"no such endpoint"}'
        started_logical = self.cluster.logical_now()
        t0 = _time.perf_counter()
        latency_ms = spec.latency.sample(self.rng, load=1.0)
        await asyncio.sleep(
            latency_ms / 1000.0 * self.cluster.options.time_scale
        )
        error = spec.error_rate > 0.0 and self.rng.random() < spec.error_rate
        user = headers.get("x-user", "")
        group = headers.get("x-group", "")
        calls = [
            call
            for call in spec.calls
            if call.probability >= 1.0 or self.rng.random() < call.probability
        ]
        if calls:
            if spec.parallel_calls:
                statuses = await asyncio.gather(
                    *(
                        self.cluster.client_call(c.service, c.endpoint, user, group)
                        for c in calls
                    )
                )
            else:
                statuses = [
                    await self.cluster.client_call(c.service, c.endpoint, user, group)
                    for c in calls
                ]
            if any(s != 200 for s in statuses):
                error = True
        # Observed latency in *logical* milliseconds: real wall time on
        # the socket/handler path, unscaled back onto the model clock.
        duration_ms = (
            (_time.perf_counter() - t0) / self.cluster.options.time_scale * 1000.0
        )
        self.cluster.observe(
            self.service, self.version, started_logical, duration_ms, error
        )
        if error:
            return 500, b'{"error":"injected"}'
        return 200, (
            '{"service":"%s","version":"%s"}' % (self.service, self.version)
        ).encode("latin-1")


class LiveCluster:
    """All deployed service versions as live HTTP servers, plus the client router.

    The *client-side router* is the experiment control point: every call
    (end-user entry or downstream hop) resolves its target version via
    the shared :class:`VersionRouter` — honoring installed experiment
    routes, audience filters, and :class:`StickyAssigner` assignments —
    and falls back to the application's stable version when the service
    is unrouted.  Shadow versions receive fire-and-forget duplicate
    traffic, as in a dark launch.
    """

    def __init__(
        self,
        application: Application,
        router: VersionRouter,
        store: MetricStore,
        options: LiveOptions,
        seed: int = 42,
    ) -> None:
        self.application = application
        self.router = router
        self.store = store
        self.options = options
        self.servers: dict[tuple[str, str], _LiveServer] = {}
        self._rng = SeededRng(seed)
        self._t0 = _time.perf_counter()
        self._shadow_tasks: set[asyncio.Task] = set()
        self._samples = SpanSampleBuffer()

    def logical_now(self) -> float:
        """Wall time since cluster start, on the logical clock."""
        return (_time.perf_counter() - self._t0) / self.options.time_scale

    def reset_clock(self) -> None:
        self._t0 = _time.perf_counter()

    async def start(self) -> None:
        for service_name in self.application.service_names:
            service = self.application.service(service_name)
            for version_name in service.versions:
                version = service.get(version_name)
                server = _LiveServer(
                    self,
                    service_name,
                    version_name,
                    dict(version.endpoints),
                    self._rng.fork(f"{service_name}@{version_name}"),
                )
                await server.start()
                self.servers[(service_name, version_name)] = server

    async def stop(self) -> None:
        for task in tuple(self._shadow_tasks):
            task.cancel()
        for server in self.servers.values():
            await server.stop()

    def observe(
        self, service: str, version: str, start: float, duration_ms: float, error: bool
    ) -> None:
        """Land one handler observation in the store, as the
        :class:`~repro.telemetry.monitor.SpanSampleBuffer` every driver writes through."""
        self._samples.add(service, version, start, duration_ms, error)
        self._samples.flush(self.store)

    def resolve(self, service: str, user_id: str, group: str) -> tuple[str, tuple[str, ...]]:
        """Pick the target version for one call via the shared router."""
        probe = Request(
            request_id="live",
            timestamp=self.logical_now(),
            user_id=user_id,
            group=group,
            entry=service,
        )
        decision = self.router.route(probe, service)
        version = decision.version or self.application.service(service).stable_version
        return version, tuple(decision.shadow_versions)

    async def client_call(
        self, service: str, endpoint: str, user_id: str, group: str
    ) -> int:
        """One routed HTTP call; returns the response status (0 = failed)."""
        version, shadows = self.resolve(service, user_id, group)
        for shadow in shadows:
            if (service, shadow) in self.servers:
                task = asyncio.ensure_future(
                    self._http_get(service, shadow, endpoint, user_id, group)
                )
                self._shadow_tasks.add(task)
                task.add_done_callback(self._shadow_tasks.discard)
        return await self._http_get(service, version, endpoint, user_id, group)

    async def _http_get(
        self, service: str, version: str, endpoint: str, user_id: str, group: str
    ) -> int:
        server = self.servers.get((service, version))
        if server is None:
            return 0
        try:
            return await asyncio.wait_for(
                self._http_get_inner(server, endpoint, user_id, group),
                timeout=REQUEST_TIMEOUT_S,
            )
        except (asyncio.TimeoutError, ConnectionError, OSError):
            return 0
        except asyncio.CancelledError:
            raise

    async def _http_get_inner(
        self, server: _LiveServer, endpoint: str, user_id: str, group: str
    ) -> int:
        reader, writer = await asyncio.open_connection(
            self.options.host, server.port
        )
        try:
            writer.write(
                (
                    f"GET /{endpoint} HTTP/1.1\r\n"
                    f"Host: {server.service}\r\n"
                    f"X-User: {user_id}\r\n"
                    f"X-Group: {group}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode("latin-1")
            )
            await writer.drain()
            status_line = await reader.readline()
            parts = status_line.decode("latin-1").split()
            status = int(parts[1]) if len(parts) >= 2 and parts[1].isdigit() else 0
            await reader.read()
            return status
        finally:
            writer.close()


class LiveBackend:
    """Drives a strategy end-to-end over real sockets."""

    def __init__(
        self,
        application_factory: Callable[[], Application],
        seed: int = 42,
        options: LiveOptions | None = None,
    ) -> None:
        self.application_factory = application_factory
        self.seed = seed
        self.options = options or LiveOptions()

    def execute(
        self,
        strategy: Strategy,
        workload: Iterable[Request],
        until: float | None = None,
        submit_at: float = 0.0,
    ) -> RunResult:
        """Run *strategy* against the live cluster under *workload*."""
        return asyncio.run(self._run(strategy, workload, until, submit_at))

    async def _run(
        self,
        strategy: Strategy,
        workload: Iterable[Request],
        until: float | None,
        submit_at: float,
    ) -> RunResult:
        options = self.options
        middleware = Bifrost(
            self.application_factory(), seed=self.seed, observer=Observer(enabled=True)
        )
        simulation, engine = middleware.simulation, middleware.engine
        cluster = LiveCluster(
            middleware.application, middleware.router, middleware.store, options,
            seed=self.seed,
        )
        result = RunResult(middleware=middleware, strategy=strategy, requests=0, errors=0)
        requests = sorted(workload, key=lambda r: r.timestamp)
        wall_start = _time.perf_counter()

        def wall_elapsed() -> float:
            return _time.perf_counter() - wall_start

        def check_budget() -> None:
            if wall_elapsed() > options.max_wall_s:
                raise ExecutionError(
                    f"live run exceeded its {options.max_wall_s}s wall budget"
                )

        await cluster.start()
        result.ports = {
            f"{svc}@{ver}": server.port
            for (svc, ver), server in cluster.servers.items()
        }
        try:
            engine.submit(strategy, at=submit_at)
            cluster.reset_clock()
            wall_start = _time.perf_counter()
            pending: set[asyncio.Task] = set()

            async def issue(request: Request) -> None:
                service, _, endpoint = request.entry.partition(".")
                status = await cluster.client_call(
                    service, endpoint, request.user_id, request.group
                )
                result.requests += 1
                if status != 200:
                    result.errors += 1

            for request in requests:
                check_budget()
                target_wall = request.timestamp * options.time_scale
                delay = target_wall - wall_elapsed()
                if delay > 0:
                    await asyncio.sleep(delay)
                # Engine decisions due up to this arrival fire first —
                # the same interleaving contract as Bifrost.run.
                simulation.run_until(max(request.timestamp, simulation.now))
                task = asyncio.ensure_future(issue(request))
                pending.add(task)
                task.add_done_callback(pending.discard)
                while len(pending) >= MAX_INFLIGHT:
                    check_budget()
                    await asyncio.wait(
                        tuple(pending), return_when=asyncio.FIRST_COMPLETED
                    )
            # Let inflight requests land while wall time still maps to
            # logical time (their observations carry logical stamps).
            while pending:
                check_budget()
                await asyncio.wait(
                    tuple(pending), timeout=0.05, return_when=asyncio.ALL_COMPLETED
                )
                simulation.run_until(max(cluster.logical_now(), simulation.now))
            # Traffic is over: no further observations can arrive, so
            # the remaining engine decisions are pure clock-driven work —
            # fast-forward them instead of burning wall time (SIM does
            # the same instantaneous jump).
            horizon = until
            while engine.running_count():
                check_budget()
                next_time = simulation.queue.peek_time()
                if next_time is None:
                    break
                if horizon is not None and next_time > horizon:
                    break
                simulation.run_until(next_time)
            if horizon is not None:
                simulation.run_until(max(horizon, simulation.now))
        finally:
            await cluster.stop()
        result.wall_seconds = wall_elapsed()
        return result

"""The Bifrost middleware facade (Fig 4.4).

Wires together everything an experiment execution needs — the simulated
application, the traffic-routing proxy layer, telemetry, the simulation
kernel, and the engine — behind one object.  Callers deploy versions,
submit strategies (as objects or DSL text), and replay a workload; the
facade interleaves request execution with engine events on the shared
simulated clock.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.errors import ConfigurationError
from repro.bifrost.dsl import parse_strategy
from repro.bifrost.engine import BifrostEngine, EngineCosts, StrategyExecution
from repro.bifrost.journal import Journal, SnapshotPolicy, SnapshotStore
from repro.bifrost.model import EXECUTION_MODES, Strategy, StrategyOutcome
from repro.bifrost.recovery import EngineSupervisor, RestartPolicy
from repro.microservices.application import Application
from repro.microservices.faults import (
    EngineCrash,
    FaultCampaign,
    NetworkState,
    describe_fault,
)
from repro.microservices.resilience import ResilienceLayer
from repro.microservices.runtime import RequestOutcome, Runtime
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.routing.proxy import VersionRouter
from repro.simulation.clock import SimulationClock
from repro.simulation.engine import SimulationEngine
from repro.toggles.store import ToggleStore
from repro.traffic.workload import Request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.alerts import AlertEngine, AlertRule
    from repro.topology.graph import InteractionGraph
    from repro.topology.streaming import (
        HealthScorer,
        LiveHealthMonitor,
        StreamingGraphBuilder,
    )


class Bifrost:
    """One-stop middleware for executing live testing strategies."""

    def __init__(
        self,
        application: Application,
        seed: int = 42,
        proxy_overhead_ms: float = 2.0,
        costs: EngineCosts | None = None,
        resilience: ResilienceLayer | None = None,
        network: NetworkState | None = None,
        durable: bool = False,
        journal: Journal | None = None,
        snapshot_policy: SnapshotPolicy | None = None,
        restart_policy: RestartPolicy | None = None,
        toggles: ToggleStore | None = None,
        observer: Observer | None = None,
        mode: str = "sim",
    ) -> None:
        # The middleware *is* the SIM substrate; `mode` declares which
        # substrate this instance stands in for, so strategies that pin
        # a different execution mode in their DSL are rejected at submit
        # time instead of silently running simulated.  The other modes
        # live behind repro.exec.ExecutionRouter.
        if mode not in EXECUTION_MODES:
            raise ConfigurationError(
                f"unknown execution mode {mode!r} "
                f"(expected one of {sorted(EXECUTION_MODES)})"
            )
        self.mode = mode
        self.application = application
        self.observer = observer or NULL_OBSERVER
        self.clock = SimulationClock()
        self.simulation = SimulationEngine(self.clock)
        self.router = VersionRouter()
        self.network = network
        self.toggles = toggles
        self.runtime = Runtime(
            application,
            router=self.router,
            clock=self.clock,
            seed=seed,
            proxy_overhead_ms=proxy_overhead_ms,
            resilience=resilience,
            network=network,
        )
        durable = durable or journal is not None
        self.alert_engine: "AlertEngine | None" = None
        self.journal: Journal | None = None
        self.snapshots: SnapshotStore | None = None
        self.supervisor: EngineSupervisor | None = None
        if durable:
            self.journal = journal or Journal(observer=self.observer)
            if journal is not None and journal.obs is NULL_OBSERVER:
                journal.obs = self.observer
            self.snapshots = SnapshotStore(snapshot_policy)

            def factory() -> BifrostEngine:
                # Every (re)started engine shares the durable journal,
                # snapshot store, and surviving data plane, but gets a
                # fresh executor: a crashed engine's queued work is lost.
                engine = BifrostEngine(
                    simulation=self.simulation,
                    application=application,
                    router=self.router,
                    store=self.runtime.monitor.store,
                    costs=costs,
                    journal=self.journal,
                    snapshots=self.snapshots,
                    toggles=toggles,
                    observer=self.observer,
                )
                # The alert engine and fault campaigns survive a crash
                # (they live on the middleware, not the engine), so a
                # restarted engine's decisions keep their annotations.
                engine.alerts = self.alert_engine
                engine.active_faults_of = self._active_faults
                return engine

            self.supervisor = EngineSupervisor(
                factory,
                self.journal,
                self.snapshots,
                monitor=self.runtime.monitor,
                policy=restart_policy,
                observer=self.observer,
            )
            self._engine = None
        else:
            self._engine = BifrostEngine(
                simulation=self.simulation,
                application=application,
                router=self.router,
                store=self.runtime.monitor.store,
                costs=costs,
                toggles=toggles,
                observer=self.observer,
            )
            self._engine.active_faults_of = self._active_faults
        self.outcomes: list[RequestOutcome] = []
        self.campaigns: list[FaultCampaign] = []
        self.live_health: "LiveHealthMonitor | None" = None
        self.streaming_builder: "StreamingGraphBuilder | None" = None

    @property
    def engine(self) -> BifrostEngine:
        """The *current* engine (the supervisor's, when durable)."""
        if self.supervisor is not None:
            return self.supervisor.engine
        assert self._engine is not None
        return self._engine

    @property
    def collector(self):
        """The trace collector fed by the runtime."""
        return self.runtime.collector

    @property
    def store(self):
        """The shared metric store checks evaluate against."""
        return self.runtime.monitor.store

    @property
    def resilience(self) -> ResilienceLayer:
        """The resilience layer the runtime consults on every hop."""
        return self.runtime.resilience

    def install_campaign(self, campaign: FaultCampaign) -> int:
        """Schedule a fault campaign on the shared simulated clock.

        When the middleware runs durably, the engine supervisor is wired
        into the campaign so :class:`EngineCrash` faults have a target.
        """
        if campaign.engine is None and self.supervisor is not None:
            campaign.engine = self.supervisor
        if (
            any(isinstance(f, EngineCrash) for f in campaign.faults)
            and campaign.engine is None
        ):
            raise ConfigurationError(
                "EngineCrash faults need a durable middleware "
                "(Bifrost(durable=True)) or an explicit crash target"
            )
        self.campaigns.append(campaign)
        return campaign.install(self.simulation)

    def enable_live_health(
        self,
        baseline: "InteractionGraph | None" = None,
        window_seconds: float | None = 60.0,
        window_capacity: int = 8,
        publish_interval: float = 5.0,
        include_shadow: bool = True,
        scorer: "HealthScorer | None" = None,
    ) -> "LiveHealthMonitor":
        """Attach the streaming topology pipeline to this middleware.

        A :class:`~repro.topology.streaming.StreamingGraphBuilder`
        subscribes to the runtime's trace collector, a
        :class:`~repro.topology.streaming.LiveHealthMonitor` publishes
        ``health.score`` metrics into the shared store — which is where
        ``kind health`` checks of submitted strategies read them, closing
        the Ch. 4 ↔ Ch. 5 loop.

        Without an explicit *baseline* graph, the traces collected so
        far (e.g. a pre-experiment warmup run) are batch-built into one.
        Call before submitting strategies that carry health checks.
        """
        from repro.topology.builder import build_interaction_graph
        from repro.topology.streaming import (
            LiveHealthMonitor,
            StreamingGraphBuilder,
        )

        if baseline is None:
            baseline = build_interaction_graph(
                self.collector.traces(), name="baseline"
            )
        builder = StreamingGraphBuilder(
            include_shadow=include_shadow,
            window_seconds=window_seconds,
            window_capacity=window_capacity,
            observer=self.observer,
        ).attach(self.collector)
        monitor = LiveHealthMonitor(
            builder,
            baseline,
            self.store,
            publish_interval=publish_interval,
            scorer=scorer,
        )
        self.streaming_builder = builder
        self.live_health = monitor
        return monitor

    def _active_faults(self, now: float) -> tuple[str, ...]:
        """Labels of every installed transient fault active at *now*.

        The engine records this answer on each decision node, so a
        rollback provenance report names the fault that caused it.
        """
        labels = {
            describe_fault(fault)
            for campaign in self.campaigns
            for fault in campaign.active_at(now)
        }
        return tuple(sorted(labels))

    def enable_alerts(
        self, rules: "Iterable[AlertRule]", interval: float = 5.0
    ) -> "AlertEngine":
        """Attach a multi-window burn-rate alert engine to this middleware.

        The engine evaluates *rules* every *interval* logical seconds
        over the shared metric store, publishes each rule's burn-rate
        gate under the ``alerts`` pseudo-version — which is where
        ``kind slo`` checks of submitted strategies read it — and emits
        ``alert.fired`` / ``alert.resolved`` events into the glass box.
        Firing rules annotate every engine decision node; on a durable
        middleware, restarted engines re-wire themselves to the same
        alert engine.  Call before submitting strategies with slo checks.
        """
        from repro.obs.alerts import AlertEngine

        if self.alert_engine is not None:
            raise ConfigurationError("alerts already enabled on this middleware")
        engine = AlertEngine(
            self.store, rules, observer=self.observer, interval=interval
        )
        engine.attach(self.simulation)
        self.alert_engine = engine
        self.engine.alerts = engine
        return engine

    def submit(self, strategy: Strategy | str, at: float | None = None) -> StrategyExecution:
        """Submit a strategy object or DSL text for execution.

        A strategy that pins a different execution mode in its DSL
        (``mode live`` on a plain simulated middleware, say) is rejected
        — running it here would silently substitute the simulator for
        the substrate the author asked for.  Strategies with the default
        ``mode sim`` run on any substrate; route mode-pinned strategies
        through :class:`repro.exec.ExecutionRouter`.
        """
        if isinstance(strategy, str):
            strategy = parse_strategy(strategy)
        if strategy.execution_mode not in ("sim", self.mode):
            raise ConfigurationError(
                f"strategy {strategy.name!r} pins execution mode "
                f"{strategy.execution_mode!r} but this middleware is the "
                f"{self.mode!r} substrate; run it via "
                "repro.exec.ExecutionRouter"
            )
        return self.engine.submit(strategy, at=at)

    def run(self, workload: Iterable[Request], until: float | None = None) -> list[RequestOutcome]:
        """Replay *workload*, interleaving engine events by timestamp.

        Returns the request outcomes of this run (also appended to
        :attr:`outcomes`).  With *until*, the engine keeps running after
        the workload drains — e.g. to let strategies finish.
        """
        produced = list(self.runtime.replay(self.simulation, workload))
        if until is not None:
            self.simulation.run_until(until)
        self.outcomes.extend(produced)
        return produced

    def run_batches(
        self,
        batches: "Iterable",
        until: float | None = None,
    ):
        """Replay columnar request batches through the batch kernel.

        The high-throughput sibling of :meth:`run`: takes
        :class:`~repro.traffic.batch.RequestBatch` chunks (from a
        :class:`~repro.traffic.batch.BatchWorkloadGenerator`) and returns
        a :class:`~repro.simulation.batch.BatchRunResult`.  Engine events
        interleave with requests exactly as in :meth:`run`, and the
        kernel itself executes fault campaigns, resilience policies and
        breakers, partitions, shadow routes, custom routers, network
        gates and trace subscribers bit-identically.  Unlike :meth:`run`,
        per-request outcomes are not retained, and traces reach
        :attr:`collector` only while it has subscribers — see
        ``docs/PERF_KERNEL.md``.
        """
        from repro.simulation.batch import run_batches

        return run_batches(self.simulation, self.runtime, batches, until=until)

    def outcome_of(self, strategy_name: str) -> StrategyOutcome:
        """Terminal (or running) status of a submitted strategy."""
        for execution in self.engine.executions:
            if execution.strategy.name == strategy_name:
                return execution.outcome
        raise KeyError(f"no strategy named {strategy_name!r} submitted")

"""The fleet orchestrator: Fenrir plans executed as supervised Bifrost fleets.

This is the layer that closes the dissertation's loop.  A Fenrir
:class:`~repro.fenrir.schedule.Schedule` plans dozens–hundreds of
overlapping experiments over traffic slots; the
:class:`FleetOrchestrator` executes that plan by instantiating one
supervised Bifrost engine per experiment on a shared application and
advancing all of them slot-by-slot in lockstep against shared traffic.
Outcomes feed :func:`repro.fenrir.reevaluation.build_reevaluation_from_fleet`,
completing plan → execute → observe → replan.

Robustness is the design driver:

- **Bulkheads** — every experiment owns its simulation clock, metric
  store, router, journal, and :class:`~repro.bifrost.recovery.EngineSupervisor`
  with a bounded :class:`~repro.bifrost.recovery.RestartPolicy`.  A check
  crash, engine crash, or crash-loop is absorbed as *that experiment's*
  outcome; neighbours never observe it.  (``bulkheads=False`` exists to
  demonstrate the failure mode: one poisoned check then aborts the whole
  fleet — the configuration the ``fleet_isolation`` scenario invariant
  and its regression-corpus entry pin down.)
- **Admission control** — Fenrir's per-(slot, group) traffic budget is
  re-checked at every slot boundary by a pure
  :class:`~repro.fleet.admission.AdmissionController`: over-budget
  starts are queued or shed by priority, never silently over-admitted.
- **Crash consistency** — fleet state journals through the PR-2 WAL
  with a redo-logging discipline: a slot's effects are re-derivable
  until its ``fleet_slot`` commit record lands, and every side effect
  below the fleet (engine submits, ticks, transitions) journals in the
  experiment's own WAL first.  :func:`repro.fleet.recovery.recover_fleet`
  rebuilds a killed orchestrator to a state property-tested equal to an
  uncrashed run.
- **Watchdog** — a :class:`~repro.fleet.watchdog.FleetWatchdog` pauses
  admissions or sheds low-priority experiments on degraded substrate
  health, and a hard fleet deadline (``grace_slots`` past the horizon)
  bounds how long repeats and recoveries can hold the fleet open.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.bifrost.checks import CheckEvaluator
from repro.bifrost.engine import BifrostEngine
from repro.bifrost.journal import Journal, SnapshotStore
from repro.bifrost.model import (
    Check,
    Phase,
    PhaseType,
    Strategy,
    StrategyOutcome,
)
from repro.bifrost.recovery import EngineSupervisor, RestartPolicy
from repro.errors import ExecutionError, ValidationError
from repro.fenrir.model import ExperimentSpec
from repro.fenrir.schedule import Gene, Schedule
from repro.fleet.admission import (
    AdmissionController,
    AdmissionRequest,
    usage_within_budget,
)
from repro.fleet.traffic import SlotTrafficFeed
from repro.fleet.watchdog import FleetWatchdog
from repro.microservices.application import Application
from repro.microservices.service import EndpointSpec, ServiceVersion
from repro.simulation.latency import ConstantLatency
from repro.obs.events import (
    FLEET_EXPERIMENT_CRASHED,
    FLEET_EXPERIMENT_OUTCOME,
    FLEET_EXPERIMENT_RESTARTED,
    FLEET_FINISHED,
    FLEET_PLANNED,
    FLEET_SHED,
    FLEET_SLOT_COMMITTED,
    FLEET_SLOT_STARTED,
)
from repro.obs.alerts import AlertEngine, AlertRule
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.routing.proxy import VersionRouter
from repro.simulation.engine import SimulationEngine
from repro.telemetry.store import MetricStore

#: Fleet WAL record kinds (the fleet journal reuses the PR-2 Journal).
K_PLANNED = "fleet_planned"
K_SLOT_STARTED = "fleet_slot_started"
K_DECISION = "fleet_decision"
K_SLOT = "fleet_slot"
K_RECOVERED = "fleet_recovered"
K_FINISHED = "fleet_finished"

#: Fleet WAL document format version.
FLEET_FORMAT = 1

#: Version labels every fleet experiment's service carries.
STABLE_VERSION = "1.0.0"
EXPERIMENTAL_VERSION = "2.0.0"

#: Terminal fleet outcomes (the reevaluation vocabulary).
OUTCOME_PROMOTED = "promoted"
OUTCOME_ROLLED_BACK = "rolled_back"
OUTCOME_ABORTED = "aborted"
OUTCOME_INCONCLUSIVE = "inconclusive"
OUTCOME_SHED = "shed"

_ENGINE_OUTCOMES = {
    StrategyOutcome.COMPLETED: OUTCOME_PROMOTED,
    StrategyOutcome.ROLLED_BACK: OUTCOME_ROLLED_BACK,
    StrategyOutcome.ABORTED: OUTCOME_ABORTED,
}

#: Shed reasons the orchestrator itself produces (admission adds its own).
SHED_CRASH_LOOP = "crash_loop"
SHED_HEALTH = "health"
SHED_FLEET_DEADLINE = "fleet_deadline"
SHED_BURN = "slo_burn"


class OrchestratorKilled(Exception):
    """The simulated process kill used by crash-consistency tests.

    Raised *before* the Nth fleet-WAL append, modelling a process that
    died with N-1 records durable.  Not caught anywhere in the fleet:
    it must unwind through every bulkhead untouched.
    """


class FleetPoison(Exception):
    """An injected hard check crash (not an absorbable ExecutionError)."""


@dataclass(frozen=True)
class ExperimentFaults:
    """Faults injected into one experiment's bulkhead.

    Attributes:
        check_error_slots: slots whose check evaluations raise
            :class:`~repro.errors.ExecutionError` — the engine absorbs
            these as inconclusive check results.
        poison_slots: slots whose check evaluations raise a hard
            :class:`FleetPoison` — only the bulkhead stands between this
            and the rest of the fleet.
        crash_slots: slots where the engine crashes at slot start and is
            restarted (journal replay + catch-up) at slot end.
        crash_loop: crash at *every* slot start while running; the
            supervisor restarts until its budget refuses, at which point
            the fleet sheds the experiment.
    """

    check_error_slots: tuple[int, ...] = ()
    poison_slots: tuple[int, ...] = ()
    crash_slots: tuple[int, ...] = ()
    crash_loop: bool = False

    def to_dict(self) -> dict:
        return {
            "check_error_slots": list(self.check_error_slots),
            "poison_slots": list(self.poison_slots),
            "crash_slots": list(self.crash_slots),
            "crash_loop": self.crash_loop,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ExperimentFaults":
        try:
            return cls(
                check_error_slots=tuple(int(s) for s in data["check_error_slots"]),
                poison_slots=tuple(int(s) for s in data["poison_slots"]),
                crash_slots=tuple(int(s) for s in data["crash_slots"]),
                crash_loop=bool(data["crash_loop"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed experiment faults: {exc}") from exc

    def crashes_at(self, slot: int) -> bool:
        return self.crash_loop or slot in self.crash_slots


@dataclass(frozen=True)
class FleetConfig:
    """Execution parameters of one fleet run.

    Attributes:
        slot_seconds: simulated seconds per Fenrir traffic slot.
        budget: per-(slot, group) admitted traffic cap.
        max_defer_slots: queued slots before admission sheds as starved.
        grace_slots: slots past the schedule horizon before the fleet
            deadline sheds everything still running.
        check_interval_seconds / check_window_seconds / check_threshold:
            the per-experiment error gate's cadence, window, and bound.
        base_error: ambient error rate of healthy versions.
        max_repeats: inconclusive repeats each experiment phase gets.
        restart_max / restart_window_slots: each bulkhead's
            :class:`~repro.bifrost.recovery.RestartPolicy` budget; the
            window converts to seconds on the experiment's clock.
        bulkheads: fault isolation on (the safe default); off, one
            experiment's hard fault aborts the fleet — kept only so the
            scenario fuzzer can demonstrate the contamination.
        slo_objective: error-budget SLO target in (0, 1) for each
            experiment's burn-rate rule (None disables burn-rate
            shedding); a burning experiment is shed with reason
            ``slo_burn`` before its deadline.
        slo_fast_window_seconds / slo_slow_window_seconds /
            slo_burn_threshold: the multi-window burn-rate rule's
            parameters (see :class:`repro.obs.alerts.AlertRule`).
        seed: root seed of the deterministic traffic feed.
    """

    slot_seconds: float = 60.0
    budget: float = 1.0
    max_defer_slots: int = 4
    grace_slots: int = 8
    check_interval_seconds: float = 10.0
    check_window_seconds: float = 30.0
    check_threshold: float = 0.10
    base_error: float = 0.02
    max_repeats: int = 1
    restart_max: int = 3
    restart_window_slots: int | None = None
    bulkheads: bool = True
    slo_objective: float | None = None
    slo_fast_window_seconds: float = 30.0
    slo_slow_window_seconds: float = 120.0
    slo_burn_threshold: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.slot_seconds <= 0:
            raise ValidationError("slot_seconds must be positive")
        if self.grace_slots < 0:
            raise ValidationError("grace_slots must be >= 0")
        if self.budget <= 0:
            raise ValidationError("budget must be positive")
        if self.max_defer_slots < 0:
            raise ValidationError("max_defer_slots must be >= 0")
        if self.check_interval_seconds <= 0 or self.check_window_seconds <= 0:
            raise ValidationError("check cadence and window must be positive")
        if self.max_repeats < 0:
            raise ValidationError("max_repeats must be >= 0")
        if self.restart_max < 0:
            raise ValidationError("restart_max must be >= 0")
        if self.slo_objective is not None and not 0.0 < self.slo_objective < 1.0:
            raise ValidationError("slo_objective must be in (0, 1)")
        if self.slo_fast_window_seconds <= 0 or self.slo_slow_window_seconds <= 0:
            raise ValidationError("slo windows must be positive")
        if self.slo_slow_window_seconds < self.slo_fast_window_seconds:
            raise ValidationError("slo_slow_window_seconds must be >= fast")
        if self.slo_burn_threshold <= 0:
            raise ValidationError("slo_burn_threshold must be positive")

    def to_dict(self) -> dict:
        return {
            "slot_seconds": self.slot_seconds,
            "budget": self.budget,
            "max_defer_slots": self.max_defer_slots,
            "grace_slots": self.grace_slots,
            "check_interval_seconds": self.check_interval_seconds,
            "check_window_seconds": self.check_window_seconds,
            "check_threshold": self.check_threshold,
            "base_error": self.base_error,
            "max_repeats": self.max_repeats,
            "restart_max": self.restart_max,
            "restart_window_slots": self.restart_window_slots,
            "bulkheads": self.bulkheads,
            "slo_objective": self.slo_objective,
            "slo_fast_window_seconds": self.slo_fast_window_seconds,
            "slo_slow_window_seconds": self.slo_slow_window_seconds,
            "slo_burn_threshold": self.slo_burn_threshold,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "FleetConfig":
        # Tolerant of missing keys so WALs written before a config field
        # existed still recover with that field's default.
        defaults = cls().to_dict()
        try:
            return cls(**{k: data.get(k, default) for k, default in defaults.items()})
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed fleet config: {exc}") from exc


@dataclass(frozen=True)
class SlotLedger:
    """Everything one committed slot did — the fleet's audit record."""

    slot: int
    started: tuple[str, ...]
    admitted: tuple[str, ...]
    queued: tuple[str, ...]
    shed: tuple[tuple[str, str], ...]
    crashed: tuple[str, ...]
    restarted: tuple[str, ...]
    failed: tuple[tuple[str, str], ...]
    outcomes: tuple[tuple[str, str], ...]
    usage: tuple[tuple[str, float], ...]
    paused: bool
    health: float | None

    def digest(self) -> tuple:
        return (
            self.slot,
            self.started,
            self.admitted,
            self.queued,
            self.shed,
            self.crashed,
            self.restarted,
            self.failed,
            self.outcomes,
            tuple((g, round(u, 9)) for g, u in self.usage),
            self.paused,
            self.health,
        )

    def to_dict(self) -> dict:
        return {
            "slot": self.slot,
            "started": list(self.started),
            "admitted": list(self.admitted),
            "queued": list(self.queued),
            "shed": [list(pair) for pair in self.shed],
            "crashed": list(self.crashed),
            "restarted": list(self.restarted),
            "failed": [list(pair) for pair in self.failed],
            "outcomes": [list(pair) for pair in self.outcomes],
            "usage": [list(pair) for pair in self.usage],
            "paused": self.paused,
            "health": self.health,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SlotLedger":
        try:
            return cls(
                slot=int(data["slot"]),
                started=tuple(data["started"]),
                admitted=tuple(data["admitted"]),
                queued=tuple(data["queued"]),
                shed=tuple((n, r) for n, r in data["shed"]),
                crashed=tuple(data["crashed"]),
                restarted=tuple(data["restarted"]),
                failed=tuple((n, e) for n, e in data["failed"]),
                outcomes=tuple((n, o) for n, o in data["outcomes"]),
                usage=tuple((g, float(u)) for g, u in data["usage"]),
                paused=bool(data["paused"]),
                health=None if data["health"] is None else float(data["health"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed slot ledger: {exc}") from exc


@dataclass
class FleetResult:
    """Final state of one fleet run.

    ``recovered`` is deliberately excluded from :meth:`digest`: the
    crash-consistency contract is that a recovered run is
    indistinguishable from an uncrashed one *except* for knowing it
    recovered.
    """

    outcomes: dict[str, str]
    ledger: list[SlotLedger] = field(default_factory=list)
    sheds: dict[str, str] = field(default_factory=dict)
    restarts: dict[str, int] = field(default_factory=dict)
    slots_run: int = 0
    aborted: bool = False
    recovered: bool = False

    def digest(self) -> tuple:
        return (
            tuple(sorted(self.outcomes.items())),
            tuple(row.digest() for row in self.ledger),
            tuple(sorted(self.sheds.items())),
            tuple(sorted(self.restarts.items())),
            self.slots_run,
            self.aborted,
        )


def service_of(experiment: str) -> str:
    """Service name an experiment's versions deploy under."""
    return f"svc-{experiment}"


def fleet_strategy(
    name: str, service: str, gene: Gene, config: FleetConfig
) -> Strategy:
    """One-phase canary gated on the experimental error rate.

    Duration tracks the Fenrir gene (``duration`` slots), the fraction
    is the gene's planned traffic share, and the audience is the gene's
    user groups — the schedule's reservation, made executable.
    """
    check = Check(
        name="error-gate",
        service=service,
        version=EXPERIMENTAL_VERSION,
        metric="error",
        aggregation="mean",
        operator="<=",
        threshold=config.check_threshold,
        window_seconds=config.check_window_seconds,
        interval_seconds=config.check_interval_seconds,
    )
    phase = Phase(
        name="canary",
        type=PhaseType.CANARY,
        service=service,
        stable_version=STABLE_VERSION,
        experimental_version=EXPERIMENTAL_VERSION,
        fraction=min(0.99, gene.fraction),
        audience_groups=frozenset(gene.groups),
        duration_seconds=gene.duration * config.slot_seconds,
        check_interval_seconds=config.check_interval_seconds,
        checks=(check,),
        max_repeats=config.max_repeats,
    )
    return Strategy(name=name, phases=(phase,))


class _FaultableEvaluator:
    """Check evaluator wrapper that injects per-slot faults."""

    def __init__(
        self,
        inner: CheckEvaluator,
        faults: ExperimentFaults,
        slot_seconds: float,
        name: str,
    ) -> None:
        self.inner = inner
        self.faults = faults
        self.slot_seconds = slot_seconds
        self.name = name

    def evaluate(self, check: Check, now: float):
        slot = int(now // self.slot_seconds)
        if slot in self.faults.poison_slots:
            raise FleetPoison(
                f"poisoned check evaluation for {self.name!r} at slot {slot}"
            )
        if slot in self.faults.check_error_slots:
            raise ExecutionError(
                f"injected check failure for {self.name!r} at slot {slot}"
            )
        return self.inner.evaluate(check, now)


class _Bulkhead:
    """One experiment's isolated execution cell.

    Owns the clock, stores, router, WAL, and supervisor — everything
    whose corruption must stay local to this experiment.
    """

    def __init__(
        self,
        name: str,
        spec: ExperimentSpec,
        gene: Gene,
        application: Application,
        config: FleetConfig,
        faults: ExperimentFaults,
        journal: Journal,
        observer: Observer,
    ) -> None:
        self.name = name
        self.spec = spec
        self.gene = gene
        self.service = service_of(name)
        self.application = application
        self.config = config
        self.faults = faults
        self.sim = SimulationEngine()
        self.journal = journal
        self.snapshots = SnapshotStore()
        self.store = MetricStore()
        self.router = VersionRouter()
        self.strategy = fleet_strategy(name, self.service, gene, config)
        self.quarantined = False
        # Burn-rate sentinel over this experiment's own error stream.
        # publish=False: the gate samples would land in the bulkhead's
        # store and perturb crash-recovery store equality; the fleet
        # consumes verdicts directly via the watchdog instead.
        self.alerts: AlertEngine | None = None
        if config.slo_objective is not None:
            self.alerts = AlertEngine(
                self.store,
                [
                    AlertRule(
                        name=f"{name}-slo",
                        service=self.service,
                        version=EXPERIMENTAL_VERSION,
                        objective=config.slo_objective,
                        fast_window=config.slo_fast_window_seconds,
                        slow_window=config.slo_slow_window_seconds,
                        burn_threshold=config.slo_burn_threshold,
                    )
                ],
                observer=observer,
                publish=False,
            )
        window = (
            None
            if config.restart_window_slots is None
            else config.restart_window_slots * config.slot_seconds
        )
        self.supervisor = EngineSupervisor(
            self._build_engine,
            self.journal,
            self.snapshots,
            policy=RestartPolicy(
                max_restarts=config.restart_max, window_seconds=window
            ),
            observer=observer,
        )

    def _build_engine(self) -> BifrostEngine:
        engine = BifrostEngine(
            self.sim,
            self.application,
            self.router,
            self.store,
            journal=self.journal,
            snapshots=self.snapshots,
        )
        engine.evaluator = _FaultableEvaluator(
            CheckEvaluator(self.store),
            self.faults,
            self.config.slot_seconds,
            self.name,
        )
        engine.alerts = self.alerts
        return engine

    @property
    def engine(self) -> BifrostEngine:
        return self.supervisor.engine

    @property
    def submitted(self) -> bool:
        return any(e.strategy.name == self.name for e in self.engine.executions)

    def engine_outcome(self) -> str | None:
        """Terminal fleet outcome of this bulkhead's engine, if any."""
        for execution in self.engine.executions:
            if execution.strategy.name == self.name:
                return _ENGINE_OUTCOMES.get(execution.outcome)
        return None


@dataclass
class _ResumeState:
    """Committed fleet state recover_fleet folds out of the WAL."""

    cursor: int = 0
    started: set[str] = field(default_factory=set)
    outcomes: dict[str, str] = field(default_factory=dict)
    sheds: dict[str, str] = field(default_factory=dict)
    restarts: dict[str, int] = field(default_factory=dict)
    restart_times: dict[str, list[float]] = field(default_factory=dict)
    deferrals: dict[str, int] = field(default_factory=dict)
    ledger: list[SlotLedger] = field(default_factory=list)
    aborted: bool = False


class FleetOrchestrator:
    """Executes a Fenrir schedule as a supervised Bifrost fleet."""

    def __init__(
        self,
        schedule: Schedule,
        world: Mapping[str, float] | None = None,
        faults: Mapping[str, ExperimentFaults] | None = None,
        config: FleetConfig | None = None,
        observer: Observer | None = None,
        watchdog: FleetWatchdog | None = None,
        fleet_journal: Journal | None = None,
        journal_factory: Callable[[str], Journal] | None = None,
        crash_after_appends: int | None = None,
        _resume: _ResumeState | None = None,
    ) -> None:
        self.schedule = schedule
        self.problem = schedule.problem
        self.config = config or FleetConfig()
        self.world = dict(world or {})
        self.faults = dict(faults or {})
        self.obs = observer or NULL_OBSERVER
        self.watchdog = watchdog or FleetWatchdog()
        self.journal = fleet_journal or Journal()
        self.journal_factory = journal_factory or (lambda name: Journal())
        self.crash_after_appends = crash_after_appends
        self._fleet_appends = 0

        #: Every experiment's name, in schedule order.
        self.names = tuple(spec.name for spec, _ in schedule)
        for name in self.world:
            if name not in self.names:
                raise ValidationError(f"world entry for unknown experiment {name!r}")
        for name in self.faults:
            if name not in self.names:
                raise ValidationError(f"faults entry for unknown experiment {name!r}")

        self.admission = AdmissionController(
            self.problem.group_names,
            budget=self.config.budget,
            max_defer=self.config.max_defer_slots,
        )
        self.feed = SlotTrafficFeed(
            self.problem,
            seed=self.config.seed,
            slot_seconds=self.config.slot_seconds,
            base_error=self.config.base_error,
        )
        self.application = self._build_application()
        self.bulkheads: dict[str, _Bulkhead] = {}
        for spec, gene in schedule:
            self.bulkheads[spec.name] = _Bulkhead(
                spec.name,
                spec,
                gene,
                self.application,
                self.config,
                self.faults.get(spec.name, ExperimentFaults()),
                self.journal_factory(spec.name),
                self.obs,
            )

        if self.watchdog.burning_of is None and any(
            b.alerts is not None for b in self.bulkheads.values()
        ):
            self.watchdog.burning_of = self._burning_experiments

        state = _resume or _ResumeState()
        self.cursor = state.cursor
        self.started = set(state.started)
        self.outcomes = dict(state.outcomes)
        self.sheds = dict(state.sheds)
        self.restarts = dict(state.restarts)
        self.deferrals = dict(state.deferrals)
        self.ledger = list(state.ledger)
        self.aborted = state.aborted
        self.recovered = _resume is not None

        if _resume is None:
            self._append(
                K_PLANNED,
                0.0,
                {
                    "format": FLEET_FORMAT,
                    "config": self.config.to_dict(),
                    "world": dict(sorted(self.world.items())),
                    "faults": {
                        name: f.to_dict()
                        for name, f in sorted(self.faults.items())
                    },
                    "schedule": _schedule_doc(schedule),
                },
            )
            if self.obs.enabled:
                self.obs.emit(
                    FLEET_PLANNED,
                    0.0,
                    experiments=len(self.bulkheads),
                    horizon=self.problem.horizon,
                    budget=self.config.budget,
                )

    # -- construction helpers ------------------------------------------------

    def _build_application(self) -> Application:
        app = Application()
        for spec, _ in self.schedule:
            service = service_of(spec.name)
            endpoints = {
                "handle": EndpointSpec("handle", latency=ConstantLatency(10.0))
            }
            app.deploy(
                ServiceVersion(service, STABLE_VERSION, endpoints), stable=True
            )
            app.deploy(ServiceVersion(service, EXPERIMENTAL_VERSION, endpoints))
        return app

    def _append(self, kind: str, time: float, data: dict) -> None:
        """Fleet-WAL append — the only kill points crash tests exercise."""
        if (
            self.crash_after_appends is not None
            and self._fleet_appends >= self.crash_after_appends
        ):
            raise OrchestratorKilled(
                f"orchestrator killed before fleet append "
                f"#{self._fleet_appends + 1} ({kind} @ {time})"
            )
        self._fleet_appends += 1
        self.journal.append(kind, time, data)

    # -- state queries -------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.aborted or all(name in self.outcomes for name in self.names)

    def _holding(self) -> list[str]:
        """Experiments currently holding a traffic reservation."""
        return [
            name
            for name in self.names
            if name in self.started and name not in self.outcomes
        ]

    def _burning_experiments(self, slot: int) -> tuple[str, ...]:
        """Holding experiments whose burn-rate SLO is firing at *slot*.

        Pure in (bulkhead stores, slot) — the alert engines evaluate
        multi-window burns from store contents alone, so recovery from a
        WAL reaches the same verdicts and crash-consistency holds.
        """
        now = slot * self.config.slot_seconds
        burning = []
        for name in self._holding():
            bulkhead = self.bulkheads[name]
            if bulkhead.alerts is None or bulkhead.quarantined:
                continue
            evaluations = bulkhead.alerts.evaluate(now)
            if any(evaluation.firing for evaluation in evaluations):
                burning.append(name)
        return tuple(sorted(burning))

    def _request_for(self, bulkhead: _Bulkhead, slot: int) -> AdmissionRequest:
        gene, spec = bulkhead.gene, bulkhead.spec
        latest = max(gene.start, self.problem.horizon - gene.duration)
        return AdmissionRequest(
            name=bulkhead.name,
            fraction=gene.fraction,
            groups=tuple(sorted(gene.groups)),
            weight=spec.weight,
            latest_start=latest,
            deferrals=self.deferrals.get(bulkhead.name, 0),
        )

    # -- slot execution ------------------------------------------------------

    def run(self) -> FleetResult:
        """Advance slots until every experiment reached a terminal outcome."""
        while not self.done:
            self.advance_slot()
        t = self.cursor * self.config.slot_seconds
        self._append(
            K_FINISHED, t, {"outcomes": dict(sorted(self.outcomes.items()))}
        )
        if self.obs.enabled:
            self.obs.emit(
                FLEET_FINISHED,
                t,
                slots=self.cursor,
                outcomes=dict(sorted(self.outcomes.items())),
                shed=len(self.sheds),
            )
        return self.result()

    def result(self) -> FleetResult:
        return FleetResult(
            outcomes=dict(self.outcomes),
            ledger=list(self.ledger),
            sheds=dict(self.sheds),
            restarts=dict(self.restarts),
            slots_run=self.cursor,
            aborted=self.aborted,
            recovered=self.recovered,
        )

    def advance_slot(self) -> None:
        """Run one slot: admit, feed, advance every bulkhead, commit."""
        slot = self.cursor
        t0 = slot * self.config.slot_seconds
        t1 = t0 + self.config.slot_seconds
        cfg = self.config
        self._append(K_SLOT_STARTED, t0, {"slot": slot})
        if self.obs.enabled:
            self.obs.emit(FLEET_SLOT_STARTED, t0, slot=slot)

        slot_shed: list[tuple[str, str]] = []
        slot_outcomes: dict[str, str] = {}

        # Fleet deadline: past the grace window nothing may keep running.
        deadline = self.problem.horizon + cfg.grace_slots
        if slot >= deadline:
            for name in self.names:
                if name not in self.outcomes:
                    self._shed(name, SHED_FLEET_DEADLINE, t0, slot_shed, slot_outcomes)
            self._commit(
                slot, t1,
                started=(), admitted=(), queued=(),
                shed=slot_shed, crashed=(), restarted=(), failed=(),
                outcomes=slot_outcomes, usage=(), paused=False, health=None,
            )
            return

        verdict = self.watchdog.assess(slot)
        if verdict.shed:
            holders = self._holding()
            if holders:
                victim = min(
                    holders, key=lambda n: (self.bulkheads[n].spec.weight, n)
                )
                self._shed(victim, SHED_HEALTH, t0, slot_shed, slot_outcomes)

        # Burn-rate shedding: an experiment torching its own error
        # budget is cut before its deadline, however healthy the
        # substrate looks.
        for name in verdict.burning:
            if name in self.started and name not in slot_outcomes and (
                name not in self.outcomes
            ):
                self._shed(name, SHED_BURN, t0, slot_shed, slot_outcomes)

        # Admission: pending experiments whose planned start has arrived.
        reserved = [
            self._request_for(self.bulkheads[name], slot)
            for name in self._holding()
        ]
        pending = [
            self._request_for(bulkhead, slot)
            for name, bulkhead in self.bulkheads.items()
            if name not in self.started
            and name not in self.outcomes
            and bulkhead.gene.start <= slot
        ]
        decision = self.admission.decide(
            slot, pending, reserved, paused=verdict.pause
        )
        assert usage_within_budget(dict(decision.usage), cfg.budget), (
            f"admission over-admitted slot {slot}: {decision.usage}"
        )
        for name, reason in decision.shed:
            self._shed(name, reason, t0, slot_shed, slot_outcomes)
        for name in decision.queued:
            self.deferrals[name] = self.deferrals.get(name, 0) + 1
        started_now: list[str] = []
        for name in decision.admitted:
            bulkhead = self.bulkheads[name]
            if not bulkhead.submitted:  # recovery may have re-adopted it
                bulkhead.engine.submit(bulkhead.strategy, at=t0)
            self.started.add(name)
            started_now.append(name)
        self._append(
            K_DECISION,
            t0,
            {
                "slot": slot,
                "admitted": list(decision.admitted),
                "queued": list(decision.queued),
                "shed": [list(pair) for pair in decision.shed],
                "usage": [list(pair) for pair in decision.usage],
                "paused": verdict.pause,
            },
        )

        # The fed set: every reservation-holder this slot (new + running).
        # The ledger journals THIS list — recovery re-feeds exactly it.
        holders = self._holding()

        # Injected engine crashes land at slot start: the engine misses
        # the whole slot and catch-up replay covers it at restart.
        crashed: list[str] = []
        for name in holders:
            bulkhead = self.bulkheads[name]
            if bulkhead.faults.crashes_at(slot) and bulkhead.engine.alive:
                bulkhead.supervisor.crash(t0)
                crashed.append(name)
                if self.obs.enabled:
                    self.obs.emit(
                        FLEET_EXPERIMENT_CRASHED, t0, experiment=name, slot=slot
                    )

        # Shared traffic: every reservation-holder observes its slice,
        # whether or not its engine is up (telemetry outlives engines).
        for name in holders:
            bulkhead = self.bulkheads[name]
            self.feed.feed(
                bulkhead.store,
                name,
                slot,
                bulkhead.gene.fraction,
                tuple(sorted(bulkhead.gene.groups)),
                bulkhead.service,
                STABLE_VERSION,
                EXPERIMENTAL_VERSION,
                error_delta=self.world.get(name, 0.0),
            )

        # Advance every bulkhead's clock in lockstep.  The try/except IS
        # the bulkhead: a hard fault stops this experiment's clock only.
        failed: list[tuple[str, str]] = []
        for name in holders:
            bulkhead = self.bulkheads[name]
            try:
                bulkhead.sim.run_until(t1)
            except OrchestratorKilled:
                raise
            except Exception as exc:
                if not cfg.bulkheads:
                    self._abort_fleet(slot, t1, name, exc, slot_outcomes, failed)
                    self._commit(
                        slot, t1,
                        started=started_now, admitted=holders,
                        queued=decision.queued, shed=slot_shed,
                        crashed=crashed, restarted=(), failed=failed,
                        outcomes=slot_outcomes, usage=decision.usage,
                        paused=verdict.pause, health=verdict.score,
                    )
                    return
                bulkhead.quarantined = True
                if bulkhead.engine.alive:
                    bulkhead.engine.kill()
                failed.append((name, f"{type(exc).__name__}: {exc}"))
                slot_outcomes[name] = OUTCOME_INCONCLUSIVE
                self.outcomes[name] = OUTCOME_INCONCLUSIVE

        # Restart crashed engines at slot end; a refused restart means
        # the budget is spent — the fleet sheds the crash-looper.  (Past
        # admission ``started`` is fixed: holding = holders without outcome.)
        restarted: list[str] = []
        for name in [name for name in holders if name not in self.outcomes]:
            bulkhead = self.bulkheads[name]
            if bulkhead.quarantined or bulkhead.engine.alive:
                continue
            bulkhead.supervisor.restart(t1)
            if bulkhead.supervisor.gave_up:
                self._shed(name, SHED_CRASH_LOOP, t1, slot_shed, slot_outcomes)
            else:
                restarted.append(name)
                self.restarts[name] = self.restarts.get(name, 0) + 1
                if self.obs.enabled:
                    self.obs.emit(
                        FLEET_EXPERIMENT_RESTARTED,
                        t1,
                        experiment=name,
                        slot=slot,
                        restarts=self.restarts[name],
                    )

        # Harvest newly-terminal engine outcomes.
        for name in [name for name in holders if name not in self.outcomes]:
            outcome = self.bulkheads[name].engine_outcome()
            if outcome is not None:
                slot_outcomes[name] = outcome
                self.outcomes[name] = outcome
                if self.obs.enabled:
                    self.obs.emit(
                        FLEET_EXPERIMENT_OUTCOME,
                        t1,
                        experiment=name,
                        outcome=outcome,
                        slot=slot,
                    )

        self._commit(
            slot, t1,
            started=started_now, admitted=holders,
            queued=decision.queued, shed=slot_shed, crashed=crashed,
            restarted=restarted, failed=failed, outcomes=slot_outcomes,
            usage=decision.usage, paused=verdict.pause, health=verdict.score,
        )

    # -- slot bookkeeping ----------------------------------------------------

    def _shed(
        self,
        name: str,
        reason: str,
        time: float,
        slot_shed: list[tuple[str, str]],
        slot_outcomes: dict[str, str],
    ) -> None:
        """Drop one experiment from the plan — reported, never silent."""
        bulkhead = self.bulkheads[name]
        if name in self.started and bulkhead.engine.alive:
            try:
                bulkhead.engine.cancel(name)
            except ExecutionError:
                pass  # never submitted on this engine incarnation
        self.outcomes[name] = OUTCOME_SHED
        self.sheds[name] = reason
        slot_outcomes[name] = OUTCOME_SHED
        slot_shed.append((name, reason))
        if self.obs.enabled:
            self.obs.emit(FLEET_SHED, time, experiment=name, reason=reason)
            self.obs.metrics.counter("fleet_shed_total", reason=reason).increment()

    def _abort_fleet(
        self,
        slot: int,
        time: float,
        culprit: str,
        exc: Exception,
        slot_outcomes: dict[str, str],
        failed: list[tuple[str, str]],
    ) -> None:
        """No bulkheads: one hard fault takes the whole fleet down."""
        failed.append((culprit, f"{type(exc).__name__}: {exc}"))
        self.aborted = True
        for name in self.names:
            if name not in self.outcomes:
                self.outcomes[name] = OUTCOME_INCONCLUSIVE
                slot_outcomes[name] = OUTCOME_INCONCLUSIVE

    def _commit(
        self,
        slot: int,
        time: float,
        started,
        admitted,
        queued,
        shed,
        crashed,
        restarted,
        failed,
        outcomes,
        usage,
        paused,
        health,
    ) -> None:
        row = SlotLedger(
            slot=slot,
            started=tuple(started),
            admitted=tuple(admitted),
            queued=tuple(queued),
            shed=tuple(shed),
            crashed=tuple(crashed),
            restarted=tuple(restarted),
            failed=tuple(failed),
            outcomes=tuple(sorted(outcomes.items())),
            usage=tuple(usage),
            paused=bool(paused),
            health=health,
        )
        doc = row.to_dict()
        doc["deferrals"] = dict(sorted(self.deferrals.items()))
        doc["aborted"] = self.aborted
        self._append(K_SLOT, time, doc)
        self.ledger.append(row)
        self.cursor = slot + 1
        if self.obs.enabled:
            running = len(self._holding())
            self.obs.emit(
                FLEET_SLOT_COMMITTED,
                time,
                slot=slot,
                running=running,
                terminal=len(self.outcomes),
            )
            self.obs.metrics.gauge("fleet_running").set(float(running))
            self.obs.metrics.counter("fleet_slots_total").increment()


def _schedule_doc(schedule: Schedule) -> dict:
    from repro.fenrir.serialize import schedule_to_dict

    return schedule_to_dict(schedule)


def _schedule_from_doc(data: Mapping) -> Schedule:
    from repro.fenrir.serialize import schedule_from_dict

    return schedule_from_dict(dict(data))


def fleet_outcomes_for_reevaluation(result: FleetResult) -> dict[str, str]:
    """The outcome mapping :func:`build_reevaluation_from_fleet` accepts."""
    return dict(result.outcomes)


__all__ = [
    "EXPERIMENTAL_VERSION",
    "ExperimentFaults",
    "FLEET_FORMAT",
    "FleetConfig",
    "FleetOrchestrator",
    "FleetPoison",
    "FleetResult",
    "K_DECISION",
    "K_FINISHED",
    "K_PLANNED",
    "K_RECOVERED",
    "K_SLOT",
    "K_SLOT_STARTED",
    "OrchestratorKilled",
    "SHED_BURN",
    "SHED_CRASH_LOOP",
    "SHED_FLEET_DEADLINE",
    "SHED_HEALTH",
    "OUTCOME_ABORTED",
    "OUTCOME_INCONCLUSIVE",
    "OUTCOME_PROMOTED",
    "OUTCOME_ROLLED_BACK",
    "OUTCOME_SHED",
    "STABLE_VERSION",
    "SlotLedger",
    "fleet_outcomes_for_reevaluation",
    "fleet_strategy",
    "service_of",
]

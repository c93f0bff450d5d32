"""The Bifrost execution engine (Section 4.4).

The engine owns strategy executions: it installs routing configurations
when a phase starts, periodically evaluates the phase's checks, and
enacts the conditional chaining — advancing to the next phase on success,
rolling back on failure, and re-executing on inconclusive data.

The engine does not price its own work.  :func:`engine_load` folds the
journal the engine writes (check rounds, route installs, teardowns) onto
a :class:`~repro.simulation.executor.SimulatedExecutor` at fixed prices,
which yields the CPU-utilization and check-delay figures of Figs 4.7–4.10.

When wired with a write-ahead journal (:mod:`repro.bifrost.journal`),
every durable decision — submissions, phase entries, check rounds,
transitions, route installs, finalizations — is appended to the log,
and snapshots are taken on the journal's cadence.  A decision that
changes a :class:`StrategyExecution` goes through the execution's
reducer methods first and is journaled second, so a snapshot taken on
any append already holds that record; recovery folds the journal
through the same methods.  A killed engine
(:meth:`BifrostEngine.kill`) stops processing events;
:meth:`BifrostEngine.adopt` lets a recovered successor resume
executions, replaying decision points missed during the outage at their
*original* simulated timestamps so the recovered timeline matches the
crash-free one.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Sequence

from repro.errors import ExecutionError, ValidationError
from repro.bifrost.checks import CheckEvaluator, CheckResult
from repro.bifrost.model import (
    Check,
    HEALTH_CHECK_KIND,
    REPEAT,
    TERMINAL_ABORT,
    TERMINAL_COMPLETE,
    TERMINAL_ROLLBACK,
    TERMINAL_STATES,
    Action,
    CheckOutcome,
    Phase,
    PhaseType,
    Strategy,
    StrategyOutcome,
    check_to_dict,
    strategy_to_dict,
)
from repro.bifrost.state_machine import StateMachine
from repro.microservices.application import Application
from repro.obs.events import (
    DECISION_RECORDED,
    ENGINE_CHECK,
    ENGINE_FINALIZED,
    ENGINE_PHASE_ENTERED,
    ENGINE_ROLLOUT,
    ENGINE_ROUTE,
    ENGINE_SUBMITTED,
    ENGINE_TRANSITION,
    ENGINE_WINNER,
    JOURNAL_SNAPSHOT,
)
from repro.obs.canonical import dump, number, quote
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.obs.provenance import evidence_margin
from repro.routing.proxy import VersionRouter
from repro.routing.rules import AudienceFilter, ExperimentRoute
from repro.routing.splitter import (
    ab_split,
    canary_split,
    dark_launch_split,
    rollout_split,
)
from repro.simulation.engine import SimulationEngine
from repro.simulation.executor import SimulatedExecutor
from repro.telemetry.store import MetricStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.bifrost.journal import Journal, JournalRecord, SnapshotStore
    from repro.obs.alerts import AlertEngine
    from repro.obs.events import Event
    from repro.toggles.store import ToggleStore

_OUTCOME_FOR_TERMINAL = {
    TERMINAL_COMPLETE: StrategyOutcome.COMPLETED,
    TERMINAL_ROLLBACK: StrategyOutcome.ROLLED_BACK,
    TERMINAL_ABORT: StrategyOutcome.ABORTED,
}
_ACTION_FOR_TERMINAL = {
    TERMINAL_COMPLETE: Action.PROMOTE,
    TERMINAL_ROLLBACK: Action.ROLLBACK,
    TERMINAL_ABORT: Action.ABORT,
}


def tick_payload(strategy: str, phase: str, rows, errors: int) -> str:
    """A ``tick`` payload's canonical text, written from a template: equal to
    ``dump({"strategy", "phase", "errors", "checks": [{"check":
    check_to_dict(check), "next_due", "observed", "outcome", "reference"}]})``
    for *rows* of (the check's memoised canonical text, its result, next due).
    """
    checks = ",".join(
        '{"check":%s,"next_due":%s,"observed":%s,"outcome":%s,"reference":%s}'
        % (text, number(due), number(result.observed),
           quote(result.outcome.value), number(result.reference))
        for text, result, due in rows
    )
    return '{"checks":[%s],"errors":%d,"phase":%s,"strategy":%s}' % (
        checks, errors, quote(phase), quote(strategy)
    )


#: Prices of journaled engine work, in simulated seconds.  Calibrated so
#: that a handful of strategies is effectively free while hundreds of
#: strategies with many checks approach saturation of the single-threaded
#: engine — the regime the paper probes.
TICK_COST = 0.0010
CHECK_COST = 0.0004
ROUTE_COST = 0.0020


def engine_load(records: Sequence["JournalRecord"]) -> SimulatedExecutor:
    """The engine work a journal records, queued FIFO on one worker.

    A ``tick`` costs :data:`TICK_COST` plus :data:`CHECK_COST` per check
    it evaluated; a ``route`` install and a ``finalized`` teardown each
    cost :data:`ROUTE_COST`.  A ``recovered`` record starts a fresh
    worker, as a restarted engine does: the crashed one's queued work is
    lost, so the result is the load of the engine that wrote the last
    records.  *records* must be a whole journal (``Journal.records()``):
    one that does not start at LSN 1 was compacted or sliced and would
    under-count, so it raises :class:`ValidationError`.
    """
    if records and records[0].lsn != 1:
        raise ValidationError(
            f"engine load needs a whole journal; this one starts at LSN {records[0].lsn}"
        )
    load = SimulatedExecutor()
    for record in records:
        kind = record.kind
        if kind == "tick":
            load.submit(
                record.time, TICK_COST + CHECK_COST * len(record.data["checks"])
            )
        elif kind == "route" or kind == "finalized":
            load.submit(record.time, ROUTE_COST)
        elif kind == "recovered":
            load = SimulatedExecutor()
    return load


@dataclass
class TransitionRecord:
    """One state change of a strategy execution."""

    time: float
    source: str
    target: str
    trigger: str
    action: Action


@dataclass
class StrategyExecution:
    """Mutable runtime state of one submitted strategy."""

    strategy: Strategy
    machine: StateMachine
    state: str
    started_at: float
    phase_started_at: float
    outcome: StrategyOutcome = StrategyOutcome.RUNNING
    repeats: dict[str, int] = field(default_factory=dict)
    transitions: list[TransitionRecord] = field(default_factory=list)
    check_log: list[CheckResult] = field(default_factory=list)
    winner: str | None = None
    rollout_step: int = -1
    finished_at: float | None = None
    check_next_due: dict[str, float] = field(default_factory=dict)
    check_last: dict[str, CheckOutcome] = field(default_factory=dict)
    phase_first_entered: dict[str, float] = field(default_factory=dict)
    evaluation_errors: int = 0
    deadline_exceeded: str | None = None
    last_tick_at: float | None = None
    phase_entries: int = 0
    #: Engine memo, not state: the phase's effective checks with their
    #: canonical text, filled on its first tick and cleared on entry.
    tick_checks: tuple[tuple[Check, str], ...] | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def running(self) -> bool:
        """Whether the execution is still in a phase state."""
        return self.outcome is StrategyOutcome.RUNNING

    @property
    def current_phase(self) -> Phase:
        """The phase the execution currently runs."""
        return self.strategy.phase(self.state)

    # -- the reducer: one method per journal record kind ---------------------
    #
    # The engine applies every decision through these methods *before* it
    # journals the record, and recovery folds journal records through the
    # same methods, so the live execution, a snapshot taken on any append
    # and a recovered execution all hold the same state.

    @classmethod
    def submitted(cls, strategy: Strategy, start: float) -> "StrategyExecution":
        """A ``submitted`` record: a fresh execution waiting to start."""
        return cls(
            strategy=strategy,
            machine=StateMachine(strategy),
            state=strategy.entry.name,
            started_at=start,
            phase_started_at=start,
        )

    def enter_phase(self, phase_name: str, time: float) -> None:
        """A ``phase_entered`` record: (re)start *phase_name* at *time*."""
        self.state = phase_name
        self.phase_started_at = time
        self.rollout_step = -1
        self.check_next_due = {}
        self.check_last = {}
        self.last_tick_at = None
        self.phase_entries += 1
        self.tick_checks = None
        self.phase_first_entered.setdefault(phase_name, time)

    def record_tick(
        self,
        time: float,
        results: Sequence[CheckResult],
        next_due: Sequence[float],
        errors: int,
    ) -> None:
        """A ``tick`` record: one check round and each check's next due time."""
        self.last_tick_at = time
        self.evaluation_errors += errors
        self.check_log.extend(results)
        for result, due in zip(results, next_due):
            self.check_last[result.check.name] = result.outcome
            self.check_next_due[result.check.name] = due

    def record_rollout(self, step: int) -> None:
        """A ``rollout`` record: the gradual rollout moved to *step*."""
        self.rollout_step = step

    def record_winner(self, version: str) -> None:
        """A ``winner`` record: the A/B phase picked *version*."""
        self.winner = version

    def record_transition(
        self, time: float, source: str, target: str, trigger: str, action: Action
    ) -> None:
        """A ``transition`` record; a terminal *target* also finishes."""
        self.transitions.append(TransitionRecord(time, source, target, trigger, action))
        if action is Action.REPEAT:
            self.repeats[source] = self.repeats.get(source, 0) + 1
        if trigger == "deadline":
            self.deadline_exceeded = source
        if target in TERMINAL_STATES:
            self.finalize(target, time)

    def finalize(self, terminal: str, time: float) -> None:
        """A ``finalized`` record: the execution ended in *terminal*."""
        self.state = terminal
        self.outcome = _OUTCOME_FOR_TERMINAL[terminal]
        self.finished_at = time


class _CatchupQueue:
    """Decision points missed during an outage, replayed in time order.

    During recovery the engine drains this queue instead of the
    simulation: each entry runs with the engine's logical clock pinned to
    the entry's original timestamp, so check evaluations and transitions
    land exactly where the crash-free run would have put them.
    """

    def __init__(self, horizon: float) -> None:
        self.horizon = horizon
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: float, callback: Callable[[], None]) -> None:
        """Queue *callback* for logical time *time*."""
        heapq.heappush(self._heap, (time, next(self._seq), callback))

    def pop(self) -> tuple[float, Callable[[], None]]:
        """Remove and return the earliest ``(time, callback)``."""
        time, _, callback = heapq.heappop(self._heap)
        return time, callback


class BifrostEngine:
    """Schedules and drives strategy executions on simulated time."""

    def __init__(
        self,
        simulation: SimulationEngine,
        application: Application,
        router: VersionRouter,
        store: MetricStore,
        journal: "Journal | None" = None,
        snapshots: "SnapshotStore | None" = None,
        toggles: "ToggleStore | None" = None,
        observer: Observer | None = None,
    ) -> None:
        self.simulation = simulation
        self.application = application
        self.router = router
        self.store = store
        self.evaluator = CheckEvaluator(store)
        self.executions: list[StrategyExecution] = []
        self.journal = journal
        self.snapshots = snapshots
        self.toggles = toggles
        self.obs = observer or NULL_OBSERVER
        #: Optional burn-rate alert engine whose firing rules annotate
        #: decision nodes (wired by middleware ``enable_alerts``).
        self.alerts: "AlertEngine | None" = None
        #: Optional provider of active-fault labels at a logical time
        #: (wired by middleware from its fault campaigns); decisions
        #: record its answer so a rollback names the fault that caused it.
        self.active_faults_of: Callable[[float], tuple[str, ...]] | None = None
        self._counter = itertools.count(1)
        self._alive = True
        self._catchup: _CatchupQueue | None = None
        self._now_override: float | None = None

    def _emit(self, kind: str, time: float, **data: object) -> "Event | None":
        """Emit one event and feed it to the live provenance fold."""
        event = self.obs.emit(kind, time, **data)
        tracker = self.obs.provenance
        if event is not None and tracker is not None:
            tracker.record(event)
        return event

    # -- liveness and durability plumbing ----------------------------------

    @property
    def alive(self) -> bool:
        """Whether the engine still processes events."""
        return self._alive

    def kill(self) -> None:
        """Simulate an engine crash: drop all future event processing.

        Every event the engine has scheduled is guarded by its liveness,
        so pending ticks, deadlines, and starts become no-ops.  In-memory
        execution state is considered lost; only the journal, snapshots,
        and the surviving data plane (router, stores) remain.
        """
        self._alive = False

    @property
    def _now(self) -> float:
        """The engine's logical clock (pinned during catch-up replay)."""
        if self._now_override is not None:
            return self._now_override
        return self.simulation.now

    def _schedule_at(
        self, time: float, callback: Callable[[], None], label: str = ""
    ) -> None:
        """Schedule engine work, guarded by liveness.

        During recovery, work due at or before the catch-up horizon is
        replayed from the catch-up queue at its original logical time
        instead of being scheduled on the (already later) simulation.
        """
        if not self._alive:
            return
        if self._catchup is not None and time <= self._catchup.horizon + 1e-9:
            self._catchup.push(time, callback)
            return

        def guarded() -> None:
            if self._alive:
                callback()

        self.simulation.schedule_at(
            max(time, self.simulation.now), guarded, label=label
        )

    def _journal_append(self, kind: str, data: dict) -> None:
        """Append a journal record (no-op without a journal) and maybe
        fold the log into a snapshot per the snapshot policy."""
        if self.journal is None:
            return
        self.journal.append(kind, self._now, data)
        if self.snapshots is not None and self.snapshots.note_append():
            self.take_snapshot()

    def take_snapshot(self) -> None:
        """Fold current engine state into a snapshot checkpoint."""
        if self.journal is None or self.snapshots is None:
            return
        from repro.bifrost.journal import (
            SCHEMA_VERSION,
            Snapshot,
            execution_to_dict,
        )

        routes = []
        for service in sorted(self.router.routed_services):
            route = self.router.active_route(service)
            if route is None:
                continue
            routes.append(
                {
                    "experiment": route.experiment,
                    "service": route.service,
                    "variants": [
                        {"version": v.version, "fraction": v.fraction}
                        for v in route.variants
                    ],
                    "audience_groups": sorted(route.audience.groups),
                    "shadow_versions": list(route.shadow_versions),
                }
            )
        snapshot = Snapshot(
            schema_version=SCHEMA_VERSION,
            time=self._now,
            last_lsn=self.journal.last_lsn,
            executions=tuple(execution_to_dict(e) for e in self.executions),
            metrics=self.store.snapshot(),
            toggles=self.toggles.snapshot() if self.toggles is not None else None,
            routes=tuple(routes),
        )
        self.snapshots.save(snapshot)
        if self.obs.enabled:
            self._emit(
                JOURNAL_SNAPSHOT,
                self._now,
                last_lsn=snapshot.last_lsn,
                executions=len(snapshot.executions),
            )
            self.obs.metrics.counter("journal_snapshots_total").increment()
        if self.snapshots.policy.compact:
            self.journal.compact(snapshot.last_lsn)

    def submit(self, strategy: Strategy, at: float | None = None) -> StrategyExecution:
        """Register *strategy* to start at time *at* (default: now).

        Fails fast when a phase references a service or version that is
        not deployed — a misconfigured experiment must never take down
        the engine mid-simulation.
        """
        if not self._alive:
            raise ExecutionError(
                "engine is down; wait for the supervisor to restart it"
            )
        start = self.simulation.now if at is None else at
        if start < self.simulation.now:
            raise ExecutionError(
                f"cannot start strategy in the past ({start} < {self.simulation.now})"
            )
        for phase in strategy.phases:
            if not self.application.has_service(phase.service):
                raise ExecutionError(
                    f"strategy {strategy.name!r}, phase {phase.name!r}: "
                    f"service {phase.service!r} is not deployed"
                )
            service = self.application.service(phase.service)
            needed = {phase.stable_version, phase.experimental_version}
            if phase.second_version:
                needed.add(phase.second_version)
            for version in sorted(needed):
                if not service.has_version(version):
                    raise ExecutionError(
                        f"strategy {strategy.name!r}, phase {phase.name!r}: "
                        f"{phase.service}@{version} is not deployed"
                    )
        execution = StrategyExecution.submitted(strategy, start)
        self.executions.append(execution)
        self._journal_append(
            "submitted", {"strategy": strategy_to_dict(strategy), "start": start}
        )
        if self.obs.enabled:
            self._emit(
                ENGINE_SUBMITTED,
                self._now,
                strategy=strategy.name,
                start=start,
                entry=strategy.entry.name,
                phases=[phase.name for phase in strategy.phases],
            )
            self.obs.metrics.counter("bifrost_submissions_total").increment()
        self._schedule_at(
            start,
            lambda: self._enter_phase(execution, strategy.entry.name),
            label=f"start:{strategy.name}",
        )
        return execution

    # -- phase lifecycle ---------------------------------------------------

    def _enter_phase(self, execution: StrategyExecution, phase_name: str) -> None:
        if not execution.running:
            return
        now = self._now
        execution.enter_phase(phase_name, now)
        phase = execution.current_phase
        self._journal_append(
            "phase_entered",
            {"strategy": execution.strategy.name, "phase": phase_name},
        )
        if self.obs.enabled:
            self._emit(
                ENGINE_PHASE_ENTERED,
                now,
                strategy=execution.strategy.name,
                phase=phase_name,
                type=phase.type.value,
            )
            self.obs.metrics.counter(
                "bifrost_phase_entries_total", phase=phase_name
            ).increment()
        if phase.deadline_seconds is not None:
            # The watchdog is measured from the phase *name*'s first
            # entry: repeats share the same time budget instead of
            # resetting it, so an endlessly inconclusive phase cannot
            # stall the strategy.  Re-arming on every entry keeps the
            # watchdog alive across engine restarts; duplicate firings
            # are no-ops once the first one transitioned.
            self._schedule_at(
                execution.phase_first_entered[phase_name] + phase.deadline_seconds,
                lambda: self._deadline_expired(execution, phase_name),
                label=f"deadline:{execution.strategy.name}:{phase_name}",
            )
        self._install_route(execution, phase)
        self._schedule_tick(execution, phase)

    def _deadline_expired(self, execution: StrategyExecution, phase_name: str) -> None:
        """Watchdog: force a rollback when a phase blew its time budget."""
        if not execution.running or execution.state != phase_name:
            return
        self._record_transition(
            execution, phase_name, TERMINAL_ROLLBACK, "deadline", Action.ROLLBACK
        )

    def _schedule_tick(self, execution: StrategyExecution, phase: Phase) -> None:
        self._schedule_at(
            self._now + phase.check_interval_seconds,
            lambda: self._tick(execution),
            label=f"tick:{execution.strategy.name}:{phase.name}",
        )

    def _tick(self, execution: StrategyExecution) -> None:
        if not execution.running:
            return
        now = self._now
        phase = execution.current_phase
        if execution.tick_checks is None:
            execution.tick_checks = tuple(
                (check, dump(check_to_dict(check)))
                for check in self._effective_checks(execution, phase)
            )
        # Fig 4.3's time-based execution: every check carries its own
        # evaluation interval (defaulting to the phase's), so only the
        # checks that are *due* run this tick.
        due = [
            (check, text)
            for check, text in execution.tick_checks
            if now + 1e-9 >= execution.check_next_due.get(check.name, 0.0)
        ]
        # A check whose evaluation blows up (bad aggregation, store
        # trouble) must not take the engine down mid-simulation: it
        # counts as inconclusive and is retried on the next due tick.
        results = []
        errors = 0
        for check, _ in due:
            try:
                results.append(self.evaluator.evaluate(check, now))
            except ExecutionError:
                errors += 1
                results.append(
                    CheckResult(check, now, CheckOutcome.INCONCLUSIVE, None, None)
                )
        observing = self.obs.enabled
        next_due = []
        for (check, _), result in zip(due, results):
            next_due.append(
                now + (check.interval_seconds or phase.check_interval_seconds)
            )
            if observing:
                # The payload is a complete Evidence record (see
                # repro.obs.provenance): window bounds, sample count and
                # margin travel with the event so an exported stream
                # reconstructs the decision DAG without the store.
                self._emit(
                    ENGINE_CHECK,
                    now,
                    strategy=execution.strategy.name,
                    phase=phase.name,
                    check=check.name,
                    service=check.service,
                    version=check.version,
                    metric=check.metric,
                    aggregation=check.aggregation,
                    operator=check.operator,
                    window_start=now - check.window_seconds,
                    samples=result.samples,
                    outcome=result.outcome.value,
                    observed=result.observed,
                    reference=result.reference,
                    margin=evidence_margin(
                        check.operator, result.observed, result.reference
                    ),
                    duration_s=result.duration_s,
                )
                self.obs.metrics.counter(
                    "bifrost_checks_total", outcome=result.outcome.value
                ).increment()
                if result.duration_s is not None:
                    self.obs.metrics.histogram("bifrost_check_seconds").observe(
                        result.duration_s
                    )
        if observing and errors:
            self.obs.metrics.counter("bifrost_check_errors_total").increment(errors)
        # The check round is journaled before the transition it may
        # trigger: a crash (or torn write) between the two leaves a
        # decisive round without a recorded decision — recovery detects
        # exactly that and degrades the round to inconclusive.
        execution.record_tick(now, results, next_due, errors)
        self._journal_append(
            "tick",
            tick_payload(
                execution.strategy.name,
                phase.name,
                zip([text for _, text in due], results, next_due),
                errors,
            ),
        )

        if any(result.outcome is CheckOutcome.FAIL for result in results):
            self._transition(execution, phase, "failure")
            return

        phase_elapsed = now - execution.phase_started_at
        if phase.type is PhaseType.GRADUAL_ROLLOUT:
            self._maybe_advance_rollout(execution, phase, phase_elapsed)

        if phase_elapsed + 1e-9 >= phase.duration_seconds:
            # Decide on each check's *latest* outcome; a check that never
            # produced data counts as inconclusive.
            last_outcomes = {
                execution.check_last.get(check.name, CheckOutcome.INCONCLUSIVE)
                for check, _ in execution.tick_checks
            }
            if (
                CheckOutcome.INCONCLUSIVE in last_outcomes
                or not self._enough_samples(execution, phase)
            ):
                self._transition(execution, phase, "inconclusive")
                return
            if phase.type is PhaseType.AB_TEST:
                execution.record_winner(self._pick_winner(execution, phase))
                self._journal_append(
                    "winner",
                    {
                        "strategy": execution.strategy.name,
                        "version": execution.winner,
                    },
                )
                if self.obs.enabled:
                    self._emit(
                        ENGINE_WINNER,
                        now,
                        strategy=execution.strategy.name,
                        version=execution.winner,
                        phase=phase.name,
                    )
            self._transition(execution, phase, "success")
            return
        self._schedule_tick(execution, phase)

    def _effective_checks(
        self, execution: StrategyExecution, phase: Phase
    ) -> tuple[Check, ...]:
        """Checks with the version under test substituted.

        When an earlier A/B phase picked a winner, later phases route the
        winner — checks written against the phase's declared experimental
        version must follow it or they would evaluate a version that no
        longer serves traffic.  Health checks are exempt: they read the
        topology pipeline's ``live`` pseudo-version, which describes the
        whole serving mixture rather than one deployment.
        """
        effective = self._experimental_version(execution, phase)
        if effective == phase.experimental_version:
            return phase.checks
        return tuple(
            replace(check, version=effective)
            if check.kind != HEALTH_CHECK_KIND
            and check.version == phase.experimental_version
            else check
            for check in phase.checks
        )

    def _enough_samples(self, execution: StrategyExecution, phase: Phase) -> bool:
        if phase.min_samples <= 0:
            return True
        served = self.store.aggregate(
            phase.service,
            self._experimental_version(execution, phase),
            "throughput",
            "count",
            execution.phase_started_at,
            self._now,
        )
        return (served or 0.0) >= phase.min_samples

    def _pick_winner(self, execution: StrategyExecution, phase: Phase) -> str:
        """Compare the two A/B variants on the phase's winner metric."""
        assert phase.second_version is not None
        start = execution.phase_started_at
        now = self._now
        values = {}
        for version in (phase.experimental_version, phase.second_version):
            values[version] = self.store.aggregate(
                phase.service,
                version,
                phase.winner_metric,
                phase.winner_aggregation,
                start,
                now,
            )
        a = values[phase.experimental_version]
        b = values[phase.second_version]
        if a is None and b is None:
            return phase.experimental_version
        if a is None:
            return phase.second_version
        if b is None:
            return phase.experimental_version
        if phase.winner_lower_is_better:
            return (
                phase.experimental_version if a <= b else phase.second_version
            )
        return phase.experimental_version if a >= b else phase.second_version

    def _maybe_advance_rollout(
        self, execution: StrategyExecution, phase: Phase, elapsed: float
    ) -> None:
        step_duration = phase.duration_seconds / len(phase.steps)
        step = min(int(elapsed / step_duration), len(phase.steps) - 1)
        if step != execution.rollout_step:
            execution.record_rollout(step)
            self._journal_append(
                "rollout",
                {
                    "strategy": execution.strategy.name,
                    "phase": phase.name,
                    "step": step,
                },
            )
            if self.obs.enabled:
                self._emit(
                    ENGINE_ROLLOUT,
                    self._now,
                    strategy=execution.strategy.name,
                    phase=phase.name,
                    step=step,
                    fraction=phase.steps[step],
                )
            self._install_route(execution, phase)

    # -- transitions and actions -------------------------------------------

    def _emit_transition(
        self,
        execution: StrategyExecution,
        source: str,
        target: str,
        trigger: str,
        action: Action,
    ) -> None:
        """Emit the glass-box transition event plus its decision node.

        The decision event is the provenance layer's unit of record: it
        links the evidence seqs of the deciding phase stay, the alert
        rules firing and the transient faults active at decision time to
        the transition it annotates, so `build_provenance` over the
        exported stream reconstructs the exact causal DAG the engine saw.
        """
        if not self.obs.enabled:
            return
        now = self._now
        strategy = execution.strategy.name
        transition = self._emit(
            ENGINE_TRANSITION,
            now,
            strategy=strategy,
            source=source,
            target=target,
            trigger=trigger,
            action=action.value,
        )
        self.obs.metrics.counter(
            "bifrost_transitions_total", trigger=trigger
        ).increment()
        tracker = self.obs.provenance
        evidence = (
            list(tracker.stay_evidence(strategy)) if tracker is not None else []
        )
        alerts = list(self.alerts.active()) if self.alerts is not None else []
        faults = (
            list(self.active_faults_of(now))
            if self.active_faults_of is not None
            else []
        )
        terminal = target in TERMINAL_STATES
        self._emit(
            DECISION_RECORDED,
            now,
            strategy=strategy,
            source=source,
            target=target,
            trigger=trigger,
            action=action.value,
            transition_seq=None if transition is None else transition.seq,
            evidence=evidence,
            alerts=alerts,
            faults=faults,
            terminal=terminal,
        )
        self.obs.metrics.counter(
            "bifrost_decisions_total", terminal=str(terminal).lower()
        ).increment()

    def _transition(
        self, execution: StrategyExecution, phase: Phase, trigger: str
    ) -> None:
        target = execution.machine.next_state(phase.name, trigger)
        if trigger == "inconclusive" and (
            target == phase.name or phase.on_inconclusive == REPEAT
        ):
            used = execution.repeats.get(phase.name, 0)
            if used >= phase.max_repeats:
                # Out of repeats: inconclusive data is treated as failure.
                target = execution.machine.next_state(phase.name, "failure")
                trigger = "failure"
            else:
                self._record_transition(
                    execution, phase.name, phase.name, trigger, Action.REPEAT
                )
                return
        action = _ACTION_FOR_TERMINAL.get(target, Action.CONTINUE)
        self._record_transition(execution, phase.name, target, trigger, action)

    def _record_transition(
        self,
        execution: StrategyExecution,
        source: str,
        target: str,
        trigger: str,
        action: Action,
    ) -> None:
        """Apply, journal and announce one transition, then act on it.

        The only place a ``transition`` record is written: the execution
        holds the transition before the append (which may snapshot), and
        a terminal *target* is finalized, any other one entered.
        """
        execution.record_transition(self._now, source, target, trigger, action)
        self._journal_append(
            "transition",
            {
                "strategy": execution.strategy.name,
                "source": source,
                "target": target,
                "trigger": trigger,
                "action": action.value,
            },
        )
        self._emit_transition(execution, source, target, trigger, action)
        if target in TERMINAL_STATES:
            self._finalize(execution, target)
        else:
            self._enter_phase(execution, target)

    def _finalize(self, execution: StrategyExecution, terminal: str) -> None:
        execution.finalize(terminal, self._now)
        for service in execution.strategy.services:
            self.router.uninstall(service)
        promoted: str | None = None
        if terminal == TERMINAL_COMPLETE:
            final_phase = execution.strategy.phases[-1]
            winner = execution.winner or self._experimental_version(
                execution, final_phase
            )
            service = self.application.service(final_phase.service)
            if service.has_version(winner):
                service.promote(winner)
                promoted = winner
        self._journal_append(
            "finalized",
            {
                "strategy": execution.strategy.name,
                "terminal": terminal,
                "outcome": execution.outcome.value,
                "promoted": promoted,
            },
        )
        if self.obs.enabled:
            self._emit(
                ENGINE_FINALIZED,
                self._now,
                strategy=execution.strategy.name,
                terminal=terminal,
                outcome=execution.outcome.value,
                promoted=promoted,
            )
            self.obs.metrics.counter(
                "bifrost_finalized_total", outcome=execution.outcome.value
            ).increment()

    # -- routing -----------------------------------------------------------

    def _experimental_version(
        self, execution: StrategyExecution, phase: Phase
    ) -> str:
        """The variant under test, honoring an earlier A/B winner."""
        if execution.winner is not None and phase.type in (
            PhaseType.GRADUAL_ROLLOUT,
            PhaseType.CANARY,
        ):
            return execution.winner
        return phase.experimental_version

    def _install_route(self, execution: StrategyExecution, phase: Phase) -> None:
        audience = AudienceFilter(groups=frozenset(phase.audience_groups))
        experimental = self._experimental_version(execution, phase)
        shadow: tuple[str, ...] = ()
        if phase.type is PhaseType.CANARY:
            variants = canary_split(
                phase.stable_version, experimental, phase.fraction
            )
        elif phase.type is PhaseType.DARK_LAUNCH:
            variants = dark_launch_split(phase.stable_version)
            shadow = (experimental,)
        elif phase.type is PhaseType.AB_TEST:
            assert phase.second_version is not None
            variants = ab_split(
                phase.experimental_version, phase.second_version, phase.fraction
            )
        else:  # GRADUAL_ROLLOUT
            step = max(execution.rollout_step, 0)
            variants = rollout_split(
                phase.stable_version, experimental, phase.steps[step]
            )
        route = ExperimentRoute(
            experiment=execution.strategy.name,
            service=phase.service,
            variants=variants,
            audience=audience,
            shadow_versions=shadow,
        )
        self.router.install(route)
        self._journal_append(
            "route",
            {
                "strategy": execution.strategy.name,
                "service": phase.service,
                "phase": phase.name,
                "step": execution.rollout_step,
            },
        )
        if self.obs.enabled:
            self._emit(
                ENGINE_ROUTE,
                self._now,
                strategy=execution.strategy.name,
                service=phase.service,
                phase=phase.name,
                step=execution.rollout_step,
                variants={v.version: v.fraction for v in variants},
            )
            self.obs.metrics.counter("bifrost_route_updates_total").increment()

    # -- recovery ----------------------------------------------------------

    def adopt(self, executions: list[StrategyExecution]) -> list[str]:
        """Attach recovered *executions* and resume the running ones.

        Decision points that fell into the outage window (missed check
        ticks, expired deadlines, pending phase starts) are replayed in
        time order with the logical clock pinned to their original
        timestamps — telemetry kept flowing while the engine was down,
        so late evaluations see exactly the data the crash-free run saw,
        and the recovered transition log lines up with it.

        Routes of running phases are re-installed exactly once (guarded
        against phases that finish during catch-up).  A strategy whose
        journal shows a decisive check round without the transition it
        must have triggered had its phase outcome in flight when the
        engine died; that round is degraded to *inconclusive* and the
        phase re-executed per the conditional chaining.  Returns the
        names of those in-flight strategies.
        """
        inflight: list[str] = []
        queue = _CatchupQueue(self.simulation.now)
        self._catchup = queue
        try:
            for execution in executions:
                self.executions.append(execution)
                if not execution.running:
                    continue
                name = execution.strategy.name
                if execution.phase_entries == 0:
                    # Submitted, never started: (re)schedule the start.
                    entry = execution.strategy.entry.name
                    self._schedule_at(
                        execution.started_at,
                        lambda e=execution, p=entry: self._enter_phase(e, p),
                        label=f"start:{name}",
                    )
                    continue
                phase = execution.current_phase
                decisive_fail = CheckOutcome.FAIL in execution.check_last.values()
                decisive_done = (
                    execution.last_tick_at is not None
                    and execution.last_tick_at - execution.phase_started_at + 1e-9
                    >= phase.duration_seconds
                )
                if decisive_fail or decisive_done:
                    inflight.append(name)
                    at = (
                        execution.last_tick_at
                        if execution.last_tick_at is not None
                        else self.simulation.now
                    )
                    self._schedule_at(
                        at,
                        lambda e=execution, p=phase: self._transition(
                            e, p, "inconclusive"
                        ),
                        label=f"inflight:{name}",
                    )
                    continue
                self._schedule_at(
                    queue.horizon,
                    lambda e=execution, p=phase.name, n=execution.phase_entries: (
                        self._reinstall_route(e, p, n)
                    ),
                    label=f"recover-route:{name}",
                )
                if phase.deadline_seconds is not None:
                    self._schedule_at(
                        execution.phase_first_entered[phase.name]
                        + phase.deadline_seconds,
                        lambda e=execution, p=phase.name: self._deadline_expired(
                            e, p
                        ),
                        label=f"deadline:{name}:{phase.name}",
                    )
                next_tick = (
                    execution.last_tick_at
                    if execution.last_tick_at is not None
                    else execution.phase_started_at
                ) + phase.check_interval_seconds
                self._schedule_at(
                    next_tick,
                    lambda e=execution: self._tick(e),
                    label=f"tick:{name}:{phase.name}",
                )
            while queue:
                time, callback = queue.pop()
                self._now_override = time
                callback()
                self._now_override = None
        finally:
            self._now_override = None
            self._catchup = None
        return inflight

    def _reinstall_route(
        self,
        execution: StrategyExecution,
        phase_name: str,
        entries_at_adopt: int | None = None,
    ) -> None:
        """Idempotently re-install a resumed phase's route.

        Skipped when catch-up already moved the execution out of the
        phase (or finished it) — the transition installed or tore down
        the routes itself.  Also skipped when catch-up *re-entered* a
        phase (an inconclusive round replayed with REPEAT lands back in
        the same state): the re-entry installed the route and journaled
        it already, and installing again here would journal a route
        update the crash-free run never made.
        """
        if not execution.running or execution.state != phase_name:
            return
        if (
            entries_at_adopt is not None
            and execution.phase_entries != entries_at_adopt
        ):
            return
        self._install_route(execution, execution.current_phase)

    # -- operator actions ------------------------------------------------------

    def cancel(self, strategy_name: str) -> StrategyExecution:
        """Abort a running strategy: traffic reverts to stable immediately.

        Experiments "get canceled frequently" (Section 1.2.2); canceling
        is the manual counterpart of the automated rollback and frees the
        traffic Fenrir's reevaluation can then reassign.
        """
        for execution in self.executions:
            if execution.strategy.name == strategy_name:
                if execution.running:
                    self._record_transition(
                        execution,
                        execution.state,
                        TERMINAL_ABORT,
                        "canceled",
                        Action.ABORT,
                    )
                return execution
        raise ExecutionError(f"no strategy named {strategy_name!r} submitted")

    # -- reporting -----------------------------------------------------------

    def outcomes(self) -> dict[str, StrategyOutcome]:
        """Outcome per submitted strategy."""
        return {e.strategy.name: e.outcome for e in self.executions}

    def running_count(self) -> int:
        """Number of strategies still executing."""
        return sum(1 for e in self.executions if e.running)

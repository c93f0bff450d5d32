"""Rebuilding a Bifrost engine from snapshot + journal replay.

Recovery is split in two.  The :class:`RecoveryManager` rebuilds state:
it restores the latest snapshot, then decodes every journal record after
it and folds it through the same :class:`StrategyExecution` reducer
methods the live engine applied before journaling it, so a recovered
execution equals the one the engine held.  It then hands the rebuilt
executions to :meth:`BifrostEngine.adopt`, which resumes them live
(re-installing routes exactly once, re-arming deadlines from first-entry
times, and replaying decision points missed during the outage at their
original logical timestamps).

The :class:`EngineSupervisor` sits above both: it owns the current
engine object, kills it when an :class:`~repro.microservices.faults.EngineCrash`
fault fires, and — within a bounded :class:`RestartPolicy` — builds a
fresh engine and recovers it.  Every crash, restart, and refusal is
stored as a ``durability.<kind>`` sample under the synthetic
``("bifrost", "engine")`` key of the metric store, queryable with the same
windowed aggregations as every other metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.bifrost.checks import CheckResult
from repro.bifrost.engine import BifrostEngine, StrategyExecution
from repro.bifrost.journal import (
    FINALIZED,
    PHASE_ENTERED,
    RECOVERED,
    ROLLOUT,
    SUBMITTED,
    TICK,
    TRANSITION,
    WINNER,
    Journal,
    JournalRecord,
    SnapshotStore,
    execution_from_dict,
)
from repro.bifrost.model import (
    TERMINAL_STATES,
    Action,
    CheckOutcome,
    check_from_dict,
    strategy_from_dict,
)
from repro.errors import ValidationError
from repro.obs.events import (
    RECOVERY_CRASH,
    RECOVERY_REFUSED,
    RECOVERY_REPLAYED,
    RECOVERY_RESTART,
    RECOVERY_RESTART_FAILED,
)
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.telemetry.store import MetricStore


def _durability(store: MetricStore | None, kind: str, now: float, value: float = 1.0) -> None:
    """Store one engine-durability sample, when there is a store."""
    if store is not None:
        store.record("bifrost", "engine", f"durability.{kind}", now, value)


@dataclass(frozen=True)
class RecoveryReport:
    """What one recovery pass found and did.

    Attributes:
        snapshot_restored: whether a snapshot seeded the reconstruction.
        snapshot_time: simulated time of that snapshot (None without one).
        records_replayed: journal records folded in after the snapshot.
        records_dropped: corrupt/truncated tail lines that were discarded.
        executions_recovered: executions handed back to the engine.
        inflight: strategies whose phase outcome was in flight at crash
            time (degraded to inconclusive and re-executed).
    """

    snapshot_restored: bool
    snapshot_time: float | None
    records_replayed: int
    records_dropped: int
    executions_recovered: int
    inflight: tuple[str, ...]


class RecoveryManager:
    """Rebuilds engine state from durable storage and resumes it."""

    def __init__(
        self,
        journal: Journal,
        snapshots: SnapshotStore | None = None,
        store: MetricStore | None = None,
        observer: Observer | None = None,
    ) -> None:
        self.journal = journal
        self.snapshots = snapshots
        self.store = store
        self.obs = observer or NULL_OBSERVER

    def recover(
        self,
        engine: BifrostEngine,
        restore_stores: bool = False,
        handles: Iterable[StrategyExecution] = (),
    ) -> RecoveryReport:
        """Reconstruct executions into *engine* and resume them.

        With ``restore_stores`` the snapshot's metric/toggle contents are
        loaded back into the engine's stores — needed for full process
        recovery, redundant (and off by default) for an in-simulation
        crash where the data plane survived.  *handles* are executions a
        crashed engine handed out: each recovered execution's state is
        moved into the handle of the same strategy, which *engine* then
        runs, so a caller's reference keeps tracking its strategy.
        """
        snapshot = self.snapshots.latest if self.snapshots is not None else None
        executions: dict[str, StrategyExecution] = {}
        base_lsn = 0
        if snapshot is not None:
            base_lsn = snapshot.last_lsn
            for doc in snapshot.executions:
                execution = execution_from_dict(doc)
                executions[execution.strategy.name] = execution
            if restore_stores:
                if snapshot.metrics is not None:
                    engine.store.restore(snapshot.metrics)
                if snapshot.toggles is not None and engine.toggles is not None:
                    engine.toggles.restore(snapshot.toggles)
        records, dropped = self.journal.records_after(base_lsn)
        if dropped:
            # Repair the file: a torn line left in place would make every
            # record appended after it unreachable on the next load.
            self.journal.truncate_corrupt_tail()
        pending: dict[str, tuple[str, float]] = {}
        for record in records:
            self._apply(record, executions, pending)
        for name, (target, time) in pending.items():
            # A transition made it to the journal but the phase entry it
            # must have caused did not (torn tail): enter the phase now
            # so the resumed execution does not re-run the old one.
            executions[name].enter_phase(target, time)
        now = engine.simulation.now
        self.journal.append(
            RECOVERED,
            now,
            {
                "snapshot_lsn": base_lsn,
                "records_replayed": len(records),
                "records_dropped": dropped,
                "executions": sorted(executions),
            },
        )
        for handle in handles:
            recovered = executions.get(handle.strategy.name)
            if recovered is not None:
                vars(handle).update(vars(recovered))
                executions[handle.strategy.name] = handle
        inflight = engine.adopt(list(executions.values()))
        if self.obs.enabled:
            self.obs.emit(
                RECOVERY_REPLAYED,
                now,
                snapshot_restored=snapshot is not None,
                records_replayed=len(records),
                records_dropped=dropped,
                executions=len(executions),
                inflight=sorted(inflight),
            )
            self.obs.metrics.counter("recovery_records_replayed_total").increment(
                len(records)
            )
        _durability(self.store, "recovered", now)
        _durability(self.store, "records_replayed", now, float(len(records)))
        if dropped:
            _durability(self.store, "records_dropped", now, float(dropped))
        if inflight:
            _durability(self.store, "inflight_inconclusive", now, float(len(inflight)))
        return RecoveryReport(
            snapshot_restored=snapshot is not None,
            snapshot_time=snapshot.time if snapshot is not None else None,
            records_replayed=len(records),
            records_dropped=dropped,
            executions_recovered=len(executions),
            inflight=tuple(inflight),
        )

    # -- decoding records into the execution reducer --------------------------

    def _apply(
        self,
        record: JournalRecord,
        executions: dict[str, StrategyExecution],
        pending: dict[str, tuple[str, float]],
    ) -> None:
        """Decode one journal record and fold it through the reducer."""
        kind, time, data = record.kind, record.time, record.data
        if kind == SUBMITTED:
            execution = StrategyExecution.submitted(
                strategy_from_dict(data["strategy"]), float(data["start"])
            )
            executions[execution.strategy.name] = execution
            return
        if kind == RECOVERED:
            return
        name = data.get("strategy")
        execution = executions.get(name) if name is not None else None
        if execution is None:
            raise ValidationError(
                f"journal record {record.lsn} ({kind}) references unknown "
                f"strategy {name!r}"
            )
        if kind == PHASE_ENTERED:
            pending.pop(name, None)
            execution.enter_phase(data["phase"], time)
        elif kind == TICK:
            entries = data["checks"]
            execution.record_tick(
                time,
                [
                    CheckResult(
                        check_from_dict(entry["check"]),
                        time,
                        CheckOutcome(entry["outcome"]),
                        entry["observed"],
                        entry["reference"],
                    )
                    for entry in entries
                ],
                [float(entry["next_due"]) for entry in entries],
                int(data["errors"]),
            )
        elif kind == ROLLOUT:
            execution.record_rollout(int(data["step"]))
        elif kind == WINNER:
            execution.record_winner(data["version"])
        elif kind == TRANSITION:
            target = data["target"]
            execution.record_transition(
                time, data["source"], target, data["trigger"], Action(data["action"])
            )
            if target not in TERMINAL_STATES:
                # The matching phase_entered record normally follows
                # immediately; track it so a torn tail can be repaired.
                pending[name] = (target, time)
        elif kind == FINALIZED:
            pending.pop(name, None)
            execution.finalize(data["terminal"], time)
        # ROUTE records carry no execution state: routes live in the data
        # plane, which survives an engine crash; adopt() re-installs them
        # for resumed phases regardless.


@dataclass(frozen=True)
class RestartPolicy:
    """Bounded restart budget for the engine supervisor.

    Attributes:
        max_restarts: how many recoveries the supervisor performs before
            refusing further ones (the classic supervised-restart bound —
            a crash-looping engine should page a human, not spin).
        window_seconds: when set, the budget slides: only restarts within
            the trailing ``window_seconds`` of simulated time count
            against ``max_restarts``, so a long-lived engine that crashes
            rarely is never starved by ancient history.  ``None`` keeps
            the lifetime budget.
    """

    max_restarts: int = 3
    window_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValidationError("max_restarts must be >= 0")
        if self.window_seconds is not None and self.window_seconds <= 0:
            raise ValidationError("window_seconds must be positive")

    def charged(self, restart_times: Iterable[float], now: float) -> int:
        """How many past restarts count against the budget at *now*."""
        times = list(restart_times)
        if self.window_seconds is None:
            return len(times)
        cutoff = now - self.window_seconds
        return sum(1 for t in times if t > cutoff)

    def allows(self, restart_times: Iterable[float], now: float) -> bool:
        """Whether one more restart fits the budget at *now*."""
        return self.charged(restart_times, now) < self.max_restarts


class EngineSupervisor:
    """Owns the current engine; kills and recovers it within a budget.

    Satisfies the ``CrashTarget`` protocol of
    :mod:`repro.microservices.faults`, so an ``EngineCrash`` fault in a
    campaign drives :meth:`crash` / :meth:`restart` on the simulated
    clock.
    """

    def __init__(
        self,
        factory: Callable[[], BifrostEngine],
        journal: Journal,
        snapshots: SnapshotStore | None = None,
        store: MetricStore | None = None,
        policy: RestartPolicy | None = None,
        observer: Observer | None = None,
    ) -> None:
        self.factory = factory
        self.journal = journal
        self.snapshots = snapshots
        self.store = store
        self.policy = policy or RestartPolicy()
        self.obs = observer or NULL_OBSERVER
        self.engine = factory()
        self.restarts = 0
        self.restart_times: list[float] = []
        self.restart_failures = 0
        self.gave_up = False
        self.reports: list[RecoveryReport] = []

    def budget_remaining(self, now: float) -> int:
        """Restarts still allowed at *now* under the policy window."""
        charged = self.policy.charged(self.restart_times, now)
        return max(0, self.policy.max_restarts - charged)

    def restore_counters(self, restarts: int, times: Iterable[float]) -> None:
        """Reload restart accounting after a supervisor-process restart.

        A recovered orchestrator rebuilds its supervisors from journals;
        without this, every recovery would silently refill the restart
        budget of a crash-looping engine.
        """
        self.restarts = int(restarts)
        self.restart_times = [float(t) for t in times]

    def crash(self, now: float) -> None:
        """Kill the current engine (no-op when already down)."""
        if not self.engine.alive:
            return
        self.engine.kill()
        if self.obs.enabled:
            self.obs.emit(RECOVERY_CRASH, now)
            self.obs.metrics.counter("engine_crashes_total").increment()
        _durability(self.store, "crash", now)

    def restart(self, now: float) -> None:
        """Build a fresh engine and recover it, if the budget allows.

        A crash *during* recovery (a factory or replay failure) consumes
        the attempt and leaves the engine dead: the supervisor absorbs
        the exception, surfaces it through obs/telemetry, and a later
        restart may retry within whatever budget remains.
        """
        if self.engine.alive:
            return
        if not self.policy.allows(self.restart_times, now):
            self.gave_up = True
            if self.obs.enabled:
                self.obs.emit(
                    RECOVERY_REFUSED,
                    now,
                    restarts=self.restarts,
                    charged=self.policy.charged(self.restart_times, now),
                )
                self.obs.metrics.counter("engine_restarts_refused_total").increment()
            _durability(self.store, "restart_refused", now)
            return
        self.restarts += 1
        self.restart_times.append(now)
        crashed = self.engine
        try:
            self.engine = self.factory()
            manager = RecoveryManager(
                self.journal, self.snapshots, self.store, observer=self.obs
            )
            report = manager.recover(self.engine, handles=crashed.executions)
        except Exception as exc:
            self.restart_failures += 1
            self.engine.kill()
            # The crashed engine keeps the handles for the next attempt.
            self.engine = crashed
            if self.obs.enabled:
                self.obs.emit(
                    RECOVERY_RESTART_FAILED,
                    now,
                    restarts=self.restarts,
                    error=f"{type(exc).__name__}: {exc}",
                )
                self.obs.metrics.counter("engine_restart_failures_total").increment()
            _durability(self.store, "restart_failed", now)
            return
        self.reports.append(report)
        if self.obs.enabled:
            self.obs.emit(
                RECOVERY_RESTART,
                now,
                restarts=self.restarts,
                budget_remaining=self.budget_remaining(now),
                records_replayed=report.records_replayed,
                inflight=list(report.inflight),
            )
            self.obs.metrics.counter("engine_restarts_total").increment()
            self.obs.metrics.gauge("engine_restart_budget_remaining").set(
                float(self.budget_remaining(now))
            )
        _durability(self.store, "restart", now)

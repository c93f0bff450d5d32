"""The write-ahead journal and snapshot layer of the Bifrost engine.

A live experiment is a long-running state machine; losing the engine
process must not lose the experiment.  The engine therefore appends one
JSON record per durable decision — strategy submissions, phase entries,
check-evaluation rounds, transitions, route installations, finalizations
— to an append-only :class:`Journal` right after applying it to the
execution's state, and periodically folds the accumulated records into a compact
:class:`Snapshot` (engine executions, metric/toggle store contents,
installed routes).  Recovery (:mod:`repro.bifrost.recovery`) restores the
latest snapshot and replays the journal suffix.

Records carry a schema version so old journals stay readable; loading
tolerates a truncated or corrupt tail (the signature of a crash mid
write) by dropping everything from the first undecodable line on rather
than failing the whole recovery.
"""

from __future__ import annotations

import json
import os
from bisect import bisect_right
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Protocol

from repro.bifrost.engine import StrategyExecution, TransitionRecord
from repro.bifrost.checks import CheckResult
from repro.bifrost.model import (
    Action,
    CheckOutcome,
    StrategyOutcome,
    check_from_dict,
    check_to_dict,
    strategy_from_dict,
    strategy_to_dict,
)
from repro.bifrost.state_machine import StateMachine
from repro.errors import ValidationError
from repro.obs.canonical import dump, number, quote
from repro.obs.events import JOURNAL_APPEND, JOURNAL_COMPACT, JOURNAL_SNAPSHOT
from repro.obs.observer import NULL_OBSERVER, Observer

#: Version of the journal/snapshot record schema.  Bump on incompatible
#: layout changes; loaders reject records from *newer* schemas only.
SCHEMA_VERSION = 1

# Record kinds the engine emits (the durable vocabulary of Section 4.4's
# execution engine).
SUBMITTED = "submitted"
PHASE_ENTERED = "phase_entered"
TICK = "tick"
ROLLOUT = "rollout"
WINNER = "winner"
TRANSITION = "transition"
ROUTE = "route"
FINALIZED = "finalized"
RECOVERED = "recovered"

_ENVELOPE = '{"data":%%s,"kind":%%s,"lsn":%%d,"time":%%s,"v":%d}' % SCHEMA_VERSION


class JournalRecord(NamedTuple):
    """One durable engine decision.

    A named tuple: one is built per append and per decoded line.

    Attributes:
        lsn: log sequence number, strictly increasing per journal.
        kind: record kind (one of the module-level constants).
        time: simulated time the decision was taken at.
        data: kind-specific JSON object — or, on a record just appended
            from a template, that object's canonical text.
    """

    lsn: int
    kind: str
    time: float
    data: dict | str


class JournalStorage(Protocol):
    """Durable medium a journal appends lines to.

    The storage outlives the engine — that is the whole point: an
    in-simulation engine crash discards the engine object but keeps its
    storage (and a process crash keeps a file-backed storage).
    """

    def append_line(self, line: str) -> None:
        """Durably append one encoded record line."""
        ...  # pragma: no cover - protocol

    def read_lines(self) -> list[str]:
        """All stored lines in append order."""
        ...  # pragma: no cover - protocol

    def rewrite(self, lines: list[str]) -> None:
        """Atomically replace the stored lines (compaction)."""
        ...  # pragma: no cover - protocol


class MemoryJournalStorage:
    """In-memory storage — the default for simulated crash/recovery.

    ``lines`` is deliberately public so fault-injection tests can
    truncate or corrupt the tail the way a real torn write would.
    """

    def __init__(self) -> None:
        self.lines: list[str] = []

    def append_line(self, line: str) -> None:
        """Append one line."""
        self.lines.append(line)

    def read_lines(self) -> list[str]:
        """All lines in append order."""
        return list(self.lines)

    def rewrite(self, lines: list[str]) -> None:
        """Replace the stored lines."""
        self.lines = list(lines)


class FileJournalStorage:
    """Newline-delimited JSON file storage (flushed per append)."""

    def __init__(self, path: str) -> None:
        self.path = path

    def append_line(self, line: str) -> None:
        """Append one line and flush it to the OS."""
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def read_lines(self) -> list[str]:
        """All lines currently in the file."""
        if not os.path.exists(self.path):
            return []
        with open(self.path, "r", encoding="utf-8") as handle:
            return [line for line in handle.read().splitlines() if line]

    def rewrite(self, lines: list[str]) -> None:
        """Rewrite the file via a temp file + rename (crash-safe)."""
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + ("\n" if lines else ""))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.path)


def encode_record(record: JournalRecord) -> str:
    """One record as its canonical JSON line, written into the envelope; a
    ``str`` *data* is the payload's canonical text already (the engine's
    ``tick`` template) and is spliced in as it is."""
    data = record.data if isinstance(record.data, str) else dump(record.data)
    return _ENVELOPE % (data, quote(record.kind), record.lsn, number(record.time))


def decode_record(line: str) -> JournalRecord:
    """Decode one JSON line; raises :class:`ValidationError` when torn."""
    try:
        doc = json.loads(line)
        version = doc["v"]
        if not isinstance(version, int) or version > SCHEMA_VERSION:
            raise ValidationError(
                f"journal record schema {version!r} is newer than "
                f"supported {SCHEMA_VERSION}"
            )
        return JournalRecord(
            lsn=int(doc["lsn"]),
            kind=str(doc["kind"]),
            time=float(doc["time"]),
            data=dict(doc["data"]),
        )
    except ValidationError:
        raise
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"undecodable journal record: {exc}") from exc


class Journal:
    """Append-only write-ahead log of engine decisions."""

    def __init__(
        self,
        storage: JournalStorage | None = None,
        observer: "Observer | None" = None,
    ) -> None:
        self.storage = storage or MemoryJournalStorage()
        self.obs = observer or NULL_OBSERVER
        records, _ = self.load()
        self._next_lsn = (records[-1].lsn + 1) if records else 1

    @property
    def last_lsn(self) -> int:
        """LSN of the most recently appended record (0 when empty)."""
        return self._next_lsn - 1

    def append(self, kind: str, time: float, data: dict | str) -> JournalRecord:
        """Durably append one record and return it (*data* as in
        :func:`encode_record`)."""
        record = JournalRecord(self._next_lsn, kind, time, data)
        self.storage.append_line(encode_record(record))
        self._next_lsn += 1
        if self.obs.enabled:
            self.obs.emit(JOURNAL_APPEND, time, record=kind, lsn=record.lsn)
            self.obs.metrics.counter(
                "journal_appends_total", kind=kind
            ).increment()
        return record

    def load(self) -> tuple[list[JournalRecord], int]:
        """Decode the journal, tolerating a corrupt or truncated tail.

        Returns ``(records, dropped)``: a crash mid-append leaves a torn
        last line; anything from the first undecodable line on is
        dropped (a WAL cannot trust records past a gap), and recovery
        resumes from the last good record.
        """
        return self._load()[1:]

    def _load(self) -> tuple[list[str], list[JournalRecord], int]:
        """:meth:`load` plus the stored lines; record *i* is line *i*."""
        lines = self.storage.read_lines()
        records: list[JournalRecord] = []
        for index, line in enumerate(lines):
            try:
                record = decode_record(line)
            except ValidationError:
                return lines, records, len(lines) - index
            if records and record.lsn <= records[-1].lsn:
                # Out-of-order LSNs mean the tail was rewritten or
                # interleaved — treat like corruption from here on.
                return lines, records, len(lines) - index
            records.append(record)
        return lines, records, 0

    def records(self) -> list[JournalRecord]:
        """All decodable records (corrupt tail silently dropped)."""
        return self.load()[0]

    def records_after(self, lsn: int) -> tuple[list[JournalRecord], int]:
        """Records with ``record.lsn > lsn`` plus the dropped-tail count."""
        records, dropped = self.load()
        return [r for r in records if r.lsn > lsn], dropped

    def truncate_corrupt_tail(self) -> int:
        """Physically drop the undecodable tail, if any.

        Recovery must do this before appending: a torn line left in the
        storage would make every record written after it unreachable on
        the next load.  Good lines stay verbatim.  Returns how many lines
        were removed.
        """
        lines, records, dropped = self._load()
        if dropped:
            self.storage.rewrite(lines[: len(records)])
            self._next_lsn = (records[-1].lsn + 1) if records else 1
        return dropped

    def compact(self, upto_lsn: int) -> int:
        """Drop records with ``lsn <= upto_lsn`` (folded into a snapshot).

        Returns how many records were removed; kept lines stay verbatim.
        The journal keeps its LSN counter, so post-compaction appends stay
        monotonic.
        """
        lines, records, _ = self._load()
        removed = bisect_right([r.lsn for r in records], upto_lsn)
        if removed:
            self.storage.rewrite(lines[removed : len(records)])
            if self.obs.enabled:
                self.obs.emit(
                    JOURNAL_COMPACT,
                    records[-1].time,
                    upto_lsn=upto_lsn,
                    removed=removed,
                    kept=len(records) - removed,
                )
        return removed


# -- snapshots --------------------------------------------------------------


@dataclass(frozen=True)
class SnapshotPolicy:
    """When the engine folds the journal into a snapshot.

    Attributes:
        every_records: take a snapshot after this many journal appends
            (0 disables periodic snapshots).
        compact: whether to drop journal records a snapshot covers.
    """

    every_records: int = 25
    compact: bool = False


@dataclass(frozen=True)
class Snapshot:
    """A compact checkpoint of the whole engine state.

    Attributes:
        schema_version: layout version (see :data:`SCHEMA_VERSION`).
        time: simulated time the snapshot was taken at.
        last_lsn: last journal record folded into this snapshot.
        executions: serialized :class:`StrategyExecution` states.
        metrics: :meth:`MetricStore.snapshot` contents.
        toggles: :meth:`ToggleStore.snapshot` contents (None when the
            engine has no toggle store wired).
        routes: installed experiment routes, for audit and for full
            process recovery.
    """

    schema_version: int
    time: float
    last_lsn: int
    executions: tuple[dict, ...]
    metrics: dict | None
    toggles: dict | None
    routes: tuple[dict, ...]


def snapshot_to_dict(snapshot: Snapshot) -> dict:
    """Serialize a snapshot to JSON-compatible primitives."""
    return {
        "schema_version": snapshot.schema_version,
        "time": snapshot.time,
        "last_lsn": snapshot.last_lsn,
        "executions": list(snapshot.executions),
        "metrics": snapshot.metrics,
        "toggles": snapshot.toggles,
        "routes": list(snapshot.routes),
    }


def snapshot_from_dict(data: Mapping) -> Snapshot:
    """Rebuild a snapshot, rejecting newer-schema documents."""
    try:
        version = data["schema_version"]
        if not isinstance(version, int) or version > SCHEMA_VERSION:
            raise ValidationError(
                f"snapshot schema {version!r} is newer than supported "
                f"{SCHEMA_VERSION}"
            )
        return Snapshot(
            schema_version=version,
            time=float(data["time"]),
            last_lsn=int(data["last_lsn"]),
            executions=tuple(data["executions"]),
            metrics=data["metrics"],
            toggles=data["toggles"],
            routes=tuple(data["routes"]),
        )
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed snapshot document: {exc}") from exc


class SnapshotStore:
    """Holds the latest snapshot and decides when the next one is due."""

    def __init__(self, policy: SnapshotPolicy | None = None) -> None:
        self.policy = policy or SnapshotPolicy()
        self.latest: Snapshot | None = None
        self.taken = 0
        self._appends_since = 0

    def note_append(self) -> bool:
        """Count one journal append; True when a snapshot is now due."""
        if self.policy.every_records <= 0:
            return False
        self._appends_since += 1
        return self._appends_since >= self.policy.every_records

    def save(self, snapshot: Snapshot) -> None:
        """Install *snapshot* as the latest checkpoint."""
        self.latest = snapshot
        self.taken += 1
        self._appends_since = 0


# -- execution (de)serialization -------------------------------------------


def _check_result_to_dict(result: CheckResult) -> dict:
    return {
        "check": check_to_dict(result.check),
        "time": result.time,
        "outcome": result.outcome.value,
        "observed": result.observed,
        "reference": result.reference,
    }


def _check_result_from_dict(data: Mapping) -> CheckResult:
    return CheckResult(
        check=check_from_dict(data["check"]),
        time=data["time"],
        outcome=CheckOutcome(data["outcome"]),
        observed=data["observed"],
        reference=data["reference"],
    )


def _transition_to_dict(record: TransitionRecord) -> dict:
    return {
        "time": record.time,
        "source": record.source,
        "target": record.target,
        "trigger": record.trigger,
        "action": record.action.value,
    }


def _transition_from_dict(data: Mapping) -> TransitionRecord:
    return TransitionRecord(
        time=data["time"],
        source=data["source"],
        target=data["target"],
        trigger=data["trigger"],
        action=Action(data["action"]),
    )


def execution_to_dict(execution: StrategyExecution) -> dict:
    """Serialize the full mutable state of one strategy execution."""
    return {
        "strategy": strategy_to_dict(execution.strategy),
        "state": execution.state,
        "started_at": execution.started_at,
        "phase_started_at": execution.phase_started_at,
        "outcome": execution.outcome.value,
        "repeats": dict(execution.repeats),
        "transitions": [_transition_to_dict(t) for t in execution.transitions],
        "check_log": [_check_result_to_dict(r) for r in execution.check_log],
        "winner": execution.winner,
        "rollout_step": execution.rollout_step,
        "finished_at": execution.finished_at,
        "check_next_due": dict(execution.check_next_due),
        "check_last": {
            name: outcome.value for name, outcome in execution.check_last.items()
        },
        "phase_first_entered": dict(execution.phase_first_entered),
        "evaluation_errors": execution.evaluation_errors,
        "deadline_exceeded": execution.deadline_exceeded,
        "last_tick_at": execution.last_tick_at,
        "phase_entries": execution.phase_entries,
    }


def execution_from_dict(data: Mapping) -> StrategyExecution:
    """Rebuild a strategy execution from :func:`execution_to_dict` output.

    The state machine is recompiled from the strategy, and the restored
    state name is validated against it — a corrupt snapshot must surface
    as :class:`ValidationError`, not as an engine crash later.
    """
    try:
        strategy = strategy_from_dict(data["strategy"])
        machine = StateMachine(strategy)
        state = data["state"]
        if not machine.has_state(state):
            raise ValidationError(
                f"snapshot of {strategy.name!r} references unknown state "
                f"{state!r}"
            )
        return StrategyExecution(
            strategy=strategy,
            machine=machine,
            state=state,
            started_at=data["started_at"],
            phase_started_at=data["phase_started_at"],
            outcome=StrategyOutcome(data["outcome"]),
            repeats=dict(data["repeats"]),
            transitions=[_transition_from_dict(t) for t in data["transitions"]],
            check_log=[_check_result_from_dict(r) for r in data["check_log"]],
            winner=data["winner"],
            rollout_step=data["rollout_step"],
            finished_at=data["finished_at"],
            check_next_due=dict(data["check_next_due"]),
            check_last={
                name: CheckOutcome(value)
                for name, value in data["check_last"].items()
            },
            phase_first_entered=dict(data["phase_first_entered"]),
            evaluation_errors=data["evaluation_errors"],
            deadline_exceeded=data["deadline_exceeded"],
            last_tick_at=data["last_tick_at"],
            phase_entries=data["phase_entries"],
        )
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed execution document: {exc}") from exc

"""The structured event log at the heart of the glass-box layer.

Every instrumented subsystem appends typed :class:`Event` records to one
shared :class:`EventLog`: Bifrost's state-machine transitions and check
evaluations, journal appends and recovery replays, Fenrir's
per-generation search progress, and the streaming topology pipeline's
health publications.  Events carry a *monotonic sequence number* (total
order of emission, never reused) and a *logical timestamp* whose unit is
domain-specific — simulated seconds for Bifrost and topology events,
fitness evaluations consumed for Fenrir events — so replaying the log
reconstructs each subsystem's history on its own clock.

Retention is a bounded ring: the log keeps the most recent *capacity*
events and counts what it sheds (:attr:`EventLog.dropped`), so an
always-on observer never grows without bound.  Consumers either
:meth:`~EventLog.replay` the retained window, :meth:`~EventLog.subscribe`
to the live tail, or export everything as JSONL for offline analysis
(:meth:`~EventLog.jsonl_lines`, or the streaming
:class:`~repro.obs.exporters.JsonlEventSink`).
"""

from __future__ import annotations

import json
import warnings
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping

from repro.errors import ValidationError
from repro.obs.canonical import dump


class TruncatedStreamWarning(UserWarning):
    """An exported event stream carries a truncation sentinel.

    Raised as a warning by :func:`load_jsonl` (default policy) when the
    stream it decodes starts with an :data:`OBS_TRUNCATED` record: the
    bounded ring evicted an unknown prefix before the export, so any
    analysis that assumes a complete history is suspect.
    """

# ---------------------------------------------------------------------------
# Event taxonomy
# ---------------------------------------------------------------------------
# Kind constants of the events the built-in instrumentation emits.  The
# dotted prefix names the emitting subsystem; docs/OBSERVABILITY.md lists
# every kind with its payload fields.

ENGINE_SUBMITTED = "engine.submitted"
ENGINE_PHASE_ENTERED = "engine.phase_entered"
ENGINE_CHECK = "engine.check"
ENGINE_TRANSITION = "engine.transition"
ENGINE_ROLLOUT = "engine.rollout"
ENGINE_WINNER = "engine.winner"
ENGINE_ROUTE = "engine.route"
ENGINE_FINALIZED = "engine.finalized"

JOURNAL_APPEND = "journal.append"
JOURNAL_COMPACT = "journal.compact"
JOURNAL_SNAPSHOT = "journal.snapshot"

RECOVERY_CRASH = "recovery.crash"
RECOVERY_RESTART = "recovery.restart"
RECOVERY_RESTART_FAILED = "recovery.restart_failed"
RECOVERY_REFUSED = "recovery.refused"
RECOVERY_REPLAYED = "recovery.replayed"

FLEET_PLANNED = "fleet.planned"
FLEET_SLOT_STARTED = "fleet.slot_started"
FLEET_SHED = "fleet.shed"
FLEET_EXPERIMENT_CRASHED = "fleet.experiment_crashed"
FLEET_EXPERIMENT_RESTARTED = "fleet.experiment_restarted"
FLEET_EXPERIMENT_OUTCOME = "fleet.experiment_outcome"
FLEET_SLOT_COMMITTED = "fleet.slot_committed"
FLEET_RECOVERED = "fleet.recovered"
FLEET_FINISHED = "fleet.finished"

FENRIR_GENERATION = "fenrir.generation"
FENRIR_SEARCH_COMPLETED = "fenrir.search_completed"
FENRIR_SCHEDULE = "fenrir.schedule"

TOPOLOGY_HEALTH = "topology.health_published"

#: Burn-rate alerting (:mod:`repro.obs.alerts`): edge-triggered firing
#: and resolution of multi-window error-budget rules.
ALERT_FIRED = "alert.fired"
ALERT_RESOLVED = "alert.resolved"

#: Decision provenance (:mod:`repro.obs.provenance`): one node per
#: engine state transition, linking the evidence records (check-event
#: seqs), active alerts, and active faults that caused it.
DECISION_RECORDED = "decision.recorded"

#: Sentinel record kind marking that a bounded ring evicted events before
#: an export, so the exported stream is missing an unknown-length prefix.
OBS_TRUNCATED = "obs.truncated"


@dataclass(frozen=True)
class Event:
    """One structured occurrence in the experimentation machinery.

    Attributes:
        seq: monotonic sequence number, unique per :class:`EventLog`.
        time: logical timestamp in the emitter's own unit (simulated
            seconds for Bifrost/topology, evaluations used for Fenrir).
        kind: dotted event kind (see the module-level taxonomy).
        data: kind-specific JSON-compatible payload.
    """

    seq: int
    time: float
    kind: str
    data: Mapping = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-compatible dict form (the JSONL line layout)."""
        return {
            "seq": self.seq,
            "time": self.time,
            "kind": self.kind,
            "data": dict(self.data),
        }

    def describe(self) -> str:
        """Human-readable one-liner for dashboards and debugging."""
        payload = ", ".join(f"{k}={v}" for k, v in self.data.items())
        return f"#{self.seq} [{self.time:10.3f}] {self.kind} {payload}"


def event_from_dict(doc: Mapping) -> Event:
    """Rebuild one event from its :meth:`Event.as_dict` form.

    Raises :class:`ValidationError` on a malformed document, so corrupt
    JSONL exports surface at load time rather than mid-analysis.
    """
    try:
        return Event(
            seq=int(doc["seq"]),
            time=float(doc["time"]),
            kind=str(doc["kind"]),
            data=dict(doc["data"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed event document: {exc}") from exc


def is_truncation(event: Event) -> bool:
    """Whether *event* is a ring-eviction truncation sentinel."""
    return event.kind == OBS_TRUNCATED


def stream_truncation(events: Iterable[Event]) -> Event | None:
    """The truncation sentinel carried by *events*, if any."""
    for event in events:
        if is_truncation(event):
            return event
    return None


def load_jsonl(lines: Iterable[str], *, on_truncated: str = "warn") -> list[Event]:
    """Decode an iterable of JSONL lines back into events.

    *on_truncated* selects the policy applied when the stream carries an
    :data:`OBS_TRUNCATED` sentinel (the ring evicted a prefix before the
    export): ``"warn"`` (default) issues a :class:`TruncatedStreamWarning`
    and keeps the sentinel in the returned list so downstream consumers
    can make their own call; ``"error"`` raises :class:`ValidationError`;
    ``"ignore"`` passes the sentinel through silently.
    """
    if on_truncated not in {"warn", "error", "ignore"}:
        raise ValidationError(
            f"on_truncated must be 'warn', 'error', or 'ignore', "
            f"got {on_truncated!r}"
        )
    events = []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"undecodable event line: {exc}") from exc
        event = event_from_dict(doc)
        if is_truncation(event):
            dropped = event.data.get("dropped", "?")
            if on_truncated == "error":
                raise ValidationError(
                    f"event stream is truncated: {dropped} events were "
                    "evicted from the bounded ring before the export"
                )
            if on_truncated == "warn":
                warnings.warn(
                    f"event stream is truncated ({dropped} events evicted "
                    "before export); timelines reconstructed from it would "
                    "be missing their prefix",
                    TruncatedStreamWarning,
                    stacklevel=2,
                )
        events.append(event)
    return events


class EventLog:
    """A bounded, subscribable ring of :class:`Event` records.

    Appends assign strictly increasing sequence numbers; the ring keeps
    the most recent *capacity* events and counts evictions.  Subscribers
    receive every event at append time (before any eviction), so a sink
    attached from the start sees the complete stream even when the ring
    only retains a suffix.
    """

    def __init__(self, capacity: int = 65_536) -> None:
        if capacity <= 0:
            raise ValidationError("event log capacity must be positive")
        self.capacity = capacity
        self._ring: deque[Event] = deque(maxlen=capacity)
        self._next_seq = 1
        self._appended = 0
        self._counts: Counter[str] = Counter()
        self._subscribers: list[Callable[[Event], None]] = []

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[Event]:
        return iter(tuple(self._ring))

    @property
    def appended(self) -> int:
        """Total events ever appended (retained + dropped)."""
        return self._appended

    @property
    def dropped(self) -> int:
        """Events the ring has shed to stay within capacity."""
        return self._appended - len(self._ring)

    @property
    def first_retained_seq(self) -> int:
        """Sequence number of the oldest retained event (0 when empty)."""
        return self._ring[0].seq if self._ring else 0

    def append(self, kind: str, time: float, data: Mapping | None = None) -> Event:
        """Record one event and fan it out to subscribers."""
        event = Event(self._next_seq, float(time), kind, dict(data or {}))
        self._next_seq += 1
        self._appended += 1
        self._counts[kind] += 1
        self._ring.append(event)
        for subscriber in self._subscribers:
            subscriber(event)
        return event

    def subscribe(self, callback: Callable[[Event], None]) -> None:
        """Call *callback* for every subsequently appended event."""
        self._subscribers.append(callback)

    def counts_by_kind(self) -> dict[str, int]:
        """Lifetime append counts per event kind (evictions included)."""
        return dict(self._counts)

    def replay(
        self,
        kinds: Iterable[str] | None = None,
        since_seq: int = 0,
    ) -> Iterator[Event]:
        """Iterate retained events in sequence order, optionally filtered.

        *kinds* restricts to the given event kinds; *since_seq* skips
        events with ``seq <= since_seq`` — the idiom for incremental
        consumers that remember where they stopped.
        """
        wanted = frozenset(kinds) if kinds is not None else None
        for event in tuple(self._ring):
            if event.seq <= since_seq:
                continue
            if wanted is not None and event.kind not in wanted:
                continue
            yield event

    def events(
        self, kinds: Iterable[str] | None = None, since_seq: int = 0
    ) -> list[Event]:
        """List form of :meth:`replay`."""
        return list(self.replay(kinds, since_seq))

    def tail(self, n: int = 10) -> list[Event]:
        """The *n* most recent retained events."""
        if n <= 0:
            return []
        ring = tuple(self._ring)
        return list(ring[-n:])

    def truncation_sentinel(self) -> Event | None:
        """Sentinel describing evicted events, or None when lossless.

        When the ring has shed events, exports are missing an
        unknown-length prefix; the sentinel records how many events were
        dropped and where the retained window starts, so consumers can
        refuse (or warn) instead of silently reconstructing a wrong
        history.  The sentinel's ``seq`` is the last evicted sequence
        number — one below :attr:`first_retained_seq` — so a sorted
        export keeps it first.
        """
        if self.dropped == 0:
            return None
        first = self.first_retained_seq
        return Event(
            seq=first - 1,
            time=self._ring[0].time if self._ring else 0.0,
            kind=OBS_TRUNCATED,
            data={"dropped": self.dropped, "first_retained_seq": first},
        )

    def jsonl_lines(self) -> Iterator[str]:
        """Retained events as compact JSON lines.

        When the ring has evicted events, the first line is an
        :data:`OBS_TRUNCATED` sentinel (see :meth:`truncation_sentinel`)
        so the export is self-describing about its missing prefix.
        """
        sentinel = self.truncation_sentinel()
        if sentinel is not None:
            yield dump(sentinel.as_dict())
        for event in tuple(self._ring):
            yield dump(event.as_dict())

    def clear(self) -> None:
        """Drop retained events (sequence numbers keep increasing)."""
        self._ring.clear()

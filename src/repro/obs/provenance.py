"""Decision provenance: every engine verdict explains itself.

A Bifrost outcome (promote / rollback / inconclusive) used to be a bare
enum; the evidence behind it — which metric windows, how many samples,
which check evaluations, which faults and alerts were active — was
scattered across the event log.  This module turns that log into a
causal DAG:

* every :data:`~repro.obs.events.ENGINE_CHECK` evaluation becomes an
  :class:`Evidence` record (metric family, window bounds, sample count,
  aggregate value, reference, margin, outcome);
* every state transition becomes a :class:`Decision` node linking the
  evidence records of the current phase stay, the alerts and transient
  faults active at decision time, and the triggering transition event's
  sequence number;
* :data:`~repro.obs.events.ALERT_FIRED` / ``alert.resolved`` pairs
  become :class:`AlertSpan` intervals;
* every :data:`~repro.obs.events.ENGINE_PHASE_ENTERED` opens a
  :class:`PhaseSpan` that the next matching
  :data:`~repro.obs.events.ENGINE_TRANSITION` closes, so each
  :class:`StrategyProvenance` is also the strategy's timeline
  (:mod:`repro.obs.timeline` verifies and renders it).

This is the only fold over engine-lifecycle events, and it runs in two
places.  The engine feeds each event it emits into its observer's
:class:`ProvenanceTracker` the moment it is emitted, so the engine-side
graph is always live; :func:`build_provenance` runs an identical fresh
fold over nothing but an exported event stream.  The two graphs are
equal *by construction* — the property suite pins the remaining risk,
export → JSONL → load fidelity, across randomized topologies and across
REPLAY of a SIM recording.

:func:`render_decision_report` answers "why did this canary roll back?"
in one call: the terminal decision, each linked evidence record with its
observed-vs-reference comparison and margin, and the alerts/faults that
were live — as ASCII, graphviz dot, or JSONL.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import ValidationError
from repro.obs.canonical import dump
from repro.obs.events import (
    ALERT_FIRED,
    ALERT_RESOLVED,
    DECISION_RECORDED,
    ENGINE_CHECK,
    ENGINE_FINALIZED,
    ENGINE_PHASE_ENTERED,
    ENGINE_SUBMITTED,
    ENGINE_TRANSITION,
    ENGINE_WINNER,
    Event,
    is_truncation,
)


def evidence_margin(
    operator: str, observed: float | None, reference: float | None
) -> float | None:
    """Signed headroom of one comparison: positive means passing.

    For ``<`` / ``<=`` checks the margin is ``reference - observed``
    (how far below the bound the observation sits); for ``>`` / ``>=``
    it is ``observed - reference``.  None when either side is missing
    (inconclusive evaluations carry no margin).
    """
    if observed is None or reference is None:
        return None
    if operator in ("<", "<="):
        return reference - observed
    return observed - reference


@dataclass(frozen=True)
class Evidence:
    """One check evaluation, self-describing enough to audit alone.

    ``seq`` is the underlying :data:`ENGINE_CHECK` event's sequence
    number — the stable identity :class:`Decision` nodes link to.
    """

    seq: int
    time: float
    strategy: str
    phase: str
    check: str
    service: str
    version: str
    metric: str
    aggregation: str
    operator: str
    window_start: float
    window_end: float
    samples: int | None
    observed: float | None
    reference: float | None
    margin: float | None
    outcome: str

    @property
    def failing(self) -> bool:
        """Whether this evaluation failed its comparison."""
        return self.outcome == "fail"

    def as_dict(self) -> dict:
        return {
            "seq": self.seq,
            "time": self.time,
            "strategy": self.strategy,
            "phase": self.phase,
            "check": self.check,
            "service": self.service,
            "version": self.version,
            "metric": self.metric,
            "aggregation": self.aggregation,
            "operator": self.operator,
            "window_start": self.window_start,
            "window_end": self.window_end,
            "samples": self.samples,
            "observed": self.observed,
            "reference": self.reference,
            "margin": self.margin,
            "outcome": self.outcome,
        }

    def describe(self) -> str:
        """One audit line: what was measured against what, and how close."""
        observed = "n/a" if self.observed is None else f"{self.observed:.4g}"
        reference = "n/a" if self.reference is None else f"{self.reference:.4g}"
        margin = "" if self.margin is None else f" margin={self.margin:+.4g}"
        samples = "?" if self.samples is None else str(self.samples)
        return (
            f"[e{self.seq}] {self.check}: {self.outcome} — "
            f"{self.aggregation}({self.service}@{self.version}/{self.metric}) "
            f"over [{self.window_start:.1f}, {self.window_end:.1f})s "
            f"n={samples} = {observed} {self.operator} {reference}{margin}"
        )


@dataclass(frozen=True)
class Decision:
    """One state transition plus everything that caused it.

    ``evidence`` holds the seqs of the :class:`Evidence` records the
    deciding phase stay produced (latest evaluation per check);
    ``alerts`` / ``faults`` name the burn-rate rules firing and the
    transient faults whose windows covered the decision time.
    ``transition_seq`` is the :data:`~repro.obs.events.ENGINE_TRANSITION`
    event this decision annotates; ``seq`` is the decision event's own.
    """

    seq: int
    time: float
    strategy: str
    source: str
    target: str
    trigger: str
    action: str
    transition_seq: int | None
    evidence: tuple[int, ...] = ()
    alerts: tuple[str, ...] = ()
    faults: tuple[str, ...] = ()
    terminal: bool = False

    def as_dict(self) -> dict:
        return {
            "seq": self.seq,
            "time": self.time,
            "strategy": self.strategy,
            "source": self.source,
            "target": self.target,
            "trigger": self.trigger,
            "action": self.action,
            "transition_seq": self.transition_seq,
            "evidence": list(self.evidence),
            "alerts": list(self.alerts),
            "faults": list(self.faults),
            "terminal": self.terminal,
        }


@dataclass
class AlertSpan:
    """One firing interval of one burn-rate rule."""

    rule: str
    fired_at: float
    fired_seq: int
    burn: float | None = None
    resolved_at: float | None = None
    resolved_seq: int | None = None

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "fired_at": self.fired_at,
            "fired_seq": self.fired_seq,
            "burn": self.burn,
            "resolved_at": self.resolved_at,
            "resolved_seq": self.resolved_seq,
        }


@dataclass
class PhaseSpan:
    """One stay in one phase: entry, evidence, and the exit transition."""

    name: str
    entered_at: float
    exited_at: float | None = None
    trigger: str | None = None
    target: str | None = None
    action: str | None = None
    evidence: list[Evidence] = field(default_factory=list, init=False)

    def outcome_counts(self) -> dict[str, int]:
        """Check outcomes observed during this stay, by outcome value."""
        counts: dict[str, int] = {}
        for item in self.evidence:
            counts[item.outcome] = counts.get(item.outcome, 0) + 1
        return counts


@dataclass
class StrategyProvenance:
    """The causal record, and the timeline, of one strategy execution.

    ``phases`` and ``truncated_dropped`` stay out of :meth:`as_dict`:
    the stays regroup the evidence and decisions the dict already holds.
    """

    strategy: str
    submitted_at: float | None = None
    evidence: dict[int, Evidence] = field(default_factory=dict, init=False)
    decisions: list[Decision] = field(default_factory=list, init=False)
    phases: list[PhaseSpan] = field(default_factory=list, init=False)
    winner: str | None = None
    terminal: str | None = None
    outcome: str | None = None
    promoted: str | None = None
    finished_at: float | None = None
    #: Events evicted before the stream this record was folded from —
    #: nonzero means the history below is a *suffix*, not the full run.
    truncated_dropped: int = 0

    @property
    def open_phase(self) -> PhaseSpan | None:
        """The phase currently being executed (None once finished)."""
        if self.phases and self.phases[-1].exited_at is None:
            return self.phases[-1]
        return None

    @property
    def transitions(self) -> list[tuple[float, str, str, str, str]]:
        """Each decision's transition as ``(time, source, target, trigger,
        action)`` — the engine records one decision per transition."""
        return [
            (d.time, d.source, d.target, d.trigger, d.action)
            for d in self.decisions
        ]

    def as_dict(self) -> dict:
        return {
            "strategy": self.strategy,
            "submitted_at": self.submitted_at,
            "evidence": [
                self.evidence[seq].as_dict() for seq in sorted(self.evidence)
            ],
            "decisions": [decision.as_dict() for decision in self.decisions],
            "winner": self.winner,
            "terminal": self.terminal,
            "outcome": self.outcome,
            "promoted": self.promoted,
            "finished_at": self.finished_at,
        }


@dataclass
class ProvenanceGraph:
    """Every strategy's causal record plus the alert timeline."""

    strategies: dict[str, StrategyProvenance] = field(default_factory=dict)
    alerts: list[AlertSpan] = field(default_factory=list)

    def strategy(self, name: str) -> StrategyProvenance:
        """Look up one strategy's provenance (KeyError when unknown)."""
        return self.strategies[name]

    def evidence_for(self, decision: Decision) -> list[Evidence]:
        """Resolve a decision's evidence links to the records themselves.

        Links whose evidence record is unknown (e.g. folded from a
        truncated stream) are silently skipped — the decision still
        carries the seq for manual archaeology.
        """
        pool = self.strategies.get(decision.strategy)
        if pool is None:
            return []
        return [
            pool.evidence[seq]
            for seq in decision.evidence
            if seq in pool.evidence
        ]

    def as_dict(self) -> dict:
        return {
            "strategies": [
                self.strategies[name].as_dict()
                for name in sorted(self.strategies)
            ],
            "alerts": [span.as_dict() for span in self.alerts],
        }

    def digest(self) -> str:
        """Content digest of the canonical JSON form."""
        return hashlib.sha256(dump(self.as_dict()).encode("utf-8")).hexdigest()


def evidence_from_event(event: Event) -> Evidence:
    """Build one :class:`Evidence` record from an ENGINE_CHECK event."""
    data = event.data
    samples = data.get("samples")
    return Evidence(
        seq=event.seq,
        time=event.time,
        strategy=str(data.get("strategy", "")),
        phase=str(data.get("phase", "")),
        check=str(data.get("check", "")),
        service=str(data.get("service", "")),
        version=str(data.get("version", "")),
        metric=str(data.get("metric", "")),
        aggregation=str(data.get("aggregation", "")),
        operator=str(data.get("operator", "")),
        window_start=float(data.get("window_start", event.time)),
        window_end=event.time,
        samples=None if samples is None else int(samples),
        observed=data.get("observed"),
        reference=data.get("reference"),
        margin=data.get("margin"),
        outcome=str(data.get("outcome", "")),
    )


def decision_from_event(event: Event) -> Decision:
    """Build one :class:`Decision` node from a DECISION_RECORDED event."""
    data = event.data
    transition_seq = data.get("transition_seq")
    return Decision(
        seq=event.seq,
        time=event.time,
        strategy=str(data.get("strategy", "")),
        source=str(data.get("source", "")),
        target=str(data.get("target", "")),
        trigger=str(data.get("trigger", "")),
        action=str(data.get("action", "")),
        transition_seq=None if transition_seq is None else int(transition_seq),
        evidence=tuple(int(seq) for seq in data.get("evidence", ())),
        alerts=tuple(str(name) for name in data.get("alerts", ())),
        faults=tuple(str(name) for name in data.get("faults", ())),
        terminal=bool(data.get("terminal", False)),
    )


class ProvenanceTracker:
    """Folds events into a :class:`ProvenanceGraph`, one at a time.

    The engine holds one per observer and feeds every event it emits;
    :func:`build_provenance` runs the identical fold over an exported
    stream.  The engine links each decision to its evidence through
    :meth:`stay_evidence`, which reads the strategy's latest phase stay.
    """

    def __init__(self) -> None:
        self._strategies: dict[str, StrategyProvenance] = {}
        self._alerts: list[AlertSpan] = []
        self._open_alerts: dict[str, AlertSpan] = {}

    def _strategy(self, name: str) -> StrategyProvenance:
        record = self._strategies.get(name)
        if record is None:
            record = StrategyProvenance(strategy=name)
            self._strategies[name] = record
        return record

    def record(self, event: Event) -> None:
        """Fold one event into the graph (non-provenance kinds ignored)."""
        kind = event.kind
        data = event.data
        if kind == ENGINE_CHECK:
            evidence = evidence_from_event(event)
            record = self._strategy(evidence.strategy)
            record.evidence[evidence.seq] = evidence
            span = record.open_phase
            if span is None:
                # Defensive: a check without an open stay still shows up.
                span = PhaseSpan(name=evidence.phase, entered_at=event.time)
                record.phases.append(span)
            span.evidence.append(evidence)
        elif kind == DECISION_RECORDED:
            decision = decision_from_event(event)
            self._strategy(decision.strategy).decisions.append(decision)
        elif kind == ENGINE_PHASE_ENTERED:
            record = self._strategy(str(data.get("strategy", "")))
            record.phases.append(
                PhaseSpan(name=str(data.get("phase", "")), entered_at=event.time)
            )
        elif kind == ENGINE_TRANSITION:
            span = self._strategy(str(data.get("strategy", ""))).open_phase
            if span is not None and span.name == data.get("source"):
                span.exited_at = event.time
                span.trigger = str(data.get("trigger", ""))
                span.target = str(data.get("target", ""))
                span.action = str(data.get("action", ""))
        elif kind == ENGINE_SUBMITTED:
            record = self._strategy(str(data.get("strategy", "")))
            record.submitted_at = float(data.get("start", event.time))
        elif kind == ENGINE_WINNER:
            record = self._strategy(str(data.get("strategy", "")))
            record.winner = str(data.get("version"))
        elif kind == ENGINE_FINALIZED:
            record = self._strategy(str(data.get("strategy", "")))
            record.terminal = str(data.get("terminal", ""))
            record.outcome = str(data.get("outcome", ""))
            record.promoted = data.get("promoted")
            record.finished_at = event.time
        elif kind == ALERT_FIRED:
            rule = str(data.get("rule", ""))
            span = AlertSpan(
                rule=rule,
                fired_at=event.time,
                fired_seq=event.seq,
                burn=data.get("burn"),
            )
            self._alerts.append(span)
            self._open_alerts[rule] = span
        elif kind == ALERT_RESOLVED:
            rule = str(data.get("rule", ""))
            span = self._open_alerts.pop(rule, None)
            if span is not None:
                span.resolved_at = event.time
                span.resolved_seq = event.seq

    def stay_evidence(self, strategy: str) -> tuple[int, ...]:
        """Evidence seqs of the latest phase stay (latest per check).

        The stay counts whether or not it is closed: the engine asks just
        after emitting the transition that closed it.
        """
        record = self._strategies.get(strategy)
        if record is None or not record.phases:
            return ()
        latest = {item.check: item.seq for item in record.phases[-1].evidence}
        return tuple(sorted(latest.values()))

    def graph(self) -> ProvenanceGraph:
        """The graph folded so far (a live view, not a copy)."""
        return ProvenanceGraph(
            strategies=self._strategies, alerts=self._alerts
        )


def build_provenance(
    events: Iterable[Event], *, allow_truncated: bool = False
) -> ProvenanceGraph:
    """Reconstruct the provenance graph from an event stream alone.

    Runs the same fold the engine runs live, so for a lossless export
    the result equals the engine-side graph exactly (digest-equal).  A
    stream carrying an :data:`~repro.obs.events.OBS_TRUNCATED` sentinel
    is refused — a DAG folded from a suffix would silently drop evidence
    decisions still link to — unless ``allow_truncated=True``, which
    labels every record with the evicted count (``truncated_dropped``).
    """
    tracker = ProvenanceTracker()
    evicted = 0
    for event in events:
        if is_truncation(event):
            if not allow_truncated:
                dropped = event.data.get("dropped", "?")
                raise ValidationError(
                    f"refusing to build provenance from a truncated event "
                    f"stream ({dropped} events evicted before export); pass "
                    "allow_truncated=True to fold the surviving tail anyway"
                )
            evicted += int(event.data.get("dropped", 0) or 0)
            continue
        tracker.record(event)
    graph = tracker.graph()
    for record in graph.strategies.values():
        record.truncated_dropped = evicted
    return graph


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

REPORT_FORMATS = ("ascii", "dot", "jsonl")


def render_decision_report(
    graph: ProvenanceGraph, strategy: str, fmt: str = "ascii"
) -> str:
    """Answer "why did this strategy end the way it did?" in one call.

    *fmt* selects ``ascii`` (terminal audit trail), ``dot`` (graphviz
    DAG of evidence → decision edges), or ``jsonl`` (one machine-
    readable line per node).
    """
    if fmt not in REPORT_FORMATS:
        raise ValidationError(
            f"unknown report format {fmt!r}; expected one of {REPORT_FORMATS}"
        )
    record = graph.strategies.get(strategy)
    if record is None:
        raise ValidationError(f"no provenance recorded for strategy {strategy!r}")
    if fmt == "jsonl":
        return _render_jsonl(graph, record)
    if fmt == "dot":
        return _render_dot(graph, record)
    return _render_ascii(graph, record)


def _render_ascii(graph: ProvenanceGraph, record: StrategyProvenance) -> str:
    verdict = record.outcome or "running"
    lines = [f"strategy {record.strategy} — {verdict}"]
    if record.finished_at is not None:
        lines[0] += f" at {record.finished_at:.1f}s"
    if record.truncated_dropped:
        lines.insert(0, f"[TRUNCATED: {record.truncated_dropped} events dropped]")
    if record.winner is not None:
        lines.append(f"  winner: {record.winner}")
    if record.promoted:
        lines.append(f"  promoted: {record.promoted}")
    for decision in record.decisions:
        marker = "decision*" if decision.terminal else "decision"
        lines.append(
            f"  [d{decision.seq}] {marker} @ {decision.time:.1f}s: "
            f"{decision.source} --{decision.trigger}--> {decision.target} "
            f"({decision.action})"
        )
        evidence = graph.evidence_for(decision)
        for item in evidence:
            flag = "  !! " if item.failing else "     "
            lines.append(flag + item.describe())
        missing = len(decision.evidence) - len(evidence)
        if missing:
            lines.append(f"     ({missing} evidence records not retained)")
        if decision.alerts:
            lines.append(f"     alerts firing: {', '.join(decision.alerts)}")
        if decision.faults:
            lines.append(f"     faults active: {', '.join(decision.faults)}")
    return "\n".join(lines)


def _render_dot(graph: ProvenanceGraph, record: StrategyProvenance) -> str:
    lines = [
        f'digraph "{record.strategy}-provenance" {{',
        "  rankdir=LR;",
    ]
    for decision in record.decisions:
        shape = "doubleoctagon" if decision.terminal else "octagon"
        lines.append(
            f'  "d{decision.seq}" [shape={shape}, '
            f'label="{decision.source} -> {decision.target}\\n'
            f'{decision.trigger}/{decision.action}\\n@{decision.time:.1f}s"];'
        )
        for item in graph.evidence_for(decision):
            color = "red" if item.failing else "black"
            lines.append(
                f'  "e{item.seq}" [shape=box, color={color}, '
                f'label="{item.check}\\n{item.outcome}"];'
            )
            lines.append(f'  "e{item.seq}" -> "d{decision.seq}";')
        for rule in decision.alerts:
            lines.append(f'  "alert:{rule}" [shape=diamond];')
            lines.append(f'  "alert:{rule}" -> "d{decision.seq}";')
        for fault in decision.faults:
            lines.append(f'  "fault:{fault}" [shape=trapezium];')
            lines.append(f'  "fault:{fault}" -> "d{decision.seq}";')
    lines.append("}")
    return "\n".join(lines)


def _render_jsonl(graph: ProvenanceGraph, record: StrategyProvenance) -> str:
    lines = [
        dump(
            {
                "type": "strategy",
                "strategy": record.strategy,
                "outcome": record.outcome,
                "terminal": record.terminal,
                "winner": record.winner,
                "promoted": record.promoted,
                "finished_at": record.finished_at,
            }
        )
    ]
    for seq in sorted(record.evidence):
        lines.append(dump({"type": "evidence", **record.evidence[seq].as_dict()}))
    for decision in record.decisions:
        lines.append(dump({"type": "decision", **decision.as_dict()}))
    return "\n".join(lines)


__all__ = [
    "AlertSpan",
    "Decision",
    "Evidence",
    "PhaseSpan",
    "ProvenanceGraph",
    "ProvenanceTracker",
    "REPORT_FORMATS",
    "StrategyProvenance",
    "build_provenance",
    "decision_from_event",
    "evidence_from_event",
    "evidence_margin",
    "render_decision_report",
]

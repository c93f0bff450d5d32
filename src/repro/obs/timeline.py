"""Experiment timelines reconstructed purely from the event stream.

The engine keeps its own execution record (:class:`StrategyExecution`
transitions and check logs).  This module rebuilds the same history from
nothing but the :class:`~repro.obs.events.EventLog` — the proof that the
glass-box layer captures enough to debug a run after the fact — and
renders it as ASCII (for terminals) or dot (for graphviz).

:func:`diff_timeline_execution` verifies the reconstruction against the
engine's record field by field; the e2e suite asserts it returns no
differences for full canary/A-B/recovery runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.errors import ValidationError
from repro.obs.events import (
    ENGINE_CHECK,
    ENGINE_FINALIZED,
    ENGINE_PHASE_ENTERED,
    ENGINE_SUBMITTED,
    ENGINE_TRANSITION,
    ENGINE_WINNER,
    TIMELINE_KINDS,
    Event,
    is_truncation,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bifrost.engine import StrategyExecution


@dataclass(frozen=True)
class CheckPoint:
    """One check evaluation as the event stream recorded it."""

    time: float
    check: str
    outcome: str
    observed: float | None
    reference: float | None


@dataclass
class PhaseSpan:
    """One stay in one phase: entry, checks, and the exit transition."""

    name: str
    entered_at: float
    exited_at: float | None = None
    trigger: str | None = None
    target: str | None = None
    action: str | None = None
    checks: list[CheckPoint] = field(default_factory=list)

    def outcome_counts(self) -> dict[str, int]:
        """Check outcomes observed during this stay, by outcome value."""
        counts: dict[str, int] = {}
        for point in self.checks:
            counts[point.outcome] = counts.get(point.outcome, 0) + 1
        return counts


@dataclass
class ExperimentTimeline:
    """The reconstructed history of one strategy execution."""

    strategy: str
    submitted_at: float | None = None
    phases: list[PhaseSpan] = field(default_factory=list)
    transitions: list[tuple[float, str, str, str, str]] = field(default_factory=list)
    winner: str | None = None
    terminal: str | None = None
    outcome: str | None = None
    promoted: str | None = None
    finished_at: float | None = None
    #: Events evicted before the stream this timeline was folded from —
    #: nonzero means the history below is a *suffix*, not the full run.
    truncated_dropped: int = 0

    @property
    def check_points(self) -> list[CheckPoint]:
        """Every check evaluation across all phase stays, in order."""
        return [point for span in self.phases for point in span.checks]

    @property
    def open_phase(self) -> PhaseSpan | None:
        """The phase currently being executed (None once finished)."""
        if self.phases and self.phases[-1].exited_at is None:
            return self.phases[-1]
        return None


def reconstruct_timelines(
    events: Iterable[Event], *, allow_truncated: bool = False
) -> dict[str, ExperimentTimeline]:
    """Fold engine-lifecycle events into per-strategy timelines.

    Events must arrive in sequence order (any :meth:`EventLog.replay`
    does this); kinds outside :data:`~repro.obs.events.TIMELINE_KINDS`
    are ignored, so the full mixed log can be passed verbatim.

    A stream carrying an :data:`~repro.obs.events.OBS_TRUNCATED`
    sentinel (the bounded ring evicted a prefix before export) is
    refused with :class:`ValidationError` — a timeline folded from a
    suffix would silently misreport phase entries and checks.  Pass
    ``allow_truncated=True`` to fold the surviving tail anyway.
    """
    timelines: dict[str, ExperimentTimeline] = {}
    dropped_total = 0
    for event in events:
        if is_truncation(event):
            if not allow_truncated:
                dropped = event.data.get("dropped", "?")
                raise ValidationError(
                    f"refusing to reconstruct timelines from a truncated "
                    f"event stream ({dropped} events evicted before "
                    "export); pass allow_truncated=True to fold the "
                    "surviving tail anyway"
                )
            dropped_total += int(event.data.get("dropped", 0) or 0)
            continue
        if event.kind not in TIMELINE_KINDS:
            continue
        data = event.data
        name = str(data.get("strategy", ""))
        timeline = timelines.get(name)
        if timeline is None:
            timeline = ExperimentTimeline(strategy=name)
            timelines[name] = timeline
        if event.kind == ENGINE_SUBMITTED:
            timeline.submitted_at = float(data["start"])
        elif event.kind == ENGINE_PHASE_ENTERED:
            timeline.phases.append(
                PhaseSpan(name=str(data["phase"]), entered_at=event.time)
            )
        elif event.kind == ENGINE_CHECK:
            span = timeline.open_phase
            point = CheckPoint(
                time=event.time,
                check=str(data["check"]),
                outcome=str(data["outcome"]),
                observed=data.get("observed"),
                reference=data.get("reference"),
            )
            if span is None:
                # Defensive: a check without an open phase still shows up.
                span = PhaseSpan(name=str(data.get("phase", "?")), entered_at=event.time)
                timeline.phases.append(span)
            span.checks.append(point)
        elif event.kind == ENGINE_TRANSITION:
            record = (
                event.time,
                str(data["source"]),
                str(data["target"]),
                str(data["trigger"]),
                str(data["action"]),
            )
            timeline.transitions.append(record)
            span = timeline.open_phase
            if span is not None and span.name == data["source"]:
                span.exited_at = event.time
                span.trigger = str(data["trigger"])
                span.target = str(data["target"])
                span.action = str(data["action"])
        elif event.kind == ENGINE_WINNER:
            timeline.winner = str(data["version"])
        elif event.kind == ENGINE_FINALIZED:
            timeline.terminal = str(data["terminal"])
            timeline.outcome = str(data["outcome"])
            timeline.promoted = data.get("promoted")
            timeline.finished_at = event.time
    if dropped_total:
        for timeline in timelines.values():
            timeline.truncated_dropped = dropped_total
    return timelines


# ---------------------------------------------------------------------------
# verification against the engine's own record
# ---------------------------------------------------------------------------


def diff_timeline_execution(
    timeline: ExperimentTimeline, execution: "StrategyExecution"
) -> list[str]:
    """Field-by-field differences between reconstruction and engine record.

    Empty list == the timeline rebuilt from the event log alone matches
    the engine's phase/check history exactly: same phase entry sequence,
    same check evaluations (time, name, outcome, observed, reference),
    same transitions, same terminal outcome and winner.
    """
    from repro.bifrost.model import TERMINAL_STATES

    problems: list[str] = []
    if timeline.strategy != execution.strategy.name:
        problems.append(
            f"strategy name: {timeline.strategy!r} != {execution.strategy.name!r}"
        )
    expected_phases: list[str] = []
    if execution.phase_entries > 0:
        expected_phases.append(execution.strategy.entry.name)
        expected_phases.extend(
            record.target
            for record in execution.transitions
            if record.target not in TERMINAL_STATES
        )
    got_phases = [span.name for span in timeline.phases]
    if got_phases != expected_phases:
        problems.append(f"phase sequence: {got_phases} != {expected_phases}")
    if len(timeline.phases) != execution.phase_entries:
        problems.append(
            f"phase entries: {len(timeline.phases)} != {execution.phase_entries}"
        )
    got_checks = [
        (p.time, p.check, p.outcome, p.observed, p.reference)
        for p in timeline.check_points
    ]
    expected_checks = [
        (r.time, r.check.name, r.outcome.value, r.observed, r.reference)
        for r in execution.check_log
    ]
    if got_checks != expected_checks:
        problems.append(
            f"checks: {len(got_checks)} reconstructed vs "
            f"{len(expected_checks)} recorded (or payloads differ)"
        )
    got_transitions = timeline.transitions
    expected_transitions = [
        (r.time, r.source, r.target, r.trigger, r.action.value)
        for r in execution.transitions
    ]
    if got_transitions != expected_transitions:
        problems.append(
            f"transitions: {got_transitions} != {expected_transitions}"
        )
    if timeline.winner != execution.winner:
        problems.append(f"winner: {timeline.winner!r} != {execution.winner!r}")
    finished = execution.finished_at is not None
    if finished:
        if timeline.terminal != execution.state:
            problems.append(
                f"terminal: {timeline.terminal!r} != {execution.state!r}"
            )
        if timeline.outcome != execution.outcome.value:
            problems.append(
                f"outcome: {timeline.outcome!r} != {execution.outcome.value!r}"
            )
        if timeline.finished_at != execution.finished_at:
            problems.append(
                f"finished_at: {timeline.finished_at} != {execution.finished_at}"
            )
    elif timeline.terminal is not None:
        problems.append(
            f"timeline finalized ({timeline.terminal}) but execution still "
            f"in {execution.state!r}"
        )
    return problems


def timeline_matches_execution(
    timeline: ExperimentTimeline, execution: "StrategyExecution"
) -> bool:
    """Whether the reconstruction equals the engine's record exactly."""
    return not diff_timeline_execution(timeline, execution)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def render_ascii(timeline: ExperimentTimeline) -> str:
    """Terminal rendering: one line per phase stay plus the verdict."""
    header = f"strategy {timeline.strategy}"
    if timeline.outcome is not None:
        header += f" — {timeline.outcome}"
        if timeline.finished_at is not None:
            header += f" at {timeline.finished_at:.1f}s"
    elif timeline.phases:
        header += " — running"
    lines = []
    if timeline.truncated_dropped:
        lines.append(f"[TRUNCATED: {timeline.truncated_dropped} events dropped]")
    lines.append(header)
    for span in timeline.phases:
        end = f"{span.exited_at:8.1f}" if span.exited_at is not None else "     ..."
        counts = span.outcome_counts()
        checks = " ".join(
            f"{outcome}={counts[outcome]}" for outcome in sorted(counts)
        )
        exit_note = ""
        if span.trigger is not None:
            exit_note = f"  --{span.trigger}--> {span.target}"
        lines.append(
            f"  [{span.entered_at:8.1f} ->{end}] {span.name:<16s} "
            f"checks: {checks or '(none)'}{exit_note}"
        )
    if timeline.winner is not None:
        lines.append(f"  winner: {timeline.winner}")
    if timeline.promoted:
        lines.append(f"  promoted: {timeline.promoted}")
    return "\n".join(lines)

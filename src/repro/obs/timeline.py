"""Experiment timelines: the provenance record read as a phase history.

The engine keeps its own execution record (:class:`StrategyExecution`
transitions and check logs).  The provenance fold
(:mod:`repro.obs.provenance`) rebuilds the same history from nothing but
the :class:`~repro.obs.events.EventLog`: each
:class:`~repro.obs.provenance.StrategyProvenance` carries its phase
stays, evidence and decisions.  This module checks that record against
the engine's — the proof that the glass-box layer captures enough to
debug a run after the fact — and renders it as ASCII for terminals.

:func:`diff_timeline_execution` verifies the record field by field; the
e2e suite asserts it returns no differences for full canary/A-B/recovery
runs, for the offline fold and for the engine's live one alike.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.obs.events import Event
from repro.obs.provenance import StrategyProvenance, build_provenance

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bifrost.engine import StrategyExecution


def reconstruct_timelines(
    events: Iterable[Event], *, allow_truncated: bool = False
) -> dict[str, StrategyProvenance]:
    """Per-strategy timelines folded from an event stream.

    The provenance fold's records by strategy name, with the same
    refusal of a truncated stream unless ``allow_truncated=True``.
    """
    return build_provenance(events, allow_truncated=allow_truncated).strategies


# ---------------------------------------------------------------------------
# verification against the engine's own record
# ---------------------------------------------------------------------------


def diff_timeline_execution(
    timeline: StrategyProvenance, execution: "StrategyExecution"
) -> list[str]:
    """Field-by-field differences between reconstruction and engine record.

    Empty list == the record rebuilt from the event log alone matches
    the engine's phase/check history exactly: same phase entry sequence,
    same check evaluations per stay (time, name, outcome, observed,
    reference), same transitions, same terminal outcome and winner.
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
        (e.time, e.check, e.outcome, e.observed, e.reference)
        for span in timeline.phases
        for e in span.evidence
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


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def render_ascii(timeline: StrategyProvenance) -> str:
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

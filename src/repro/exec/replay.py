"""REPLAY backend: re-drive a recorded experiment and diff the outcome.

The replay builds a fresh :class:`~repro.bifrost.middleware.Bifrost`
facade — the engine stack SIM runs on — and re-presents the recording's request
stream *as observations* through SIM's interleave loop,
:func:`~repro.simulation.batch.drive`: engine decisions due at or before
a recorded arrival run first, exactly as they did live, and the recorded
spans' samples reach the store, in their original order, before the next
engine event.  Because every check evaluation reads nothing but the store, the
replayed engine sees byte-identical inputs at identical logical times — so
a faithful replay is *digest-equal* to the recording
(:func:`~repro.exec.recording.run_digest`), and :func:`diff_replay` reports
any divergence outcome-by-outcome via
:func:`~repro.obs.timeline.diff_timeline_execution`.

Replaying a *modified* strategy against the same recorded traffic is the
what-if workflow: the diff then localizes exactly which checks and
transitions the modification changed.

Replays refuse truncated event streams (a bounded ring that evicted its
prefix before export) — re-driving a suffix would silently fabricate a
different experiment.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable

from repro.bifrost.dsl import parse_strategy
from repro.bifrost.middleware import Bifrost
from repro.bifrost.model import Strategy, strategy_from_dict
from repro.errors import ReplayError
from repro.exec.recording import Recording, run_digest
from repro.exec.sim import RunResult
from repro.microservices.application import Application
from repro.obs.observer import Observer
from repro.obs.timeline import diff_timeline_execution, reconstruct_timelines
from repro.simulation.batch import drive
from repro.telemetry.monitor import SpanSampleBuffer


@dataclass
class ReplayDiff:
    """Outcome-by-outcome comparison of a replay against its recording.

    ``strategy_diffs`` maps each strategy name to the field-level
    differences between the *recorded* timeline (reconstructed purely
    from the recording's event stream) and the *replayed* engine record;
    an empty list means that strategy re-ran identically.  ``digest``
    equality additionally covers the full metric store, so
    :attr:`identical` certifies the replay end to end.
    """

    recorded_digest: str
    replayed_digest: str
    outcomes_recorded: dict[str, str] = field(default_factory=dict)
    outcomes_replayed: dict[str, str] = field(default_factory=dict)
    strategy_diffs: dict[str, list[str]] = field(default_factory=dict, init=False)
    problems: list[str] = field(default_factory=list, init=False)

    @property
    def digest_match(self) -> bool:
        return bool(self.recorded_digest) and (
            self.recorded_digest == self.replayed_digest
        )

    @property
    def identical(self) -> bool:
        return (
            self.digest_match
            and not self.problems
            and all(not diffs for diffs in self.strategy_diffs.values())
        )

    def describe(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            "replay diff: "
            + ("IDENTICAL" if self.identical else "DIVERGED"),
            f"  digest: recorded={self.recorded_digest[:12]}… "
            f"replayed={self.replayed_digest[:12]}… "
            + ("(match)" if self.digest_match else "(MISMATCH)"),
        ]
        for name in sorted(set(self.outcomes_recorded) | set(self.outcomes_replayed)):
            rec = self.outcomes_recorded.get(name, "?")
            rep = self.outcomes_replayed.get(name, "?")
            marker = "==" if rec == rep else "!="
            lines.append(f"  outcome[{name}]: {rec} {marker} {rep}")
            for diff in self.strategy_diffs.get(name, ()):
                lines.append(f"    - {diff}")
        for problem in self.problems:
            lines.append(f"  ! {problem}")
        return "\n".join(lines)


class ReplayBackend:
    """Re-drives recordings against a fresh :class:`Bifrost` facade."""

    def __init__(
        self,
        application_factory: Callable[[], Application],
    ) -> None:
        self.application_factory = application_factory

    def execute(
        self,
        recording: Recording,
        strategy: Strategy | None = None,
    ) -> RunResult:
        """Replay *recording*; *strategy* overrides the recorded one.

        Raises :class:`ReplayError` when the recording's event stream is
        truncated or carries no strategy definition.
        """
        sentinel = recording.truncated
        if sentinel is not None:
            dropped = sentinel.data.get("dropped", "?")
            raise ReplayError(
                f"recording's event stream is truncated ({dropped} events "
                "evicted before export); re-driving the surviving suffix "
                "would fabricate a different experiment"
            )
        if strategy is None:
            if recording.strategy_doc is not None:
                strategy = strategy_from_dict(recording.strategy_doc)
            elif recording.strategy_dsl.strip():
                strategy = parse_strategy(recording.strategy_dsl)
            else:
                raise ReplayError("recording carries no strategy definition")
        middleware = Bifrost(self.application_factory(), observer=Observer(enabled=True))
        middleware.engine.submit(strategy, at=recording.submit_at)
        simulation, store = middleware.simulation, middleware.store
        requests = recording.requests
        span_ends = requests.span_ends
        columns = (requests.span_services, requests.span_versions, requests.span_starts,
                   requests.span_durations, requests.span_errors)
        samples = SpanSampleBuffer()

        def land_spans(lo: int, hi: int) -> None:
            first, last = span_ends[lo - 1] if lo else 0, span_ends[hi - 1]
            for span in zip(*(column[first:last] for column in columns)):
                samples.add(*span)
            samples.flush(store)

        # The clock never goes back: an arrival earlier than the one before
        # it was observed at the later time, and the run ends at the later
        # of the recording's end and its last arrival.
        timestamps = array("d", accumulate(requests.timestamps, max))
        drive(simulation, timestamps, land_spans)
        simulation.run_until(max([recording.end_time, *timestamps[-1:]]))
        return RunResult(
            middleware=middleware,
            strategy=strategy,
            requests=len(requests),
            errors=sum(requests.errors),
            digest=run_digest(store, middleware.engine.executions),
        )


def diff_replay(recording: Recording, result: RunResult) -> ReplayDiff:
    """Compare a replay against its recording, outcome by outcome.

    Folds the recording's event stream into provenance records — each
    one the strategy's timeline — refusing a truncated stream, diffs
    each replayed execution against its record field by field, and
    compares the run digests — full store contents, transitions, check
    log, terminals.
    """
    sentinel = recording.truncated
    if sentinel is not None:
        raise ReplayError(
            "cannot diff against a truncated recording "
            f"({sentinel.data.get('dropped', '?')} events evicted)"
        )
    timelines = reconstruct_timelines(recording.events)
    diff = ReplayDiff(
        recorded_digest=recording.digest,
        replayed_digest=result.digest,
        outcomes_recorded=dict(recording.outcomes),
        outcomes_replayed={
            e.strategy.name: e.outcome.value for e in result.executions
        },
    )
    replayed_by_name = {e.strategy.name: e for e in result.executions}
    for name, timeline in sorted(timelines.items()):
        execution = replayed_by_name.get(name)
        if execution is None:
            diff.problems.append(f"recorded strategy {name!r} was not replayed")
            continue
        diff.strategy_diffs[name] = diff_timeline_execution(timeline, execution)
    for name in sorted(replayed_by_name):
        if name not in timelines:
            diff.problems.append(
                f"replayed strategy {name!r} is absent from the recording"
            )
    if not recording.digest:
        diff.problems.append("recording carries no digest")
    return diff


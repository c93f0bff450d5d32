"""Self-observability dashboard: the experimenter watching itself.

:func:`glass_box_panel` renders one ASCII panel summarizing everything
the :class:`~repro.obs.observer.Observer` has captured — event volume by
kind, ring pressure, the hottest registry metrics, the most recent
events, and a one-liner per reconstructed experiment timeline.  It is
the "dashboard about the dashboard-maker": the same machinery that
judges service health reporting on its own behavior.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.registry import COUNTER, GAUGE, HISTOGRAM
from repro.obs.timeline import reconstruct_timelines

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.observer import Observer
    from repro.obs.provenance import StrategyProvenance
    from repro.telemetry.store import MetricStore


def _rule(title: str, width: int) -> str:
    body = f"== {title} "
    return body + "=" * max(0, width - len(body))


def _timeline_line(timeline: "StrategyProvenance") -> str:
    state = timeline.outcome or ("running" if timeline.phases else "submitted")
    checks = len(timeline.evidence)
    parts = [
        f"{timeline.strategy:<24s} {state:<10s}",
        f"phases={len(timeline.phases)}",
        f"checks={checks}",
    ]
    if timeline.winner is not None:
        parts.append(f"winner={timeline.winner}")
    if timeline.finished_at is not None:
        parts.append(f"t={timeline.finished_at:.1f}s")
    return "  " + " ".join(parts)


def glass_box_panel(
    observer: "Observer",
    store: "MetricStore | None" = None,
    width: int = 72,
    tail: int = 5,
) -> str:
    """Render the observer's state as one multi-section ASCII panel.

    Sections: event totals and per-kind counts, registry metric families
    (counters/gauges with values, histogram families with child counts),
    optionally the application :class:`~repro.telemetry.store.MetricStore`
    series count, the last *tail* events, and per-strategy timeline
    summaries reconstructed from the retained event window.
    """
    log = observer.events
    lines = [_rule("glass box", width)]
    if not observer.enabled:
        lines.append("  observability disabled (null observer)")
        return "\n".join(lines)

    lines.append(
        f"  events: {log.appended} appended, {len(log)} retained, "
        f"{log.dropped} dropped (capacity {log.capacity})"
    )
    counts = log.counts_by_kind()
    for kind in sorted(counts):
        lines.append(f"    {kind:<28s} {counts[kind]}")

    lines.append(_rule("metrics", width))
    samples = observer.metrics.collect()
    scalar = [s for s in samples if s.kind in (COUNTER, GAUGE)]
    for sample in scalar:
        labels = ",".join(f"{k}={v}" for k, v in sample.labels)
        label_part = f"{{{labels}}}" if labels else ""
        lines.append(f"    {sample.name}{label_part} = {sample.value:g}")
    histogram_counts = [
        s for s in samples if s.kind == HISTOGRAM and s.name.endswith("_count")
    ]
    for sample in histogram_counts:
        labels = ",".join(f"{k}={v}" for k, v in sample.labels)
        label_part = f"{{{labels}}}" if labels else ""
        lines.append(
            f"    {sample.name}{label_part} = {sample.value:g} observations"
        )
    if not samples:
        lines.append("    (no metrics recorded)")
    if store is not None:
        lines.append(f"    application store: {len(store.keys())} series")

    recent = log.tail(tail)
    if recent:
        lines.append(_rule("recent events", width))
        for event in recent:
            lines.append("  " + event.describe())

    # A ring that evicted events holds only a suffix of the run; fold
    # the export-shaped stream (sentinel first) so the panel says so
    # instead of passing a partial history off as the whole story.
    stream = list(log)
    if log.dropped:
        stream.insert(0, log.truncation_sentinel())
    timelines = reconstruct_timelines(stream, allow_truncated=True)
    if timelines:
        lines.append(_rule("experiments", width))
        dropped = max(t.truncated_dropped for t in timelines.values())
        if dropped:
            lines.append(f"  [TRUNCATED: {dropped} events dropped]")
        for name in sorted(timelines):
            lines.append(_timeline_line(timelines[name]))
    lines.append("=" * width)
    return "\n".join(lines)

"""Glass-box observability for the experimentation machinery itself.

:mod:`repro.telemetry` watches the *system under experiment*;
:mod:`repro.obs` watches the *experimenter*: a structured
:class:`EventLog` of typed events with monotonic sequence numbers and
logical timestamps, a labeled :class:`MetricRegistry`, exporters
(Prometheus-style exposition, streaming JSONL), a decision
:mod:`provenance <repro.obs.provenance>` graph folded purely from events
(every promotion explains itself, and each strategy's record is also its
:mod:`timeline <repro.obs.timeline>`), an ASCII self-observability
dashboard, and multi-window burn-rate :mod:`alerts <repro.obs.alerts>`.
The whole layer collapses to near-zero cost behind :data:`NULL_OBSERVER`
when disabled.  See ``docs/OBSERVABILITY.md`` for the event taxonomy.
"""

from repro.obs.events import (
    ALERT_FIRED,
    ALERT_RESOLVED,
    DECISION_RECORDED,
    ENGINE_CHECK,
    ENGINE_FINALIZED,
    ENGINE_PHASE_ENTERED,
    ENGINE_ROLLOUT,
    ENGINE_ROUTE,
    ENGINE_SUBMITTED,
    ENGINE_TRANSITION,
    ENGINE_WINNER,
    FENRIR_GENERATION,
    FENRIR_SCHEDULE,
    FENRIR_SEARCH_COMPLETED,
    JOURNAL_APPEND,
    JOURNAL_COMPACT,
    JOURNAL_SNAPSHOT,
    OBS_TRUNCATED,
    RECOVERY_CRASH,
    RECOVERY_REFUSED,
    RECOVERY_REPLAYED,
    RECOVERY_RESTART,
    TOPOLOGY_HEALTH,
    Event,
    EventLog,
    TruncatedStreamWarning,
    event_from_dict,
    is_truncation,
    load_jsonl,
    stream_truncation,
)
from repro.obs.registry import (
    HISTOGRAM_QUANTILES,
    MetricRegistry,
    MetricSample,
    NoopInstrument,
    NOOP_INSTRUMENT,
    labels_key,
)
from repro.obs.observer import NULL_OBSERVER, NULL_TIMER, NullTimer, Observer, Timer
from repro.obs.exporters import (
    JsonlEventSink,
    format_sample,
    render_prometheus,
    sanitize_metric_name,
)
from repro.obs.timeline import (
    diff_timeline_execution,
    reconstruct_timelines,
    render_ascii,
    timeline_matches_execution,
)
from repro.obs.dashboard import glass_box_panel
from repro.obs.alerts import (
    ALERTS_VERSION,
    AlertEngine,
    AlertEvaluation,
    AlertRule,
    alert_metric,
)
from repro.obs.provenance import (
    REPORT_FORMATS,
    Decision,
    Evidence,
    PhaseSpan,
    ProvenanceGraph,
    ProvenanceTracker,
    StrategyProvenance,
    build_provenance,
    evidence_margin,
    render_decision_report,
)

__all__ = [
    "ALERT_FIRED",
    "ALERT_RESOLVED",
    "DECISION_RECORDED",
    "ENGINE_CHECK",
    "ENGINE_FINALIZED",
    "ENGINE_PHASE_ENTERED",
    "ENGINE_ROLLOUT",
    "ENGINE_ROUTE",
    "ENGINE_SUBMITTED",
    "ENGINE_TRANSITION",
    "ENGINE_WINNER",
    "FENRIR_GENERATION",
    "FENRIR_SCHEDULE",
    "FENRIR_SEARCH_COMPLETED",
    "JOURNAL_APPEND",
    "JOURNAL_COMPACT",
    "JOURNAL_SNAPSHOT",
    "OBS_TRUNCATED",
    "RECOVERY_CRASH",
    "RECOVERY_REFUSED",
    "RECOVERY_REPLAYED",
    "RECOVERY_RESTART",
    "TOPOLOGY_HEALTH",
    "Event",
    "EventLog",
    "TruncatedStreamWarning",
    "event_from_dict",
    "is_truncation",
    "load_jsonl",
    "stream_truncation",
    "HISTOGRAM_QUANTILES",
    "MetricRegistry",
    "MetricSample",
    "NoopInstrument",
    "NOOP_INSTRUMENT",
    "labels_key",
    "NULL_OBSERVER",
    "NULL_TIMER",
    "NullTimer",
    "Observer",
    "Timer",
    "JsonlEventSink",
    "format_sample",
    "render_prometheus",
    "sanitize_metric_name",
    "diff_timeline_execution",
    "reconstruct_timelines",
    "render_ascii",
    "timeline_matches_execution",
    "glass_box_panel",
    "ALERTS_VERSION",
    "AlertEngine",
    "AlertEvaluation",
    "AlertRule",
    "alert_metric",
    "REPORT_FORMATS",
    "Decision",
    "Evidence",
    "PhaseSpan",
    "ProvenanceGraph",
    "ProvenanceTracker",
    "StrategyProvenance",
    "build_provenance",
    "evidence_margin",
    "render_decision_report",
]

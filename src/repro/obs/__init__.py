"""Glass-box observability for the experimentation machinery itself.

:mod:`repro.telemetry` watches the *system under experiment*;
:mod:`repro.obs` watches the *experimenter*: a structured
:class:`~repro.obs.events.EventLog` of typed events with monotonic sequence
numbers and logical timestamps, a labeled
:class:`~repro.obs.registry.MetricRegistry`, exporters (Prometheus-style
exposition, streaming JSONL), a decision :mod:`provenance
<repro.obs.provenance>` graph folded purely from events (every promotion
explains itself, and each strategy's record is also its :mod:`timeline
<repro.obs.timeline>`), an ASCII self-observability dashboard, and
multi-window burn-rate :mod:`alerts <repro.obs.alerts>`. The whole layer
collapses to near-zero cost behind :data:`~repro.obs.observer.NULL_OBSERVER`
when disabled.  See ``docs/OBSERVABILITY.md`` for the event taxonomy.
"""

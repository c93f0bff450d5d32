"""Exporters: Prometheus-style exposition and a streaming JSONL sink.

Two ways out of the glass box:

* :func:`render_prometheus` — the text exposition format scrape
  endpoints speak, covering both the machinery's
  :class:`~repro.obs.registry.MetricRegistry` and (optionally) the
  application-level :class:`~repro.telemetry.store.MetricStore`, so one
  page shows the experiment *and* the experimenter.
* :class:`JsonlEventSink` — subscribes to an
  :class:`~repro.obs.events.EventLog` and writes every event as one
  JSON line the moment it is emitted.  Unlike
  :meth:`~repro.obs.events.EventLog.jsonl_lines` (which only sees the
  retained ring), a sink attached from the start captures the lossless
  stream.
"""

from __future__ import annotations

from typing import IO, TYPE_CHECKING

from repro.obs.canonical import dump
from repro.obs.events import Event, EventLog
from repro.obs.registry import LabelSet, MetricRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.store import MetricStore


def sanitize_metric_name(name: str) -> str:
    """Coerce *name* into the Prometheus metric-name alphabet.

    Characters outside ``[a-zA-Z0-9_:]`` become underscores and a
    leading digit is prefixed — ``health.score`` → ``health_score``.
    """
    cleaned = "".join(
        ch if ch.isascii() and (ch.isalnum() or ch in "_:") else "_" for ch in name
    )
    if not cleaned:
        return "_"
    if cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def format_sample(name: str, labels: LabelSet, value: float) -> str:
    """One exposition line: ``name{label="value",...} value``."""
    rendered = ",".join(
        f'{sanitize_metric_name(k)}="{_escape_label_value(str(v))}"'
        for k, v in labels
    )
    body = f"{{{rendered}}}" if rendered else ""
    return f"{sanitize_metric_name(name)}{body} {value:g}"


def render_prometheus(
    registry: MetricRegistry | None = None,
    store: "MetricStore | None" = None,
    prefix: str = "repro",
) -> str:
    """Render registry and/or metric-store contents as exposition text.

    Registry families come out under ``<prefix>_<family>`` with their
    ``# TYPE`` headers.  A histogram family renders as one Prometheus
    *summary*: a single ``# TYPE <prefix>_<family> summary`` header
    covering its quantile samples plus the conformant ``_count``/``_sum``
    pair.  Metric-store series are summarized as
    ``<prefix>_store_samples`` (sample count) and ``<prefix>_store_last``
    (most recent value) per (service, version, metric) — the windowed
    semantics stay in the store; exposition shows the live edge.
    """
    lines: list[str] = []
    if registry is not None and registry.enabled:
        last_family = None
        for sample in registry.collect():
            if sample.kind == "histogram":
                # _count/_sum/quantile samples all belong to one summary
                # family named after the base metric.
                base = sample.name
                for suffix in ("_count", "_sum"):
                    if base.endswith(suffix):
                        base = base[: -len(suffix)]
                        break
                family = (base, sample.kind)
                header = f"# TYPE {sanitize_metric_name(f'{prefix}_{base}')} summary"
            else:
                family = (sample.name, sample.kind)
                header = (
                    f"# TYPE {sanitize_metric_name(f'{prefix}_{sample.name}')} "
                    f"{sample.kind}"
                )
            if family != last_family:
                lines.append(header)
                last_family = family
            lines.append(
                format_sample(f"{prefix}_{sample.name}", sample.labels, sample.value)
            )
    if store is not None:
        count_lines: list[str] = []
        last_lines: list[str] = []
        for key in store.keys():
            series = store.series(key.service, key.version, key.metric)
            labels: LabelSet = (
                ("metric", key.metric),
                ("service", key.service),
                ("version", key.version),
            )
            count_lines.append(
                format_sample(f"{prefix}_store_samples", labels, float(len(series)))
            )
            last_lines.append(
                format_sample(f"{prefix}_store_last", labels, series.values[-1])
            )
        if count_lines:
            lines.append(f"# TYPE {prefix}_store_samples counter")
            lines.extend(count_lines)
            lines.append(f"# TYPE {prefix}_store_last gauge")
            lines.extend(last_lines)
    return "\n".join(lines) + ("\n" if lines else "")


class JsonlEventSink:
    """Streams events to a JSONL file (or text handle) as they happen.

    Attach with :meth:`attach` (optionally replaying the log's retained
    backlog first); every subsequent event is written and flushed as one
    compact JSON line.  Use as a context manager to close the file on
    exit; handles passed in by the caller are flushed but not closed.
    """

    def __init__(self, target: str | IO[str]) -> None:
        if isinstance(target, str):
            self._handle: IO[str] = open(target, "w", encoding="utf-8")
            self._owns_handle = True
        else:
            self._handle = target
            self._owns_handle = False
        self.written = 0
        self._closed = False

    def attach(self, log: EventLog, replay: bool = True) -> "JsonlEventSink":
        """Subscribe to *log*; with *replay*, write its backlog first."""
        if replay:
            for event in log:
                self.write(event)
        log.subscribe(self.write)
        return self

    def write(self, event: Event) -> None:
        """Write one event line (no-op once closed)."""
        if self._closed:
            return
        self._handle.write(
            dump(event.as_dict()) + "\n"
        )
        self._handle.flush()
        self.written += 1

    def close(self) -> None:
        """Stop writing; close the file if this sink opened it."""
        if self._closed:
            return
        self._closed = True
        if self._owns_handle:
            self._handle.close()

    def __enter__(self) -> "JsonlEventSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

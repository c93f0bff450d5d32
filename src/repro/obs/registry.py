"""A labeled metric registry for the experimentation machinery itself.

:mod:`repro.telemetry` stores the *application's* metrics (response
times, error rates per service version) — what checks read.  This
registry holds the *machinery's* metrics: how many checks Bifrost
evaluated and how long they took, Fenrir's cache hit-rate, the streaming
pipeline's fold/diff/rank timings.  Instruments follow the Prometheus
vocabulary — :class:`~repro.telemetry.metrics.Counter`,
:class:`~repro.telemetry.metrics.Gauge`, and
:class:`~repro.telemetry.metrics.Histogram` — extended with *label
sets*: ``registry.counter("bifrost_checks_total", outcome="pass")``
addresses one child of the ``bifrost_checks_total`` family.

A disabled registry hands out one shared no-op instrument and collects
nothing, so instrumented code pays only an attribute check and an empty
method call when observability is off.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ValidationError
from repro.telemetry.metrics import Counter, Gauge, Histogram

#: Instrument kind tags used in :class:`MetricSample`.
COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: Quantiles a histogram family exposes in :meth:`MetricRegistry.collect`.
HISTOGRAM_QUANTILES = (50.0, 90.0, 99.0)
#: Observations each histogram child keeps (a sliding window).
HISTOGRAM_CAPACITY = 4096

LabelSet = tuple[tuple[str, str], ...]


def labels_key(labels: dict[str, str]) -> LabelSet:
    """Canonical (sorted, stringified) form of a label mapping."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


@dataclass(frozen=True)
class MetricSample:
    """One exported sample of one instrument child.

    Attributes:
        name: family name, possibly suffixed (``_count`` / ``_sum`` and a
            ``quantile`` label for histograms).
        kind: instrument kind of the family the sample came from.
        labels: canonical label set of the child.
        value: the sampled value.
    """

    name: str
    kind: str
    labels: LabelSet
    value: float


class NoopInstrument:
    """Accepts every instrument method and does nothing.

    One shared instance stands in for counters, gauges, and histograms
    when the registry is disabled, so call sites never branch.
    """

    __slots__ = ()

    def increment(self, amount: float = 1.0) -> None:
        """No-op counter increment."""

    def set(self, value: float) -> None:
        """No-op gauge set."""

    def add(self, delta: float) -> None:
        """No-op gauge adjustment."""

    def observe(self, value: float) -> None:
        """No-op histogram observation."""


#: The shared disabled-path instrument.
NOOP_INSTRUMENT = NoopInstrument()


class _Family:
    """All children (label set → instrument) of one metric name."""

    __slots__ = ("name", "kind", "children")

    def __init__(self, name: str, kind: str) -> None:
        self.name = name
        self.kind = kind
        self.children: dict[LabelSet, object] = {}


class MetricRegistry:
    """Labeled counter/gauge/histogram families with a no-op path.

    Families are created on first use; requesting an existing name with
    a different instrument kind raises — one name, one kind, as in every
    Prometheus-style registry.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._families: dict[str, _Family] = {}

    def __len__(self) -> int:
        return len(self._families)

    # -- instrument accessors ----------------------------------------------

    def counter(self, name: str, **labels: str) -> Counter | NoopInstrument:
        """The counter child of family *name* with the given labels."""
        if not self.enabled:
            return NOOP_INSTRUMENT
        return self._child(name, COUNTER, labels)

    def gauge(self, name: str, **labels: str) -> Gauge | NoopInstrument:
        """The gauge child of family *name* with the given labels."""
        if not self.enabled:
            return NOOP_INSTRUMENT
        return self._child(name, GAUGE, labels)

    def histogram(self, name: str, **labels: str) -> Histogram | NoopInstrument:
        """The histogram child of family *name* with the given labels."""
        if not self.enabled:
            return NOOP_INSTRUMENT
        return self._child(name, HISTOGRAM, labels)

    def _child(self, name: str, kind: str, labels: dict[str, str]):
        family = self._families.get(name)
        if family is None:
            family = _Family(name, kind)
            self._families[name] = family
        elif family.kind != kind:
            raise ValidationError(
                f"metric family {name!r} is a {family.kind}, requested {kind}"
            )
        key = labels_key(labels)
        child = family.children.get(key)
        if child is None:
            if kind == COUNTER:
                child = Counter(name)
            elif kind == GAUGE:
                child = Gauge(name)
            else:
                child = Histogram(name, capacity=HISTOGRAM_CAPACITY)
            family.children[key] = child
        return child

    # -- export -------------------------------------------------------------

    def collect(self) -> list[MetricSample]:
        """Flatten every child into exported samples, deterministically.

        Counters and gauges yield one sample each.  Histograms yield a
        ``_count`` and ``_sum`` sample plus one sample per quantile in
        :data:`HISTOGRAM_QUANTILES` (labeled ``quantile="p50"`` …),
        computed over the retained sliding window.
        """
        samples: list[MetricSample] = []
        for name in sorted(self._families):
            family = self._families[name]
            for key in sorted(family.children):
                child = family.children[key]
                if family.kind in (COUNTER, GAUGE):
                    samples.append(
                        MetricSample(name, family.kind, key, child.value)
                    )
                    continue
                values = child.values()
                samples.append(
                    MetricSample(
                        f"{name}_count", HISTOGRAM, key, float(len(values))
                    )
                )
                samples.append(
                    MetricSample(f"{name}_sum", HISTOGRAM, key, float(sum(values)))
                )
                for q in HISTOGRAM_QUANTILES:
                    if not values:
                        continue
                    labeled = key + (("quantile", f"p{q:g}"),)
                    samples.append(
                        MetricSample(name, HISTOGRAM, labeled, child.percentile(q))
                    )
        return samples

    def value(self, name: str, **labels: str) -> float | None:
        """Current value of one counter/gauge child (None when absent)."""
        family = self._families.get(name)
        if family is None or family.kind == HISTOGRAM:
            return None
        child = family.children.get(labels_key(labels))
        return None if child is None else child.value

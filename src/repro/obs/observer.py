"""The observer hub: one object bundling events, metrics, and timings.

Instrumented subsystems hold an :class:`Observer` and call three things:

* :meth:`Observer.emit` — append a typed event to the shared
  :class:`~repro.obs.events.EventLog`;
* :attr:`Observer.metrics` — labeled counters/gauges/histograms in the
  shared :class:`~repro.obs.registry.MetricRegistry`;
* :meth:`Observer.timed` — a reusable profiling context manager that
  records a block's wall-clock duration into a registry histogram (the
  instrument behind the streaming pipeline's fold/diff/rank timings).

The disabled path is near-zero cost: :data:`NULL_OBSERVER` short-circuits
``emit`` before any payload is consumed, hands out no-op instruments, and
``timed`` returns a shared timer that never reads the clock.  Hot loops
that would otherwise build payload dicts guard on
:attr:`Observer.enabled` first.
"""

from __future__ import annotations

from time import perf_counter
from typing import TYPE_CHECKING

from repro.obs.events import Event, EventLog
from repro.obs.provenance import ProvenanceTracker
from repro.obs.registry import MetricRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry.metrics import Histogram


class Timer:
    """Context manager timing one block into a registry histogram.

    Exposes the measured duration as :attr:`elapsed_s` after exit, so
    callers can also attach it to an event payload.
    """

    __slots__ = ("_histogram", "elapsed_s", "_t0")

    def __init__(self, histogram: "Histogram") -> None:
        self._histogram = histogram
        self.elapsed_s = 0.0
        self._t0 = 0.0

    def __enter__(self) -> "Timer":
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed_s = perf_counter() - self._t0
        self._histogram.observe(self.elapsed_s)


class NullTimer:
    """The disabled-path timer: never reads the clock."""

    __slots__ = ()

    elapsed_s = 0.0

    def __enter__(self) -> "NullTimer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


#: Shared disabled-path timer instance.
NULL_TIMER = NullTimer()


class Observer:
    """Bundles an event log and a metric registry behind one switch.

    Construct one per run (or per middleware) and thread it through the
    subsystems to instrument; pass nothing — every instrumented
    constructor defaults to :data:`NULL_OBSERVER` — to run dark.
    """

    def __init__(
        self,
        enabled: bool = True,
        event_capacity: int = 65_536,
    ) -> None:
        self.enabled = enabled
        self.events = EventLog(event_capacity if enabled else 1)
        self.metrics = MetricRegistry(enabled=enabled)
        #: Live decision-provenance fold, fed by the engine and the alert
        #: engine with every event they emit; None when disabled.  Unlike
        #: the ring-buffered event log this never evicts, so the graph
        #: stays complete even after the log truncates.
        self.provenance: ProvenanceTracker | None = (
            ProvenanceTracker() if enabled else None
        )

    def emit(self, kind: str, time: float, **data: object) -> Event | None:
        """Append one event (None and no work when disabled)."""
        if not self.enabled:
            return None
        return self.events.append(kind, time, data)

    def timed(self, name: str, **labels: str) -> "Timer | NullTimer":
        """A context manager recording the block's duration into the
        ``name`` histogram family (seconds).  Returns the shared no-op
        timer when disabled."""
        if not self.enabled:
            return NULL_TIMER
        return Timer(self.metrics.histogram(name, **labels))


#: The shared disabled observer every instrumented constructor defaults
#: to.  Emitting through it is a single attribute check and return.
NULL_OBSERVER = Observer(enabled=False, event_capacity=1)

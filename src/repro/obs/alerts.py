"""Multi-window burn-rate alerting over :class:`MetricStore` streams.

An :class:`AlertRule` states an error-budget SLO: *objective* names the
target success ratio (0.999 → a 0.1% error budget) for one
(service, version)'s ``error`` stream.  The *burn rate* over a window is
the window's mean error rate divided by the budget — burn 1.0 consumes
exactly the budget, burn 10 consumes it ten times too fast.  Following
the multi-window discipline, a rule watches a *fast* and a *slow*
window pair and fires only when **both** exceed the threshold: the slow
window proves the problem is sustained, the fast window proves it is
still happening (and lets the alert resolve promptly once it is not).

The :class:`AlertEngine` evaluates rules on the shared *logical* clock —
:meth:`AlertEngine.evaluate` is a pure function of ``(store, now)``, so
a crash-recovered fleet whose store was rebuilt by re-feeding reaches
identical verdicts.  Each evaluation publishes the gate value (the
minimum of the two burn rates) into the store under the ``alerts``
pseudo-version, which is where the Bifrost DSL's ``kind slo`` checks
read it; firing edges emit :data:`~repro.obs.events.ALERT_FIRED` /
:data:`~repro.obs.events.ALERT_RESOLVED` events into the glass box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.errors import ConfigurationError
from repro.obs.events import ALERT_FIRED, ALERT_RESOLVED
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.stats.descriptive import mean

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.engine import SimulationEngine
    from repro.telemetry.store import MetricStore

#: Pseudo-version the alert engine publishes burn-rate gates under; the
#: ``slo`` check kind normalizes its version to this address, mirroring
#: how health checks normalize to the topology pipeline's ``live``.
ALERTS_VERSION = "alerts"


#: The 0/1 error-ratio stream every rule reads: the runtime stores one
#: sample per request.
ERROR_METRIC = "error"


def alert_metric(rule_name: str) -> str:
    """Store metric name carrying *rule_name*'s burn-rate gate value."""
    return f"burn:{rule_name}"


@dataclass(frozen=True)
class AlertRule:
    """One multi-window burn-rate rule over an error-ratio stream.

    Attributes:
        name: rule identifier (unique per engine).
        service: service whose stream is watched.
        version: version whose stream is watched.
        objective: SLO target success ratio in (0, 1); the error budget
            is ``1 - objective``.
        fast_window: short trailing window (seconds, logical clock).
        slow_window: long trailing window; must be >= fast_window.
        burn_threshold: fire when both windows burn at or above this.
    """

    name: str
    service: str
    version: str
    objective: float = 0.999
    fast_window: float = 60.0
    slow_window: float = 600.0
    burn_threshold: float = 2.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("alert rule name must be non-empty")
        if not 0.0 < self.objective < 1.0:
            raise ConfigurationError(
                f"rule {self.name!r}: objective must be in (0, 1)"
            )
        if self.fast_window <= 0 or self.slow_window <= 0:
            raise ConfigurationError(
                f"rule {self.name!r}: windows must be positive"
            )
        if self.slow_window < self.fast_window:
            raise ConfigurationError(
                f"rule {self.name!r}: slow_window must be >= fast_window"
            )
        if self.burn_threshold <= 0:
            raise ConfigurationError(
                f"rule {self.name!r}: burn_threshold must be positive"
            )

    @property
    def error_budget(self) -> float:
        """The error-rate budget the objective leaves (``1 - objective``)."""
        return 1.0 - self.objective


@dataclass(frozen=True)
class AlertEvaluation:
    """One rule's verdict at one evaluation time."""

    rule: str
    time: float
    fast_burn: float | None
    slow_burn: float | None
    burn: float | None
    firing: bool


class AlertEngine:
    """Evaluates burn-rate rules on the logical clock.

    ``evaluate(now)`` is deterministic in ``(store, now)``; the engine
    keeps only edge state (which rules are currently firing) so it can
    emit :data:`ALERT_FIRED` / :data:`ALERT_RESOLVED` exactly once per
    edge.  With ``publish=True`` (the default) every evaluation also
    records each rule's gate value into the store under
    ``(service, ALERTS_VERSION, burn:<rule>)`` — the stream ``kind slo``
    checks aggregate over.  Fleet bulkheads run with ``publish=False``
    so a store rebuilt by re-feeding traffic stays byte-identical.
    """

    def __init__(
        self,
        store: "MetricStore",
        rules: Iterable[AlertRule],
        observer: Observer | None = None,
        interval: float = 5.0,
        publish: bool = True,
    ) -> None:
        self.store = store
        self.rules = tuple(rules)
        names = [rule.name for rule in self.rules]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate alert rule names: {names}")
        if interval <= 0:
            raise ConfigurationError("alert evaluation interval must be positive")
        self.obs = observer or NULL_OBSERVER
        self.interval = interval
        self.publish = publish
        self._firing: dict[str, bool] = {rule.name: False for rule in self.rules}
        self.evaluations = 0

    def _burn(self, rule: AlertRule, start: float, end: float) -> float | None:
        values = self.store.values_in_window(
            rule.service, rule.version, ERROR_METRIC, start, end
        )
        if not values:
            return None
        return mean(values) / rule.error_budget

    def evaluate(self, now: float) -> list[AlertEvaluation]:
        """Evaluate every rule at logical time *now* (pure in store+now).

        A rule whose *fast* window is empty is skipped (no verdict, no
        publication): with no recent samples there is nothing to burn
        and nothing meaningful to resolve on.  An empty *slow* window
        falls back to the fast burn — early in a stream the slow window
        simply has not filled yet, and a sustained early burn should
        still fire.
        """
        results: list[AlertEvaluation] = []
        for rule in self.rules:
            fast = self._burn(rule, now - rule.fast_window, now)
            if fast is None:
                results.append(
                    AlertEvaluation(rule.name, now, None, None, None, False)
                )
                continue
            slow = self._burn(rule, now - rule.slow_window, now)
            if slow is None:
                slow = fast
            burn = min(fast, slow)
            firing = burn >= rule.burn_threshold
            if self.publish:
                self.store.record(
                    rule.service, ALERTS_VERSION, alert_metric(rule.name), now, burn
                )
            was_firing = self._firing[rule.name]
            if firing != was_firing:
                self._firing[rule.name] = firing
                kind = ALERT_FIRED if firing else ALERT_RESOLVED
                event = self.obs.emit(
                    kind,
                    now,
                    rule=rule.name,
                    service=rule.service,
                    version=rule.version,
                    metric=ERROR_METRIC,
                    burn=burn,
                    fast_burn=fast,
                    slow_burn=slow,
                    threshold=rule.burn_threshold,
                    objective=rule.objective,
                )
                tracker = getattr(self.obs, "provenance", None)
                if event is not None and tracker is not None:
                    tracker.record(event)
                self.obs.metrics.counter(
                    "alert_transitions_total",
                    rule=rule.name,
                    state="firing" if firing else "resolved",
                ).increment()
            results.append(
                AlertEvaluation(rule.name, now, fast, slow, burn, firing)
            )
        self.evaluations += 1
        return results

    def active(self) -> tuple[str, ...]:
        """Names of the rules currently firing, sorted."""
        return tuple(sorted(name for name, on in self._firing.items() if on))

    def firing(self, rule_name: str) -> bool:
        """Whether one rule is currently firing."""
        return self._firing.get(rule_name, False)

    def attach(self, simulation: "SimulationEngine") -> "AlertEngine":
        """Self-schedule evaluation every :attr:`interval` logical seconds."""

        def tick() -> None:
            self.evaluate(simulation.now)
            simulation.schedule_at(
                simulation.now + self.interval, tick, label="alert-eval"
            )

        simulation.schedule_at(
            simulation.now + self.interval, tick, label="alert-eval"
        )
        return self


__all__ = [
    "ALERTS_VERSION",
    "AlertEngine",
    "AlertEvaluation",
    "AlertRule",
    "alert_metric",
]

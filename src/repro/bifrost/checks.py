"""Evaluating checks against the metric store.

Checks read a trailing window of telemetry ending at the evaluation time.
A window without data yields :data:`CheckOutcome.INCONCLUSIVE` — the
engine then re-executes phases instead of deciding on no evidence
(Section 4.3.2's time-based check execution, Fig 4.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

from repro.bifrost.model import Check, CheckOutcome
from repro.telemetry.store import MetricStore, aggregate_values


@dataclass(frozen=True)
class CheckResult:
    """One evaluation of one check.

    ``duration_s`` is the real (wall-clock) evaluation cost and
    ``samples`` the number of window samples the observation aggregated;
    both are captured for the glass-box layer (evidence records) and
    excluded from equality so results rebuilt from the journal compare
    equal to the originals.
    """

    check: Check
    time: float
    outcome: CheckOutcome
    observed: float | None
    reference: float | None
    duration_s: float | None = field(default=None, compare=False)
    samples: int | None = field(default=None, compare=False)

    def describe(self) -> str:
        """Human-readable one-liner for execution logs."""
        observed = "n/a" if self.observed is None else f"{self.observed:.3f}"
        reference = "n/a" if self.reference is None else f"{self.reference:.3f}"
        return (
            f"[{self.time:9.1f}s] {self.check.name}: {self.outcome.value} "
            f"(observed={observed} {self.check.operator} reference={reference})"
        )


class CheckEvaluator:
    """Evaluates checks on a shared :class:`MetricStore`."""

    def __init__(self, store: MetricStore) -> None:
        self.store = store

    def evaluate(self, check: Check, now: float) -> CheckResult:
        """Evaluate *check* on the half-open window ``[now - window, now)``.

        Health checks (``kind="health"``) need no special handling here:
        construction normalized them to threshold checks over the
        ``health.score`` stream the live topology pipeline publishes
        (:class:`~repro.topology.streaming.LiveHealthMonitor`), so they
        share the windowing, inconclusive, and comparison semantics of
        plain metric checks.

        The returned result carries the real evaluation duration in
        :attr:`CheckResult.duration_s`.
        """
        t0 = perf_counter()
        start = now - check.window_seconds
        values = self.store.values_in_window(
            check.service, check.version, check.metric, start, now
        )
        observed = aggregate_values(check.aggregation, values)
        reference = None
        outcome = CheckOutcome.INCONCLUSIVE
        if observed is not None:
            if check.is_relative:
                baseline = self.store.aggregate(
                    check.service,
                    check.baseline_version or "",
                    check.metric,
                    check.aggregation,
                    start,
                    now,
                )
                if baseline is not None:
                    reference = baseline * check.tolerance
            else:
                assert check.threshold is not None
                reference = check.threshold * check.tolerance
            if reference is not None:
                outcome = (
                    CheckOutcome.PASS
                    if check.compare(observed, reference)
                    else CheckOutcome.FAIL
                )
        return CheckResult(
            check, now, outcome, observed, reference,
            duration_s=perf_counter() - t0, samples=len(values),
        )

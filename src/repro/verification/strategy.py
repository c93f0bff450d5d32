"""Static verification of live testing strategies.

Checks performed against the target application and the routing state:

- **deployment**: every referenced version (stable, experimental,
  second, check baselines) is actually deployed;
- **checks**: metrics/aggregations are known, windows fit the check
  interval, phases with conditional chaining actually *have* checks;
- **safety**: every phase's failure transition leads (transitively) to a
  terminal state, so a misbehaving experiment can always be unwound;
- **interference**: no service another experiment currently routes is
  touched.
"""

from __future__ import annotations

from repro.bifrost.model import (
    REPEAT,
    TERMINAL_STATES,
    Phase,
    PhaseType,
    Strategy,
)
from repro.microservices.application import Application
from repro.routing.proxy import VersionRouter
from repro.telemetry.store import supported_aggregations
from repro.verification.findings import Severity, VerificationReport

_KNOWN_METRICS = {"response_time", "error", "throughput"}


def verify_strategy(
    strategy: Strategy,
    application: Application,
    router: VersionRouter | None = None,
) -> VerificationReport:
    """Verify *strategy* against *application* (and live routes)."""
    report = VerificationReport(f"strategy {strategy.name!r}")
    for phase in strategy.phases:
        _verify_phase_deployment(phase, application, report)
        _verify_phase_checks(phase, report)
    _verify_failure_paths(strategy, report)
    if router is not None:
        _verify_no_live_interference(strategy, router, report)
    return report


def _verify_phase_deployment(
    phase: Phase, application: Application, report: VerificationReport
) -> None:
    if not application.has_service(phase.service):
        report.add(
            Severity.ERROR,
            "unknown-service",
            f"service {phase.service!r} does not exist",
            phase.name,
        )
        return
    service = application.service(phase.service)
    referenced = {phase.stable_version, phase.experimental_version}
    if phase.second_version:
        referenced.add(phase.second_version)
    for check in phase.checks:
        if check.baseline_version:
            referenced.add(check.baseline_version)
    for version in sorted(referenced):
        if not service.has_version(version):
            report.add(
                Severity.ERROR,
                "version-not-deployed",
                f"{phase.service}@{version} is referenced but not deployed",
                phase.name,
            )
    if service.stable_version != phase.stable_version:
        report.add(
            Severity.WARNING,
            "stable-mismatch",
            f"phase declares stable {phase.stable_version!r} but the "
            f"service's stable version is {service.stable_version!r}",
            phase.name,
        )


def _verify_phase_checks(phase: Phase, report: VerificationReport) -> None:
    if not phase.checks and phase.type is not PhaseType.AB_TEST:
        report.add(
            Severity.WARNING,
            "no-checks",
            "phase has no health checks; failures cannot trigger the "
            "failure transition",
            phase.name,
        )
    for check in phase.checks:
        if check.metric not in _KNOWN_METRICS:
            report.add(
                Severity.WARNING,
                "unknown-metric",
                f"check {check.name!r} reads metric {check.metric!r}, which "
                "the runtime does not emit by default",
                phase.name,
            )
        if check.aggregation not in supported_aggregations():
            report.add(
                Severity.ERROR,
                "unknown-aggregation",
                f"check {check.name!r} uses unsupported aggregation "
                f"{check.aggregation!r}",
                phase.name,
            )
        effective_interval = check.interval_seconds or phase.check_interval_seconds
        if check.window_seconds < effective_interval:
            report.add(
                Severity.WARNING,
                "window-shorter-than-interval",
                f"check {check.name!r} window ({check.window_seconds}s) is "
                f"shorter than its evaluation interval "
                f"({effective_interval}s); samples may be missed",
                phase.name,
            )
        if check.service != phase.service:
            report.add(
                Severity.WARNING,
                "cross-service-check",
                f"check {check.name!r} observes {check.service!r}, not the "
                f"phase's service {phase.service!r}",
                phase.name,
            )


def _verify_failure_paths(strategy: Strategy, report: VerificationReport) -> None:
    """Every phase's failure transition must reach a terminal state."""
    phase_by_name = {phase.name: phase for phase in strategy.phases}
    for phase in strategy.phases:
        seen: set[str] = set()
        current = phase.on_failure
        while True:
            if current in TERMINAL_STATES:
                break
            if current == REPEAT or current in seen:
                report.add(
                    Severity.ERROR,
                    "failure-loop",
                    f"failure path starting at phase {phase.name!r} cycles "
                    "without reaching a terminal state",
                    phase.name,
                )
                break
            seen.add(current)
            next_phase = phase_by_name.get(current)
            if next_phase is None:
                break  # Strategy validation already rejects unknown names.
            current = next_phase.on_failure


def _verify_no_live_interference(
    strategy: Strategy, router: VersionRouter, report: VerificationReport
) -> None:
    for service in sorted(strategy.services):
        route = router.active_route(service)
        if route is not None and route.experiment != strategy.name:
            report.add(
                Severity.ERROR,
                "live-conflict",
                f"service {service!r} is currently routed by experiment "
                f"{route.experiment!r}; running {strategy.name!r} would "
                "overlap and skew both experiments' data",
            )

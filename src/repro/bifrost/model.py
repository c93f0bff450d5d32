"""The live testing model (Section 4.3).

A *strategy* is an ordered collection of *phases*, each applying one
experimentation practice (canary, dark launch, A/B test, gradual rollout)
to a service.  Each phase specifies *checks* — windowed metric conditions
— and the conditional chaining: which phase (or terminal state) follows
on success, failure, or inconclusive data.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ConfigurationError, ValidationError

#: Names of the built-in terminal states every strategy may target.
TERMINAL_COMPLETE = "complete"
TERMINAL_ROLLBACK = "rollback"
TERMINAL_ABORT = "abort"
TERMINAL_STATES = frozenset({TERMINAL_COMPLETE, TERMINAL_ROLLBACK, TERMINAL_ABORT})
#: Pseudo-target: re-execute the current phase (collect more data).
REPEAT = "repeat"


class PhaseType(enum.Enum):
    """The experimentation practices a phase can apply (Section 2.2.1)."""

    CANARY = "canary"
    DARK_LAUNCH = "dark_launch"
    AB_TEST = "ab_test"
    GRADUAL_ROLLOUT = "gradual_rollout"


class CheckOutcome(enum.Enum):
    """Result of evaluating one check at one point in time."""

    PASS = "pass"
    FAIL = "fail"
    INCONCLUSIVE = "inconclusive"


class Action(enum.Enum):
    """Automated actions the engine takes on transitions."""

    CONTINUE = "continue"
    PROMOTE = "promote"
    ROLLBACK = "rollback"
    REPEAT = "repeat"
    ABORT = "abort"


_OPERATORS = {"<", "<=", ">", ">="}

#: Check kinds: plain metric checks, topology-health checks, and
#: burn-rate SLO checks gating on an alert rule's published burn stream.
METRIC_CHECK_KIND = "metric"
HEALTH_CHECK_KIND = "health"
SLO_CHECK_KIND = "slo"
_CHECK_KINDS = frozenset({METRIC_CHECK_KIND, HEALTH_CHECK_KIND, SLO_CHECK_KIND})


@dataclass(frozen=True)
class Check:
    """A health criterion evaluated periodically during a phase.

    Three flavors exist:

    - **threshold** checks compare a windowed aggregate against an
      absolute threshold (``mean response_time of v2 <= 150 ms``),
    - **relative** checks compare the experimental version against a
      baseline version of the same service with a tolerance factor
      (``mean response_time of v2 <= 1.2 * mean response_time of v1``) —
      the "apples to apples comparison" practitioners described,
    - **health** checks (``kind="health"``) gate on the streaming
      topology pipeline's live health score
      (:mod:`repro.topology.streaming`): the service's ``health.score``
      under the ``live`` pseudo-version must satisfy the threshold.
      Version and metric are normalized to those canonical values at
      construction, so a health check is a threshold check over the
      ``health.*`` stream and evaluates through the same machinery,
    - **slo** checks (``kind="slo"``) gate on a burn-rate alert rule's
      published gate stream (:mod:`repro.obs.alerts`): the rule named by
      ``rule`` must keep its burn below the threshold.  Version and
      metric normalize to the rule's canonical store address
      ``(service, "alerts", "burn:<rule>")``, so an slo check is again
      just a threshold check over a pseudo-metric stream.

    Attributes:
        name: check identifier within the phase.
        service: service whose metrics are inspected.
        version: the (experimental) version under test.
        metric: metric name, e.g. ``response_time`` or ``error``.
        aggregation: windowed aggregation (``mean``, ``p95``, ...).
        operator: comparison operator; the check passes when
            ``observed OP reference`` holds.
        threshold: absolute reference value (threshold checks).
        baseline_version: reference version (relative checks).
        tolerance: multiplier applied to the baseline aggregate.
        window_seconds: length of the trailing data window.
        interval_seconds: per-check evaluation interval (Fig 4.3's
            time-based execution of multiple checks); None inherits the
            phase's interval.
        kind: ``"metric"`` (default), ``"health"``, or ``"slo"``.
        rule: name of the burn-rate alert rule an slo check gates on
            (slo checks only).
    """

    name: str
    service: str
    version: str
    metric: str
    aggregation: str = "mean"
    operator: str = "<="
    threshold: float | None = None
    baseline_version: str | None = None
    tolerance: float = 1.0
    window_seconds: float = 30.0
    interval_seconds: float | None = None
    kind: str = METRIC_CHECK_KIND
    rule: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in _CHECK_KINDS:
            raise ConfigurationError(
                f"check {self.name!r}: kind must be one of {sorted(_CHECK_KINDS)}"
            )
        if self.operator not in _OPERATORS:
            raise ConfigurationError(
                f"check {self.name!r}: operator must be one of {_OPERATORS}"
            )
        if self.kind == HEALTH_CHECK_KIND:
            if self.baseline_version is not None:
                raise ConfigurationError(
                    f"check {self.name!r}: health checks take a threshold, "
                    "not a baseline_version"
                )
            if self.threshold is None:
                raise ConfigurationError(
                    f"check {self.name!r}: health checks need a threshold"
                )
            # Health lives at a canonical address in the metric store:
            # (service, HEALTH_VERSION, HEALTH_METRIC).  Normalizing here
            # means DSL/journal round trips and the evaluator never have
            # to special-case where to look.
            from repro.topology.streaming import HEALTH_METRIC, HEALTH_VERSION

            object.__setattr__(self, "version", HEALTH_VERSION)
            object.__setattr__(self, "metric", HEALTH_METRIC)
        if self.kind == SLO_CHECK_KIND:
            if not self.rule:
                raise ConfigurationError(
                    f"check {self.name!r}: slo checks need a rule name"
                )
            if self.baseline_version is not None:
                raise ConfigurationError(
                    f"check {self.name!r}: slo checks take a threshold, "
                    "not a baseline_version"
                )
            if self.threshold is None:
                raise ConfigurationError(
                    f"check {self.name!r}: slo checks need a threshold"
                )
            # Like health checks, slo checks live at a canonical store
            # address: the alert engine publishes each rule's gate value
            # under (service, ALERTS_VERSION, burn:<rule>).
            from repro.obs.alerts import ALERTS_VERSION, alert_metric

            object.__setattr__(self, "version", ALERTS_VERSION)
            object.__setattr__(self, "metric", alert_metric(self.rule))
        elif self.rule is not None:
            raise ConfigurationError(
                f"check {self.name!r}: rule is only valid for slo checks"
            )
        if (self.threshold is None) == (self.baseline_version is None):
            raise ConfigurationError(
                f"check {self.name!r}: set exactly one of threshold / "
                "baseline_version"
            )
        if self.tolerance <= 0:
            raise ConfigurationError(f"check {self.name!r}: tolerance must be > 0")
        if self.window_seconds <= 0:
            raise ConfigurationError(
                f"check {self.name!r}: window_seconds must be > 0"
            )
        if self.interval_seconds is not None and self.interval_seconds <= 0:
            raise ConfigurationError(
                f"check {self.name!r}: interval_seconds must be > 0 when set"
            )

    @property
    def is_relative(self) -> bool:
        """Whether the check compares against a baseline version."""
        return self.baseline_version is not None

    def compare(self, observed: float, reference: float) -> bool:
        """Apply the operator to (observed, reference)."""
        if self.operator == "<":
            return observed < reference
        if self.operator == "<=":
            return observed <= reference
        if self.operator == ">":
            return observed > reference
        return observed >= reference


@dataclass(frozen=True)
class Phase:
    """One phase of a live testing strategy.

    Attributes:
        name: unique phase name within the strategy.
        type: which experimentation practice the phase applies.
        service: the service under experimentation.
        stable_version: the current production version.
        experimental_version: the version under test.
        second_version: the alternative variant (A/B tests only).
        fraction: traffic share for the experimental variant (canary) or
            the A/B split given to ``experimental_version``.
        steps: rollout fractions for gradual rollouts.
        audience_groups: restrict the experiment to these user groups.
        duration_seconds: how long the phase collects data.
        check_interval_seconds: how often checks are evaluated.
        checks: the phase's health criteria.
        min_samples: minimum experimental-variant requests before the
            success transition may fire.
        deadline_seconds: hard time budget for the phase measured from
            its *first* entry (repeats included); when exceeded, the
            engine's watchdog forces a rollback.  None disables the
            watchdog.
        on_success / on_failure / on_inconclusive: next phase name, a
            terminal state, or ``repeat``.
        max_repeats: how often an inconclusive phase may re-execute.
        winner_metric / winner_aggregation / winner_lower_is_better:
            how A/B phases pick the winning variant at phase end.
    """

    name: str
    type: PhaseType
    service: str
    stable_version: str
    experimental_version: str
    second_version: str | None = None
    fraction: float = 0.05
    steps: tuple[float, ...] = ()
    audience_groups: frozenset[str] = frozenset()
    duration_seconds: float = 300.0
    check_interval_seconds: float = 5.0
    checks: tuple[Check, ...] = ()
    min_samples: int = 0
    deadline_seconds: float | None = None
    on_success: str = TERMINAL_COMPLETE
    on_failure: str = TERMINAL_ROLLBACK
    on_inconclusive: str = REPEAT
    max_repeats: int = 1
    winner_metric: str = "response_time"
    winner_aggregation: str = "mean"
    winner_lower_is_better: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("phase name must be non-empty")
        if self.type is PhaseType.AB_TEST and not self.second_version:
            raise ConfigurationError(
                f"phase {self.name!r}: A/B tests need a second_version"
            )
        if self.type is PhaseType.GRADUAL_ROLLOUT and not self.steps:
            raise ConfigurationError(
                f"phase {self.name!r}: gradual rollouts need steps"
            )
        if self.steps and any(not 0.0 <= s <= 1.0 for s in self.steps):
            raise ConfigurationError(
                f"phase {self.name!r}: steps must lie in [0, 1]"
            )
        if self.type in (PhaseType.CANARY, PhaseType.AB_TEST):
            if not 0.0 < self.fraction < 1.0:
                raise ConfigurationError(
                    f"phase {self.name!r}: fraction must be in (0, 1)"
                )
        if self.duration_seconds <= 0:
            raise ConfigurationError(
                f"phase {self.name!r}: duration_seconds must be > 0"
            )
        if self.check_interval_seconds <= 0:
            raise ConfigurationError(
                f"phase {self.name!r}: check_interval_seconds must be > 0"
            )
        if self.min_samples < 0:
            raise ConfigurationError(f"phase {self.name!r}: min_samples >= 0")
        if self.max_repeats < 0:
            raise ConfigurationError(f"phase {self.name!r}: max_repeats >= 0")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ConfigurationError(
                f"phase {self.name!r}: deadline_seconds must be > 0 when set"
            )


class StrategyOutcome(enum.Enum):
    """Terminal (or running) status of a strategy execution."""

    RUNNING = "running"
    COMPLETED = "completed"
    ROLLED_BACK = "rolled_back"
    ABORTED = "aborted"


#: Execution substrates a strategy may request (``mode`` in the DSL).
#: The router in :mod:`repro.exec` maps them to backends; the strategy
#: definition itself is substrate-agnostic.
EXECUTION_MODES = frozenset({"sim", "replay", "live"})


@dataclass(frozen=True)
class Strategy:
    """A complete multi-phase live testing strategy.

    The first phase is the entry state; transitions reference other
    phases by name or one of the terminal states ``complete``,
    ``rollback``, ``abort`` (or ``repeat``).

    ``execution_mode`` is a *preference*, not behaviour: it names the
    substrate (``sim``, ``replay``, ``live``) the strategy should run
    against by default.  The engine ignores it; only the execution
    router in :mod:`repro.exec` consults it, and an explicit mode passed
    to the router wins.
    """

    name: str
    phases: tuple[Phase, ...]
    description: str = ""
    tags: tuple[str, ...] = field(default=())
    execution_mode: str = "sim"

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("strategy name must be non-empty")
        if self.execution_mode not in EXECUTION_MODES:
            raise ConfigurationError(
                f"strategy {self.name!r}: unknown execution mode "
                f"{self.execution_mode!r} (expected one of "
                f"{sorted(EXECUTION_MODES)})"
            )
        if not self.phases:
            raise ConfigurationError(f"strategy {self.name!r} needs phases")
        names = [p.name for p in self.phases]
        if len(set(names)) != len(names):
            raise ConfigurationError(
                f"strategy {self.name!r} has duplicate phase names: {names}"
            )
        valid_targets = set(names) | TERMINAL_STATES | {REPEAT}
        for phase in self.phases:
            for target in (phase.on_success, phase.on_failure, phase.on_inconclusive):
                if target not in valid_targets:
                    raise ConfigurationError(
                        f"strategy {self.name!r}, phase {phase.name!r}: "
                        f"unknown transition target {target!r}"
                    )

    @property
    def entry(self) -> Phase:
        """The first phase executed."""
        return self.phases[0]

    def phase(self, name: str) -> Phase:
        """Look up a phase by name."""
        for phase in self.phases:
            if phase.name == name:
                return phase
        raise ConfigurationError(
            f"strategy {self.name!r} has no phase {name!r}"
        )

    @property
    def services(self) -> frozenset[str]:
        """All services the strategy touches."""
        return frozenset(p.service for p in self.phases)


# -- lossless dict serialization -------------------------------------------
#
# The write-ahead journal (:mod:`repro.bifrost.journal`) persists whole
# strategies inside its records; unlike the DSL these converters cover
# *every* model field (tags included), so a recovered engine rebuilds an
# exact copy of what was submitted.


def check_to_dict(check: Check) -> dict:
    """Serialize a check to JSON-compatible primitives (lossless)."""
    return {
        "name": check.name,
        "service": check.service,
        "version": check.version,
        "metric": check.metric,
        "aggregation": check.aggregation,
        "operator": check.operator,
        "threshold": check.threshold,
        "baseline_version": check.baseline_version,
        "tolerance": check.tolerance,
        "window_seconds": check.window_seconds,
        "interval_seconds": check.interval_seconds,
        "kind": check.kind,
        "rule": check.rule,
    }


def check_from_dict(data: Mapping) -> Check:
    """Rebuild a check from :func:`check_to_dict` output."""
    try:
        return Check(
            name=data["name"],
            service=data["service"],
            version=data["version"],
            metric=data["metric"],
            aggregation=data["aggregation"],
            operator=data["operator"],
            threshold=data["threshold"],
            baseline_version=data["baseline_version"],
            tolerance=data["tolerance"],
            window_seconds=data["window_seconds"],
            interval_seconds=data["interval_seconds"],
            kind=data.get("kind", METRIC_CHECK_KIND),
            rule=data.get("rule"),
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed check document: {exc}") from exc


def phase_to_dict(phase: Phase) -> dict:
    """Serialize a phase to JSON-compatible primitives (lossless)."""
    return {
        "name": phase.name,
        "type": phase.type.value,
        "service": phase.service,
        "stable_version": phase.stable_version,
        "experimental_version": phase.experimental_version,
        "second_version": phase.second_version,
        "fraction": phase.fraction,
        "steps": list(phase.steps),
        "audience_groups": sorted(phase.audience_groups),
        "duration_seconds": phase.duration_seconds,
        "check_interval_seconds": phase.check_interval_seconds,
        "checks": [check_to_dict(check) for check in phase.checks],
        "min_samples": phase.min_samples,
        "deadline_seconds": phase.deadline_seconds,
        "on_success": phase.on_success,
        "on_failure": phase.on_failure,
        "on_inconclusive": phase.on_inconclusive,
        "max_repeats": phase.max_repeats,
        "winner_metric": phase.winner_metric,
        "winner_aggregation": phase.winner_aggregation,
        "winner_lower_is_better": phase.winner_lower_is_better,
    }


def phase_from_dict(data: Mapping) -> Phase:
    """Rebuild a phase from :func:`phase_to_dict` output."""
    try:
        return Phase(
            name=data["name"],
            type=PhaseType(data["type"]),
            service=data["service"],
            stable_version=data["stable_version"],
            experimental_version=data["experimental_version"],
            second_version=data["second_version"],
            fraction=data["fraction"],
            steps=tuple(data["steps"]),
            audience_groups=frozenset(data["audience_groups"]),
            duration_seconds=data["duration_seconds"],
            check_interval_seconds=data["check_interval_seconds"],
            checks=tuple(check_from_dict(c) for c in data["checks"]),
            min_samples=data["min_samples"],
            deadline_seconds=data["deadline_seconds"],
            on_success=data["on_success"],
            on_failure=data["on_failure"],
            on_inconclusive=data["on_inconclusive"],
            max_repeats=data["max_repeats"],
            winner_metric=data["winner_metric"],
            winner_aggregation=data["winner_aggregation"],
            winner_lower_is_better=data["winner_lower_is_better"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed phase document: {exc}") from exc


def strategy_to_dict(strategy: Strategy) -> dict:
    """Serialize a strategy to JSON-compatible primitives (lossless)."""
    return {
        "name": strategy.name,
        "description": strategy.description,
        "tags": list(strategy.tags),
        "execution_mode": strategy.execution_mode,
        "phases": [phase_to_dict(phase) for phase in strategy.phases],
    }


def strategy_from_dict(data: Mapping) -> Strategy:
    """Rebuild a strategy from :func:`strategy_to_dict` output."""
    try:
        return Strategy(
            name=data["name"],
            phases=tuple(phase_from_dict(p) for p in data["phases"]),
            description=data.get("description", ""),
            tags=tuple(data.get("tags", ())),
            execution_mode=data.get("execution_mode", "sim"),
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed strategy document: {exc}") from exc

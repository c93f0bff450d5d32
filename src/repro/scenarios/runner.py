"""Running one scenario spec end-to-end through the Bifrost middleware.

The runner is the bridge between specs and invariants: it materializes a
spec via the factory, drives the workload (faults, flash crowds,
mid-experiment deploys and all), and condenses the run into a
:class:`ScenarioResult` — the promoted/rolled-back outcome, the control
plane's transition and check logs, the user-facing SLO timeline, and the
structural cascade depth measured from traces.  Results are pure
functions of the spec's seed: the determinism property tests compare
:meth:`ScenarioResult.digest` across repeated runs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.bifrost.middleware import Bifrost
from repro.bifrost.model import Action, StrategyOutcome
from repro.microservices.faults import EngineCrash, NetworkState
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.scenarios import factory
from repro.scenarios.spec import EXPERIMENTAL_VERSION, ScenarioSpec
from repro.tracing.trace import Trace


@dataclass(frozen=True)
class ScenarioResult:
    """Condensed outcome of one scenario run."""

    spec_name: str
    outcome: StrategyOutcome
    promoted: bool
    stable_version: str
    transitions: tuple[tuple[float, str, str, str, str], ...]
    check_log: tuple[tuple[float, str, str], ...]
    rollback_time: float | None
    first_slo_breach: float | None
    requests: int
    observed_error_rate: float
    experimental_requests: int
    cascade_depth: int
    resilience_counters: dict[str, int] = field(default_factory=dict)

    def digest(self) -> tuple:
        """A hashable fingerprint for determinism comparisons."""
        return (
            self.spec_name,
            self.outcome.value,
            self.promoted,
            self.stable_version,
            self.transitions,
            self.check_log,
            self.rollback_time,
            self.first_slo_breach,
            self.requests,
            round(self.observed_error_rate, 12),
            self.experimental_requests,
            self.cascade_depth,
            tuple(sorted(self.resilience_counters.items())),
        )

    def control_plane(self) -> tuple:
        """Outcome + transition log + check log — the recovery contract.

        Matches the PR-2 durability guarantee: a crashed-and-recovered
        engine replays decisions at original logical timestamps, while
        requests served during the dead window may diverge (the data
        plane keeps serving without the engine), so data-plane fields
        are excluded here.
        """
        return (self.outcome.value, self.transitions, self.check_log)


def cascade_depth(trace: Trace) -> int:
    """Longest ancestor chain of error spans in *trace*.

    A failure cascading from a deep dependency shows up as error spans
    on every service along the call path; call policies with fallbacks
    cut the chain at the absorbing hop.  The depth is the span count of
    the longest parent-linked all-error chain.
    """
    by_id = {span.span_id: span for span in trace.spans}
    depth_of: dict[str, int] = {}

    def depth(span_id: str) -> int:
        cached = depth_of.get(span_id)
        if cached is not None:
            return cached
        span = by_id[span_id]
        if not span.error:
            depth_of[span_id] = 0
            return 0
        parent_depth = 0
        if span.parent_id is not None and span.parent_id in by_id:
            parent_depth = depth(span.parent_id)
        value = parent_depth + 1 if span.error else 0
        depth_of[span_id] = value
        return value

    return max((depth(span.span_id) for span in trace.spans), default=0)


def run_scenario(
    spec: ScenarioSpec,
    crash_window: tuple[float, float] | None = None,
    observer: Observer | None = None,
    force_durable: bool = False,
) -> ScenarioResult:
    """Execute *spec* once and condense the run.

    *crash_window* injects an additional engine crash (forcing durable
    mode) — the hook the recovery-equivalence invariant uses to compare
    a crashed run against the spec's canonical one.  *force_durable*
    journals the run even without crashes so both sides of that
    comparison run the same engine configuration.
    """
    observer = observer or NULL_OBSERVER
    app = factory.build_application(spec)
    network = NetworkState() if factory.needs_network(spec) else None
    resilience = factory.build_resilience(spec)
    durable = (
        factory.needs_durability(spec)
        or crash_window is not None
        or force_durable
    )
    bifrost = Bifrost(
        app,
        seed=spec.seed,
        resilience=resilience,
        network=network,
        durable=durable,
        observer=observer,
    )
    campaign = factory.build_campaign(spec, app, network)
    if crash_window is not None:
        campaign.add(EngineCrash(*crash_window))
    if campaign.faults:
        bifrost.install_campaign(campaign)
    for deploy in factory.deploy_plan(spec):
        bifrost.simulation.schedule_at(
            deploy.start,
            lambda d=deploy: factory.apply_deploy(spec, app, d),
            label=f"deploy:{deploy.service}@{deploy.version}",
        )

    observer.emit("scenario.run_started", 0.0, name=spec.name, seed=spec.seed)
    bifrost.submit(factory.build_strategy(spec), at=1.0)
    population = factory.build_population(spec)
    outcomes = bifrost.run(
        factory.build_workload(spec, population), until=spec.run_until
    )
    # After a crash the recovered engine rebuilds the execution from the
    # journal, so the handle ``submit`` returned may be stale — always
    # read the authoritative one off the engine.
    execution = bifrost.engine.executions[0]

    transitions = tuple(
        (t.time, t.source, t.target, t.trigger, t.action.value)
        for t in execution.transitions
    )
    check_log = tuple(
        (r.time, r.check.name, r.outcome.value) for r in execution.check_log
    )
    rollback_time = next(
        (t.time for t in execution.transitions if t.action is Action.ROLLBACK),
        None,
    )

    errors = sum(1 for o in outcomes if o.error)
    experimental = (spec.experiment.service, EXPERIMENTAL_VERSION)
    exp_requests = 0
    first_breach: float | None = None
    window: deque[tuple[float, bool]] = deque()
    for outcome in outcomes:
        on_experiment = experimental in outcome.version_path
        if on_experiment:
            exp_requests += 1
        window.append((outcome.request.timestamp, outcome.error))
        cutoff = outcome.request.timestamp - spec.slo.window_seconds
        while window and window[0][0] < cutoff:
            window.popleft()
        if first_breach is None and len(window) >= spec.slo.min_samples:
            rate = sum(1 for _, err in window if err) / len(window)
            if rate > spec.slo.error_rate:
                first_breach = outcome.request.timestamp

    max_cascade = max(
        (cascade_depth(o.trace) for o in outcomes), default=0
    )

    result = ScenarioResult(
        spec_name=spec.name,
        outcome=execution.outcome,
        promoted=execution.outcome is StrategyOutcome.COMPLETED,
        stable_version=app.stable_version(spec.experiment.service),
        transitions=transitions,
        check_log=check_log,
        rollback_time=rollback_time,
        first_slo_breach=first_breach,
        requests=len(outcomes),
        observed_error_rate=errors / len(outcomes) if outcomes else 0.0,
        experimental_requests=exp_requests,
        cascade_depth=max_cascade,
        resilience_counters=bifrost.resilience.counters(),
    )
    observer.emit(
        "scenario.run_finished",
        bifrost.simulation.now,
        name=spec.name,
        outcome=result.outcome.value,
        requests=result.requests,
        cascade_depth=result.cascade_depth,
    )
    if observer.enabled:
        observer.metrics.counter("scenario.runs").increment()
    return result

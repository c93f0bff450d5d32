"""Cross-layer invariants every generated scenario must satisfy.

Each invariant is a predicate over (spec, run result[s]) capturing a
promise one layer of the stack makes to the others:

- ``promotion_truth``: the Bifrost engine must not promote an
  experimental version whose *ground-truth* degradation (known to the
  spec, invisible to the engine) exceeds tolerance.
- ``gating_before_slo``: when user-facing error rate breaches the SLO
  while the canary is live, health gating must roll back within a grace
  period rather than letting the experiment complete.
- ``recovery_equivalence``: a crash-and-recovered engine must reach the
  same control-plane history (outcome, transitions, check log) as an
  uncrashed run — the PR-2 durability contract under adversarial load.
- ``ranking_floor``: the HY-rel ranking heuristic must keep nDCG@5 above
  a floor on generated topologies with known mutation logs.
- ``cascade_cap``: fallback call policies must cap how deep failures
  cascade through the dependency chain.
- ``fleet_isolation``: faults injected into one experiment of a fleet
  (crash loops, poisoned checks) must stay inside that experiment's
  bulkhead — every other experiment's outcome matches a fault-free twin
  run, no slot over-admits traffic, and shed experiments are reported.

A violated invariant yields a :class:`Violation` carrying a digest —
a stable fingerprint the regression corpus replays against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.obs.observer import Observer

from repro.scenarios.runner import ScenarioResult, run_scenario
from repro.scenarios.spec import EXPERIMENTAL_VERSION, ScenarioSpec

#: Ground-truth degradation tolerated before a promotion counts as wrong.
TRUTH_ERROR_TOLERANCE = 0.05
TRUTH_LATENCY_TOLERANCE = 1.10

#: nDCG@5 floor for the ranking invariant (HY-rel on synthetic graphs).
NDCG_FLOOR = 0.35

#: Crash window (start, end) used by the recovery-equivalence invariant.
RECOVERY_CRASH_WINDOW = (20.0, 45.0)


@dataclass(frozen=True)
class Violation:
    """One invariant falsified by a concrete scenario."""

    invariant: str
    spec: ScenarioSpec
    detail: str
    digest: tuple

    def to_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "detail": self.detail,
            "digest": list(_jsonable(self.digest)),
            "spec": self.spec.to_dict(),
        }


def _jsonable(value):
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    return value


def check_promotion_truth(
    spec: ScenarioSpec, observer: Observer | None = None
) -> Violation | None:
    """The engine must not promote a ground-truth-regressing variant."""
    result = run_scenario(spec, observer=observer)
    regressed = (
        spec.experiment.true_error_delta > TRUTH_ERROR_TOLERANCE
        or spec.experiment.true_latency_factor > TRUTH_LATENCY_TOLERANCE
    )
    if result.promoted and regressed:
        return Violation(
            invariant="promotion_truth",
            spec=spec,
            detail=(
                f"promoted {spec.experiment.service}@{EXPERIMENTAL_VERSION} "
                f"despite ground-truth error_delta="
                f"{spec.experiment.true_error_delta:.3f}, latency_factor="
                f"{spec.experiment.true_latency_factor:.2f} "
                f"(gate metric={spec.experiment.check_metric!r}, "
                f"threshold={spec.experiment.check_threshold})"
            ),
            digest=(
                "promotion_truth",
                result.outcome.value,
                result.stable_version,
                round(result.observed_error_rate, 6),
            ),
        )
    return None


def check_gating_before_slo(
    spec: ScenarioSpec, observer: Observer | None = None
) -> Violation | None:
    """Health gating must fire before the user-facing SLO stays breached.

    The grace period is one full check window plus one check interval:
    the gate cannot possibly react faster than its own sampling cadence,
    so only breaches that outlast it count as gating failures.
    """
    result = run_scenario(spec, observer=observer)
    if result.first_slo_breach is None:
        return None
    if result.experimental_requests == 0:
        return None  # breach not attributable to the canary
    grace = (
        spec.experiment.check_window_seconds
        + spec.experiment.check_interval_seconds
    )
    deadline = result.first_slo_breach + grace
    if result.rollback_time is not None and result.rollback_time <= deadline:
        return None
    if result.promoted or result.rollback_time is None:
        return Violation(
            invariant="gating_before_slo",
            spec=spec,
            detail=(
                f"SLO breached at t={result.first_slo_breach:.1f}s "
                f"(window error rate > {spec.slo.error_rate}) but gate "
                f"{'promoted the canary' if result.promoted else 'never rolled back'}"
                f" (grace deadline t={deadline:.1f}s)"
            ),
            digest=(
                "gating_before_slo",
                result.outcome.value,
                round(result.first_slo_breach, 3),
                result.rollback_time,
            ),
        )
    if result.rollback_time > deadline:
        return Violation(
            invariant="gating_before_slo",
            spec=spec,
            detail=(
                f"rollback at t={result.rollback_time:.1f}s missed the grace "
                f"deadline t={deadline:.1f}s after SLO breach at "
                f"t={result.first_slo_breach:.1f}s"
            ),
            digest=(
                "gating_before_slo",
                result.outcome.value,
                round(result.first_slo_breach, 3),
                round(result.rollback_time, 3),
            ),
        )
    return None


def check_recovery_equivalence(
    spec: ScenarioSpec, observer: Observer | None = None
) -> Violation | None:
    """Crash-and-recover must equal the uncrashed run on the control plane."""
    baseline = run_scenario(spec, force_durable=True, observer=observer)
    crashed = run_scenario(
        spec, crash_window=RECOVERY_CRASH_WINDOW, observer=observer
    )
    if baseline.control_plane() != crashed.control_plane():
        return Violation(
            invariant="recovery_equivalence",
            spec=spec,
            detail=(
                f"control plane diverged after engine crash "
                f"{RECOVERY_CRASH_WINDOW}: baseline outcome="
                f"{baseline.outcome.value} ({len(baseline.transitions)} "
                f"transitions, {len(baseline.check_log)} checks) vs crashed "
                f"outcome={crashed.outcome.value} "
                f"({len(crashed.transitions)} transitions, "
                f"{len(crashed.check_log)} checks)"
            ),
            digest=(
                "recovery_equivalence",
                baseline.outcome.value,
                crashed.outcome.value,
                len(baseline.transitions),
                len(crashed.transitions),
            ),
        )
    return None


def check_ranking_floor(
    spec: ScenarioSpec, observer: Observer | None = None
) -> Violation | None:
    """HY-rel nDCG@5 must stay above the floor on generated topologies."""
    from repro.topology.diff import diff_graphs
    from repro.topology.generator import (
        mutate_graph_logged,
        random_interaction_graph,
    )
    from repro.topology.heuristics.hybrid import HybridHeuristic
    from repro.topology.ranking import evaluate_ranking, rank_changes

    topo = spec.topology
    graph = random_interaction_graph(
        topo.num_endpoints, branching=topo.branching, seed=spec.seed
    )
    variant, log = mutate_graph_logged(
        graph,
        topo.changes,
        seed=spec.seed + 7,
        degradation_factor=topo.degradation_factor,
    )
    if not log:
        return None
    diff = diff_graphs(graph, variant)
    if not diff.changes:
        return None
    relevance = _relevance_from_log(diff, log, topo.degradation_factor)
    if not any(relevance.values()):
        return None
    ranking = rank_changes(diff, HybridHeuristic(relative=True))
    ndcg = evaluate_ranking(ranking, relevance, k=5)
    if ndcg < NDCG_FLOOR:
        return Violation(
            invariant="ranking_floor",
            spec=spec,
            detail=(
                f"HY-rel nDCG@5={ndcg:.3f} < floor {NDCG_FLOOR} on "
                f"{topo.num_endpoints}-endpoint graph (branching="
                f"{topo.branching}, {len(log)} applied mutations)"
            ),
            digest=("ranking_floor", round(ndcg, 6), len(log), len(diff.changes)),
        )
    return None


def _relevance_from_log(diff, log, degradation_factor: float) -> dict:
    """Grade diff changes against the applied-mutation ground truth.

    Degrading version updates are what an engineer must see first
    (grade 3); new endpoints pull in unknown code (2); new and removed
    calls reshape the topology without new code (1).  Changes the diff
    surfaces that no mutation explains grade 0.
    """
    degraded = degradation_factor > 1.0
    by_key: dict[tuple[str, str], int] = {}
    for mutation in log:
        key = (mutation.target.service, mutation.target.endpoint)
        if mutation.op == "updated":
            grade = 3 if degraded else 2
        elif mutation.op == "new_endpoint":
            grade = 2
        else:
            grade = 1
        by_key[key] = max(by_key.get(key, 0), grade)
    relevance = {}
    for change in diff.changes:
        callee = change.callee
        key = (callee.service, callee.endpoint) if callee else None
        relevance[change.identity] = by_key.get(key, 0) if key else 0
    return relevance


def check_cascade_cap(
    spec: ScenarioSpec, observer: Observer | None = None
) -> Violation | None:
    """Fallback policies must bound how deep failures cascade.

    With a fallback configured on calls *to* service ``j``, an error
    originating at or below ``j`` is absorbed at ``j``'s caller, so the
    error-span chain cannot extend above ``j``.  The cap below is the
    worst case over every error source the spec plants.
    """
    result = run_scenario(spec, observer=observer)
    cap = cascade_cap_of(spec)
    if cap is None:
        return None
    if result.cascade_depth > cap:
        return Violation(
            invariant="cascade_cap",
            spec=spec,
            detail=(
                f"error cascade depth {result.cascade_depth} exceeds cap "
                f"{cap} (fallback on calls to "
                f"{spec.resilience.fallback_service!r})"
            ),
            digest=("cascade_cap", result.cascade_depth, cap),
        )
    return None


def cascade_cap_of(spec: ScenarioSpec) -> int | None:
    """Worst-case admissible error-chain depth, or None if unbounded.

    Only meaningful when every baseline error rate is zero (otherwise
    ambient errors can legitimately align into long chains).
    """
    if any(s.error_rate > 0 for s in spec.services):
        return None
    sources: list[int] = []
    for fault in spec.faults:
        if fault.kind in ("error_burst", "version_crash"):
            sources.append(spec.service_index(fault.service))
        elif fault.kind == "partition":
            sources.append(spec.service_index(fault.service_b))
    if spec.experiment.true_error_delta > 0:
        sources.append(spec.service_index(spec.experiment.service))
    if not sources:
        return 0
    fallback = spec.resilience.fallback_service
    fallback_idx = spec.service_index(fallback) if fallback else None
    caps = []
    for idx in sources:
        if fallback_idx is not None and idx >= fallback_idx:
            # Absorbed at the fallback hop: chain spans [fallback_idx, idx].
            caps.append(idx - fallback_idx + 1)
        else:
            # Propagates to the entry: chain spans [0, idx].
            caps.append(idx + 1)
    return max(caps)


def check_fleet_isolation(
    spec: ScenarioSpec, observer: Observer | None = None
) -> Violation | None:
    """Faults in one fleet bulkhead must not contaminate the others.

    Runs the spec's fleet plan twice — once with the injected faults,
    once fault-free — and demands (1) every planned experiment appears in
    the outcomes (shed is a reported outcome, never a silent drop),
    (2) no committed slot's admitted usage exceeds the traffic budget,
    and (3) every *non-faulted* experiment reaches the identical outcome
    in both runs.  The factory builds feasible plans (fraction capped at
    ``budget / (2·wave)``), so admission never defers and condition (3)
    is exact, not probabilistic.  ``bulkheads=False`` is the designed
    falsifier: one poisoned check evaluation aborts the whole fleet.
    """
    if not spec.fleet.enabled:
        return None
    from repro.fleet.admission import usage_within_budget
    from repro.fleet.orchestrator import FleetOrchestrator
    from repro.scenarios.factory import build_fleet_plan

    schedule, world, faults, config = build_fleet_plan(spec)
    faulted = FleetOrchestrator(
        schedule, world=world, faults=faults, config=config, observer=observer
    ).run()
    clean = FleetOrchestrator(
        schedule, world=world, faults={}, config=config
    ).run()

    names = [s.name for s, _ in schedule]
    missing = sorted(n for n in names if n not in faulted.outcomes)
    if missing:
        return Violation(
            invariant="fleet_isolation",
            spec=spec,
            detail=f"experiments dropped without a reported outcome: {missing}",
            digest=("fleet_isolation", "missing", tuple(missing)),
        )
    for row in faulted.ledger:
        if not usage_within_budget(dict(row.usage), config.budget):
            return Violation(
                invariant="fleet_isolation",
                spec=spec,
                detail=(
                    f"slot {row.slot} admitted usage {dict(row.usage)} "
                    f"exceeds budget {config.budget}"
                ),
                digest=("fleet_isolation", "over_admitted", row.slot),
            )
    contaminated = tuple(
        (n, clean.outcomes[n], faulted.outcomes[n])
        for n in names
        if n not in faults and faulted.outcomes[n] != clean.outcomes[n]
    )
    if contaminated:
        return Violation(
            invariant="fleet_isolation",
            spec=spec,
            detail=(
                "non-faulted experiments changed outcome under injected "
                f"faults: {contaminated}"
            ),
            digest=("fleet_isolation", "contaminated", contaminated),
        )
    return None


#: Registry the fuzzer iterates over: name -> check function.
INVARIANTS: dict[str, Callable[..., Violation | None]] = {
    "promotion_truth": check_promotion_truth,
    "gating_before_slo": check_gating_before_slo,
    "recovery_equivalence": check_recovery_equivalence,
    "ranking_floor": check_ranking_floor,
    "cascade_cap": check_cascade_cap,
    "fleet_isolation": check_fleet_isolation,
}


def check_invariant(
    name: str, spec: ScenarioSpec, observer: Observer | None = None
) -> Violation | None:
    """Run one named invariant against *spec*."""
    try:
        checker = INVARIANTS[name]
    except KeyError:
        raise KeyError(
            f"unknown invariant {name!r}; known: {sorted(INVARIANTS)}"
        ) from None
    return checker(spec, observer=observer)


__all__ = [
    "INVARIANTS",
    "NDCG_FLOOR",
    "RECOVERY_CRASH_WINDOW",
    "TRUTH_ERROR_TOLERANCE",
    "TRUTH_LATENCY_TOLERANCE",
    "Violation",
    "cascade_cap_of",
    "check_cascade_cap",
    "check_fleet_isolation",
    "check_gating_before_slo",
    "check_invariant",
    "check_promotion_truth",
    "check_ranking_floor",
    "check_recovery_equivalence",
    "ScenarioResult",
    "run_scenario",
]

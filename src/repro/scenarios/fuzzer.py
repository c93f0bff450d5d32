"""Adversarial scenario fuzzer: sample, check, shrink.

The fuzzer draws scenario specs from a handful of adversarial
*archetypes* (loose gates, cascading failures, heavy-tail traffic, flash
crowds, multi-region chains, mid-experiment deploys, engine crashes,
topology sweeps), runs each against the archetype's cross-layer
invariants, and greedily shrinks any counterexample before reporting it.
Everything is seeded: the same root seed replays the exact same
campaign, which is how counterexamples graduate into the regression
corpus under ``tests/regression_corpus/``.

Hypothesis drives the *property tests* over this module; the fuzzer
itself uses only :class:`~repro.simulation.rng.SeededRng` so it can run
in examples and CI smoke steps without the hypothesis machinery.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.obs.observer import NULL_OBSERVER, Observer
from repro.scenarios.invariants import Violation, check_invariant
from repro.scenarios.spec import (
    ArrivalSpec,
    ExperimentSpec,
    FaultSpec,
    FlashCrowdSpec,
    FleetSpec,
    RegionSpec,
    ResilienceSpec,
    ScenarioSpec,
    ServiceSpec,
    SloSpec,
    TopologySpec,
)
from repro.simulation.rng import SeededRng


def _chain(rng: SeededRng, depth: int, **overrides) -> tuple[ServiceSpec, ...]:
    """A linear service chain svc0 -> svc1 -> ... of *depth* services."""
    services = []
    for i in range(depth):
        depends = (f"svc{i + 1}",) if i + 1 < depth else ()
        services.append(
            ServiceSpec(
                name=f"svc{i}",
                median_ms=rng.uniform(8.0, 25.0),
                sigma=rng.uniform(0.1, 0.5),
                depends_on=depends,
                **overrides,
            )
        )
    return tuple(services)


def _experiment(rng: SeededRng, depth: int, **overrides) -> ExperimentSpec:
    defaults = dict(
        service=f"svc{rng.randint(0, depth - 1)}",
        fraction=rng.uniform(0.2, 0.5),
        duration_seconds=rng.uniform(40.0, 70.0),
        check_threshold=rng.uniform(0.05, 0.2),
        check_window_seconds=rng.uniform(15.0, 30.0),
        check_interval_seconds=rng.uniform(5.0, 12.0),
        deadline_seconds=200.0,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


def _spec(name: str, seed: int, services, experiment, **kwargs) -> ScenarioSpec:
    kwargs.setdefault(
        "arrivals", ArrivalSpec(rate_per_second=8.0, duration_seconds=90.0)
    )
    kwargs.setdefault("run_until", 150.0)
    return ScenarioSpec(
        name=name, seed=seed, services=services, experiment=experiment, **kwargs
    )


def sample_loose_gate(rng: SeededRng, index: int) -> ScenarioSpec:
    """A canary whose gate threshold may be looser than its true damage.

    This archetype seeds the known-bad region of config space: when the
    sampled ``check_threshold`` exceeds ``true_error_delta`` the engine
    happily promotes a variant that regresses ground truth — the exact
    misconfiguration the ``promotion_truth`` invariant exists to catch.
    """
    depth = rng.randint(2, 3)
    services = _chain(rng, depth)
    experiment = _experiment(
        rng,
        depth,
        service="svc0",
        true_error_delta=rng.uniform(0.05, 0.35),
        check_threshold=rng.uniform(0.1, 0.6),
        min_samples=5,
    )
    return _spec(
        f"loose-gate-{index}",
        seed=rng.randint(0, 2**31 - 1),
        services=services,
        experiment=experiment,
        slo=SloSpec(error_rate=rng.uniform(0.08, 0.2)),
    )


def sample_cascade(rng: SeededRng, index: int) -> ScenarioSpec:
    """Deep-chain failures with a fallback that must cap the cascade."""
    depth = rng.randint(3, 4)
    services = _chain(rng, depth)
    source = rng.randint(1, depth - 1)
    fault_kind = rng.choice(["error_burst", "version_crash"])
    fault = FaultSpec(
        kind=fault_kind,
        service=f"svc{source}",
        version="1.0.0",
        magnitude=rng.uniform(0.6, 1.0),
        start=rng.uniform(10.0, 25.0),
        end=rng.uniform(45.0, 70.0),
    )
    fallback = f"svc{rng.randint(1, source)}"
    return _spec(
        f"cascade-{index}",
        seed=rng.randint(0, 2**31 - 1),
        services=services,
        experiment=_experiment(rng, depth, service="svc0"),
        faults=(fault,),
        resilience=ResilienceSpec(
            retries=rng.randint(0, 2), fallback_service=fallback
        ),
    )


def sample_heavy_tail(rng: SeededRng, index: int) -> ScenarioSpec:
    """Pareto arrivals and Pareto service tails: burst-then-lull load."""
    depth = rng.randint(2, 3)
    services = tuple(
        dataclasses.replace(s, tail="pareto", tail_alpha=rng.uniform(1.2, 2.2))
        for s in _chain(rng, depth)
    )
    return _spec(
        f"heavy-tail-{index}",
        seed=rng.randint(0, 2**31 - 1),
        services=services,
        experiment=_experiment(
            rng,
            depth,
            service="svc0",
            true_error_delta=rng.choice([0.0, rng.uniform(0.08, 0.3)]),
            check_threshold=rng.uniform(0.1, 0.5),
            min_samples=5,
        ),
        arrivals=ArrivalSpec(
            kind="pareto",
            rate_per_second=rng.uniform(5.0, 12.0),
            duration_seconds=90.0,
            alpha=rng.uniform(1.1, 1.6),
        ),
        slo=SloSpec(error_rate=rng.uniform(0.1, 0.25)),
    )


def sample_flash_crowd(rng: SeededRng, index: int) -> ScenarioSpec:
    """Load spikes against resource-capped services mid-experiment."""
    depth = rng.randint(2, 3)
    services = list(_chain(rng, depth))
    services[0] = dataclasses.replace(
        services[0],
        cpu_cap_rps=rng.uniform(25.0, 60.0),
        pressure=rng.uniform(0.4, 0.8),
    )
    crowds = tuple(
        FlashCrowdSpec(
            start=rng.uniform(15.0, 40.0),
            duration=rng.uniform(10.0, 25.0),
            magnitude=rng.uniform(3.0, 8.0),
        )
        for _ in range(rng.randint(1, 2))
    )
    return _spec(
        f"flash-crowd-{index}",
        seed=rng.randint(0, 2**31 - 1),
        services=tuple(services),
        experiment=_experiment(rng, depth, service="svc0"),
        flash_crowds=crowds,
    )


def sample_multi_region(rng: SeededRng, index: int) -> ScenarioSpec:
    """Cross-region chains where WAN latency inflates tail budgets."""
    depth = rng.randint(3, 4)
    regions = (
        RegionSpec("us-east", cross_latency_ms=0.0),
        RegionSpec("eu-west", cross_latency_ms=rng.uniform(30.0, 90.0)),
    )
    services = tuple(
        dataclasses.replace(s, region="us-east" if i < depth // 2 else "eu-west")
        for i, s in enumerate(_chain(rng, depth))
    )
    experiment = _experiment(
        rng,
        depth,
        service=f"svc{depth - 1}",
        check_metric="response_time",
        check_threshold=rng.uniform(150.0, 400.0),
        true_latency_factor=rng.choice([1.0, rng.uniform(1.5, 4.0)]),
    )
    return _spec(
        f"multi-region-{index}",
        seed=rng.randint(0, 2**31 - 1),
        services=services,
        experiment=experiment,
        regions=regions,
    )


def sample_deploy_mid(rng: SeededRng, index: int) -> ScenarioSpec:
    """A mid-experiment deploy landing while transient faults overlap."""
    depth = rng.randint(2, 3)
    services = _chain(rng, depth)
    target = f"svc{rng.randint(1, depth - 1)}" if depth > 1 else "svc0"
    deploy = FaultSpec(
        kind="deploy",
        service=target,
        version="3.0.0",
        magnitude=rng.uniform(0.8, 1.5),
        start=rng.uniform(25.0, 50.0),
    )
    spike = FaultSpec(
        kind="latency_spike",
        service=target,
        version="1.0.0",
        magnitude=rng.uniform(2.0, 5.0),
        start=rng.uniform(10.0, 20.0),
        end=rng.uniform(55.0, 75.0),
    )
    return _spec(
        f"deploy-mid-{index}",
        seed=rng.randint(0, 2**31 - 1),
        services=services,
        experiment=_experiment(rng, depth, service="svc0"),
        faults=(spike, deploy),
    )


def sample_crashy(rng: SeededRng, index: int) -> ScenarioSpec:
    """Engine crashes mid-flight: the durability contract under load."""
    depth = rng.randint(2, 3)
    services = _chain(rng, depth)
    faults = []
    if rng.random() < 0.5:
        faults.append(
            FaultSpec(
                kind="error_burst",
                service=f"svc{depth - 1}",
                version="1.0.0",
                magnitude=rng.uniform(0.2, 0.6),
                start=rng.uniform(10.0, 30.0),
                end=rng.uniform(50.0, 80.0),
            )
        )
    return _spec(
        f"crashy-{index}",
        seed=rng.randint(0, 2**31 - 1),
        services=services,
        experiment=_experiment(rng, depth, service="svc0"),
        faults=tuple(faults),
    )


def sample_topology(rng: SeededRng, index: int) -> ScenarioSpec:
    """Generated interaction graphs for the ranking-floor invariant."""
    depth = 2
    return _spec(
        f"topology-{index}",
        seed=rng.randint(0, 2**31 - 1),
        services=_chain(rng, depth),
        experiment=_experiment(rng, depth, service="svc0"),
        topology=TopologySpec(
            num_endpoints=rng.randint(40, 200),
            branching=rng.randint(1, 5),
            changes=rng.randint(4, 24),
            degradation_factor=rng.choice([1.0, rng.uniform(1.5, 4.0)]),
        ),
    )


def sample_fleet(rng: SeededRng, index: int) -> ScenarioSpec:
    """Whole-fleet runs: one crash-looping bulkhead among healthy peers.

    The service chain is a bystander here — the fleet block drives
    everything.  Each draw plants a crash-looper, usually a poisoned
    check, and a genuinely bad experiment, then asks ``fleet_isolation``
    to prove none of it leaked past the faulted bulkheads.
    """
    depth = 2
    experiments = rng.randint(6, 14)
    indices = list(range(experiments))
    looper = rng.choice(indices)
    poisoned = rng.choice(indices) if rng.random() < 0.7 else -1
    bad = rng.choice(indices) if rng.random() < 0.7 else -1
    return _spec(
        f"fleet-{index}",
        seed=rng.randint(0, 2**31 - 1),
        services=_chain(rng, depth),
        experiment=_experiment(rng, depth, service="svc0"),
        fleet=FleetSpec(
            experiments=experiments,
            slot_seconds=rng.uniform(20.0, 40.0),
            base_fraction=rng.uniform(0.04, 0.12),
            duration_slots=rng.randint(2, 3),
            wave=rng.randint(3, 5),
            crash_looper=looper,
            poisoned=poisoned,
            bad_experiment=bad,
            error_delta=rng.uniform(0.2, 0.4),
            restart_max=rng.randint(1, 3),
        ),
    )


@dataclass(frozen=True)
class Archetype:
    """One adversarial scenario family and the invariants it stresses."""

    name: str
    sample: Callable[[SeededRng, int], ScenarioSpec]
    invariants: tuple[str, ...]


ARCHETYPES: tuple[Archetype, ...] = (
    Archetype("loose_gate", sample_loose_gate, ("promotion_truth", "gating_before_slo")),
    Archetype("cascade", sample_cascade, ("cascade_cap",)),
    Archetype("heavy_tail", sample_heavy_tail, ("promotion_truth", "gating_before_slo")),
    Archetype("flash_crowd", sample_flash_crowd, ("gating_before_slo",)),
    Archetype("multi_region", sample_multi_region, ("promotion_truth",)),
    Archetype("deploy_mid", sample_deploy_mid, ("recovery_equivalence",)),
    Archetype("crashy", sample_crashy, ("recovery_equivalence",)),
    Archetype("topology", sample_topology, ("ranking_floor",)),
    Archetype("fleet", sample_fleet, ("fleet_isolation",)),
)

ARCHETYPES_BY_NAME = {a.name: a for a in ARCHETYPES}


# -- shrinking ---------------------------------------------------------------


def _replace(spec: ScenarioSpec, **kwargs) -> ScenarioSpec | None:
    try:
        return dataclasses.replace(spec, **kwargs)
    except Exception:
        return None


def _shrink_candidates(spec: ScenarioSpec) -> list[ScenarioSpec]:
    """Strictly-simpler variants of *spec*, most aggressive first.

    Each candidate removes or simplifies one aspect; the shrinker keeps
    a candidate only when the violation still reproduces, so order is a
    heuristic for how much a transform usually simplifies the story.
    """
    candidates: list[ScenarioSpec | None] = []
    # Drop whole fault entries, flash crowds, regions.
    for i in range(len(spec.faults)):
        faults = spec.faults[:i] + spec.faults[i + 1:]
        candidates.append(_replace(spec, faults=faults))
    for i in range(len(spec.flash_crowds)):
        crowds = spec.flash_crowds[:i] + spec.flash_crowds[i + 1:]
        candidates.append(_replace(spec, flash_crowds=crowds))
    if spec.regions:
        candidates.append(
            _replace(
                spec,
                regions=(),
                services=tuple(
                    dataclasses.replace(s, region="") for s in spec.services
                ),
            )
        )
    # Drop the deepest service (rewiring its caller's dependency away).
    if len(spec.services) > 1:
        last = spec.services[-1].name
        kept = [
            dataclasses.replace(
                s, depends_on=tuple(d for d in s.depends_on if d != last)
            )
            for s in spec.services[:-1]
        ]
        if spec.experiment.service != last and all(
            f.service != last and f.service_b != last for f in spec.faults
        ) and spec.resilience.fallback_service != last:
            candidates.append(_replace(spec, services=tuple(kept)))
    # Simplify the resilience layer.
    if spec.resilience.retries:
        candidates.append(
            _replace(
                spec,
                resilience=dataclasses.replace(spec.resilience, retries=0),
            )
        )
    # Shorten and calm the run.
    if spec.arrivals.duration_seconds > 45.0:
        candidates.append(
            _replace(
                spec,
                arrivals=dataclasses.replace(
                    spec.arrivals, duration_seconds=45.0
                ),
                run_until=max(spec.run_until / 2.0, 75.0),
            )
        )
    if spec.arrivals.rate_per_second > 4.0:
        candidates.append(
            _replace(
                spec,
                arrivals=dataclasses.replace(spec.arrivals, rate_per_second=4.0),
            )
        )
    if spec.experiment.duration_seconds > 30.0:
        candidates.append(
            _replace(
                spec,
                experiment=dataclasses.replace(
                    spec.experiment, duration_seconds=30.0
                ),
            )
        )
    # Flatten latency noise.
    if any(s.sigma > 0.0 for s in spec.services):
        candidates.append(
            _replace(
                spec,
                services=tuple(
                    dataclasses.replace(s, sigma=0.0) for s in spec.services
                ),
            )
        )
    # Smaller topology for ranking scenarios.
    if spec.topology.num_endpoints > 30:
        candidates.append(
            _replace(
                spec,
                topology=dataclasses.replace(
                    spec.topology,
                    num_endpoints=max(30, spec.topology.num_endpoints // 2),
                ),
            )
        )
    if spec.topology.changes > 4:
        candidates.append(
            _replace(
                spec,
                topology=dataclasses.replace(
                    spec.topology, changes=spec.topology.changes // 2
                ),
            )
        )
    # Smaller fleets: halve the experiment count (keeping every faulted
    # index alive by clamping it into the shrunken range), then try
    # dropping each injected fault outright.
    if spec.fleet.enabled and spec.fleet.experiments > 4:
        half = spec.fleet.experiments // 2

        def _clamp(idx: int) -> int:
            return min(idx, half - 1) if idx >= 0 else -1

        candidates.append(
            _replace(
                spec,
                fleet=dataclasses.replace(
                    spec.fleet,
                    experiments=half,
                    crash_looper=_clamp(spec.fleet.crash_looper),
                    poisoned=_clamp(spec.fleet.poisoned),
                    bad_experiment=_clamp(spec.fleet.bad_experiment),
                ),
            )
        )
    if spec.fleet.enabled:
        for label in ("crash_looper", "poisoned", "bad_experiment"):
            if getattr(spec.fleet, label) >= 0:
                candidates.append(
                    _replace(
                        spec,
                        fleet=dataclasses.replace(spec.fleet, **{label: -1}),
                    )
                )
    return [c for c in candidates if c is not None]


#: Re-checks a shrink may spend before it stops.
SHRINK_BUDGET = 48


def shrink_violation(
    violation: Violation,
    budget: int = SHRINK_BUDGET,
    observer: Observer | None = None,
) -> Violation:
    """Greedily minimize *violation*'s spec while it keeps violating.

    Classic greedy pass-until-fixpoint: try every candidate transform,
    restart from the first that still reproduces the same invariant
    violation, stop when no transform survives (a local minimum) or the
    re-check *budget* runs out.
    """
    observer = observer or NULL_OBSERVER
    current = violation
    spent = 0
    progress = True
    while progress and spent < budget:
        progress = False
        for candidate in _shrink_candidates(current.spec):
            if spent >= budget:
                break
            spent += 1
            reproduced = check_invariant(
                current.invariant, candidate, observer=observer
            )
            if reproduced is not None:
                observer.emit(
                    "scenario.shrink_step",
                    0.0,
                    invariant=current.invariant,
                    name=candidate.name,
                    checks_spent=spent,
                )
                current = reproduced
                progress = True
                break
    return current


# -- the fuzz loop -----------------------------------------------------------


@dataclass
class FuzzReport:
    """What one fuzzing campaign found."""

    seed: int
    iterations: int = 0
    checks: int = 0
    violations: list[Violation] = field(default_factory=list, init=False)

    def by_invariant(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for v in self.violations:
            counts[v.invariant] = counts.get(v.invariant, 0) + 1
        return dict(sorted(counts.items()))

    def describe(self) -> str:
        lines = [
            f"fuzz campaign seed={self.seed}: {self.iterations} scenarios, "
            f"{self.checks} invariant checks, "
            f"{len(self.violations)} violations"
        ]
        for v in self.violations:
            lines.append(f"  [{v.invariant}] {v.spec.name}: {v.detail}")
        return "\n".join(lines)


class ScenarioFuzzer:
    """Seeded fuzz campaigns over the adversarial archetypes."""

    def __init__(
        self,
        seed: int = 0,
        archetypes: Sequence[str] | None = None,
        observer: Observer | None = None,
    ) -> None:
        names = tuple(archetypes) if archetypes else tuple(ARCHETYPES_BY_NAME)
        unknown = [n for n in names if n not in ARCHETYPES_BY_NAME]
        if unknown:
            raise KeyError(
                f"unknown archetypes {unknown}; known: {sorted(ARCHETYPES_BY_NAME)}"
            )
        self.seed = seed
        self.archetypes = tuple(ARCHETYPES_BY_NAME[n] for n in names)
        self.observer = observer or NULL_OBSERVER
        self._rng = SeededRng(seed)

    def sample(self, index: int) -> tuple[Archetype, ScenarioSpec]:
        """Draw scenario *index*: archetypes rotate round-robin."""
        archetype = self.archetypes[index % len(self.archetypes)]
        return archetype, archetype.sample(self._rng, index)

    def run(self, iterations: int, shrink: bool = True) -> FuzzReport:
        """Fuzz for *iterations* scenarios; shrink whatever falsifies."""
        report = FuzzReport(seed=self.seed)
        for index in range(iterations):
            archetype, spec = self.sample(index)
            report.iterations += 1
            self.observer.emit(
                "scenario.fuzz_case",
                float(index),
                archetype=archetype.name,
                name=spec.name,
                seed=spec.seed,
            )
            for invariant in archetype.invariants:
                report.checks += 1
                violation = check_invariant(
                    invariant, spec, observer=self.observer
                )
                if violation is None:
                    continue
                self.observer.emit(
                    "scenario.violation_found",
                    float(index),
                    invariant=invariant,
                    name=spec.name,
                )
                if self.observer.enabled:
                    self.observer.metrics.counter(
                        "scenario.violations", invariant=invariant
                    ).increment()
                if shrink:
                    violation = shrink_violation(violation, observer=self.observer)
                report.violations.append(violation)
        self.observer.emit(
            "scenario.fuzz_finished",
            float(iterations),
            iterations=report.iterations,
            checks=report.checks,
            violations=len(report.violations),
        )
        return report

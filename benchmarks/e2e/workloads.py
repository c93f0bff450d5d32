"""The five benchmark workloads.

Each workload builds its inputs from the seed in :meth:`setup` (which
also runs the warm-up and the prefix equivalence checks), does one fixed
unit of work per :meth:`run` call (the timed round) and verifies it in
:meth:`check` (untimed).  Sizes are fixed per mode; the seed changes the
generated inputs and nothing else.  ``check`` returns exact counts and a
digest of the simulated state, which must repeat for a seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from array import array
from dataclasses import dataclass, field
from time import perf_counter

from repro.bifrost import Bifrost
from repro.bifrost.engine import BifrostEngine
from repro.bifrost.journal import Journal, MemoryJournalStorage
from repro.bifrost.model import Check, Phase, PhaseType, Strategy
from repro.bifrost.recovery import RecoveryManager
from repro.exec.recording import Recording, run_digest
from repro.exec.router import ExecutionRouter
from repro.fenrir import reevaluation
from repro.fenrir.fitness import FitnessWeights, evaluate
from repro.fenrir.generator import SampleSizeBand, random_experiments
from repro.fenrir.genetic import GeneticAlgorithm
from repro.fenrir.model import ExperimentSpec, SchedulingProblem
from repro.fenrir.schedule import Gene, Schedule
from repro.fenrir.scheduler import Fenrir
from repro.fleet import (
    OUTCOME_PROMOTED,
    ExperimentFaults,
    FleetConfig,
    FleetOrchestrator,
    OrchestratorKilled,
    usage_within_budget,
)
from repro.fleet import recovery as fleet_recovery
from repro.microservices.application import Application
from repro.microservices.faults import (
    ErrorBurst,
    FaultCampaign,
    FaultInjector,
    LatencySpike,
)
from repro.microservices.resilience import (
    BreakerConfig,
    CallPolicy,
    ResilienceLayer,
)
from repro.microservices.service import (
    DownstreamCall,
    EndpointSpec,
    ServiceVersion,
)
from repro.obs import provenance, timeline
from repro.obs.observer import Observer
from repro.routing.proxy import VersionRouter
from repro.simulation.engine import SimulationEngine
from repro.simulation.latency import (
    ConstantLatency,
    LoadSensitiveLatency,
    LogNormalLatency,
)
from repro.telemetry.store import MetricStore
from repro.topology.builder import build_interaction_graph
from repro.traffic.batch import BatchWorkloadGenerator
from repro.traffic.profile import (
    DEFAULT_GROUPS,
    TrafficProfile,
    UserGroup,
    diurnal_profile,
)
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator


@dataclass
class Round:
    """Verified outcome of one timed round."""

    ops: int
    failed: int
    counts: dict[str, float]
    digest: str
    notes: dict = field(default_factory=dict)
    #: Measured, not seed-determined (e.g. bytes of a file that embeds
    #: wall-clock check costs); reported but exempt from the guard.
    measured: dict[str, float] = field(default_factory=dict)


# -- shared builders ---------------------------------------------------------


def shop_app(rate: float, canary_error: float = 0.0) -> Application:
    """frontend -> catalog (1.0.0 stable, 2.0.0 candidate) -> inventory."""
    app = Application()

    def catalog(version: str, median: float, error: float) -> ServiceVersion:
        return ServiceVersion(
            "catalog",
            version,
            {
                "search": EndpointSpec(
                    "search",
                    LogNormalLatency(median, 0.25),
                    calls=(DownstreamCall("inventory", "check"),),
                    error_rate=error,
                )
            },
            capacity_rps=2.0 * rate,
        )

    app.deploy(
        ServiceVersion(
            "frontend",
            "1.0.0",
            {
                "index": EndpointSpec(
                    "index",
                    LoadSensitiveLatency(LogNormalLatency(20.0, 0.3)),
                    calls=(DownstreamCall("catalog", "search"),),
                )
            },
            capacity_rps=2.0 * rate,
        )
    )
    app.deploy(catalog("1.0.0", 15.0, 0.0))
    app.deploy(catalog("2.0.0", 13.0, canary_error))
    app.deploy(
        ServiceVersion(
            "inventory",
            "1.0.0",
            {"check": EndpointSpec("check", ConstantLatency(4.0))},
            capacity_rps=4.0 * rate,
        )
    )
    return app


def catalog_checks(window: float) -> tuple[Check, ...]:
    return (
        Check(
            name="error-rate",
            service="catalog",
            version="2.0.0",
            metric="error",
            threshold=0.05,
            window_seconds=window,
        ),
        Check(
            name="latency-vs-stable",
            service="catalog",
            version="2.0.0",
            metric="response_time",
            baseline_version="1.0.0",
            tolerance=1.25,
            window_seconds=window,
        ),
    )


def canary_phase(duration: float, checks: tuple[Check, ...], **kwargs) -> Phase:
    return Phase(
        name="canary",
        type=PhaseType.CANARY,
        service="catalog",
        stable_version="1.0.0",
        experimental_version="2.0.0",
        fraction=0.10,
        duration_seconds=duration,
        check_interval_seconds=duration / 3.0,
        checks=checks,
        **kwargs,
    )


def canary_strategy(traffic_seconds: float) -> Strategy:
    """The two-check 10 % catalog canary, sized to end inside the traffic."""
    duration = traffic_seconds * 0.75
    return Strategy(
        name="catalog-canary",
        phases=(canary_phase(duration, catalog_checks(duration)),),
    )


def sha(*parts: object) -> str:
    return hashlib.sha256("".join(map(str, parts)).encode()).hexdigest()


def counted(items, box: list[int], size=len):
    """Pass *items* through, adding each one's size to ``box[0]``."""
    for item in items:
        box[0] += size(item)
        yield item


def state_digest(store: MetricStore, executions) -> str:
    """Digest of every stored sample and every engine decision.

    Covers what :func:`repro.exec.recording.run_digest` covers but hashes
    the sample columns as bytes, so a million-sample store costs
    milliseconds and can be checked every round.
    """
    h = hashlib.sha256()
    for key in store.keys():
        series = store.series(key.service, key.version, key.metric)
        h.update(str(key).encode())
        h.update(array("d", series.timestamps).tobytes())
        h.update(array("d", series.values).tobytes())
    for execution in sorted(executions, key=lambda e: e.strategy.name):
        h.update(
            repr(
                (
                    execution.strategy.name,
                    execution.state,
                    execution.outcome.value,
                    execution.winner,
                    execution.finished_at,
                    [
                        (r.time, r.source, r.target, r.trigger, r.action.value)
                        for r in execution.transitions
                    ],
                    [
                        (r.time, r.check.name, r.outcome.value, r.observed,
                         r.reference)
                        for r in execution.check_log
                    ],
                )
            ).encode()
        )
    return h.hexdigest()


def store_samples(store: MetricStore) -> int:
    return sum(
        len(store.series(k.service, k.version, k.metric)) for k in store.keys()
    )


def engine_counts(executions) -> dict[str, float]:
    return {
        "bifrost.check_evals": sum(len(e.check_log) for e in executions),
        "bifrost.transitions": sum(len(e.transitions) for e in executions),
    }


def journal_counts(journals) -> dict[str, float]:
    lines = [line for j in journals for line in j.storage.read_lines()]
    return {
        "bifrost.journal_records": len(lines),
        "bifrost.journal_bytes": sum(len(line) + 1 for line in lines),
    }


def scalar_twin_digest(build, rate: float, seconds: float, population, seed: int):
    """``run_digest`` of a short prefix on both request paths.

    *build* returns a fresh ``(bifrost, until)``; the same seeded Poisson
    stream is replayed once through ``run_batches`` and once through the
    scalar ``Bifrost.run``.
    """
    digests = []
    for generator_type, drive in (
        (BatchWorkloadGenerator, "run_batches"),
        (WorkloadGenerator, "run"),
    ):
        bifrost, until = build()
        generator = generator_type(population, entry="frontend.index", seed=seed)
        getattr(bifrost, drive)(generator.poisson(rate, seconds), until=until)
        digests.append(run_digest(bifrost.store, bifrost.engine.executions))
    return digests[0], digests[1], bifrost


class Workload:
    """Base: seed, mode and the planted-fault switch of the self-test."""

    name = ""

    def __init__(self, seed: int, smoke: bool, plant_fault: bool, scratch: str):
        self.seed = seed
        self.smoke = smoke
        self.plant_fault = plant_fault
        self.scratch = scratch
        self.setup_counts: dict[str, float] = {}

    def build_population(self, users: int) -> UserPopulation:
        started = perf_counter()
        population = UserPopulation(users, DEFAULT_GROUPS, seed=self.seed + 1)
        self.setup_counts["traffic.population_build_s"] = perf_counter() - started
        return population


# -- clean_canary ------------------------------------------------------------


class CleanCanary(Workload):
    """op = simulated request through the batch kernel's fast path."""

    name = "clean_canary"

    def setup(self) -> str:
        self.users = 20_000 if self.smoke else 1_000_000
        self.rate = 2_000.0 if self.smoke else 10_000.0
        self.seconds = 10.0 if self.smoke else 20.0
        self.population = self.build_population(self.users)
        # 2 000-request prefix, whole canary lifecycle, both request paths.
        prefix_rate = 2_000.0 / self.seconds
        batch, scalar, _ = scalar_twin_digest(
            lambda: self.build(prefix_rate),
            prefix_rate,
            self.seconds,
            self.population,
            self.seed + 2,
        )
        if batch != scalar:
            raise AssertionError("clean_canary: batch prefix != scalar prefix")
        return batch

    def build(self, rate: float):
        bifrost = Bifrost(shop_app(rate), seed=self.seed + 7)
        bifrost.submit(canary_strategy(self.seconds), at=1.0)
        return bifrost, self.seconds + 10.0

    def run(self):
        bifrost, until = self.build(self.rate)
        generator = BatchWorkloadGenerator(
            self.population, entry="frontend.index", seed=self.seed + 2
        )
        generated = [0]
        result = bifrost.run_batches(
            counted(generator.poisson(self.rate, self.seconds), generated),
            until=until,
        )
        return bifrost, result, generated[0]

    def check(self, state) -> Round:
        bifrost, result, generated = state
        execution = bifrost.engine.executions[0]
        ok = (
            generated == result.requests == bifrost.runtime.requests_executed
            and result.requests == result.fast_requests + result.fallback_requests
            and execution.outcome.value == "completed"
            and bifrost.application.stable_version("catalog") == "2.0.0"
            and len(bifrost.store.series("frontend", "1.0.0", "throughput"))
            == result.requests
        )
        counts = batch_counts(result, generated)
        counts.update(engine_counts(bifrost.engine.executions))
        counts["simulation.events_run"] = bifrost.simulation.processed_events
        counts["telemetry.samples"] = store_samples(bifrost.store)
        return Round(
            ops=generated,
            failed=0 if ok else generated,
            counts=counts,
            digest=state_digest(bifrost.store, bifrost.engine.executions),
            notes={"fallback_reasons": dict(result.fallback_reasons)},
        )


def batch_counts(result, generated: int) -> dict[str, float]:
    return {
        "traffic.requests": generated,
        "simulation.fast_slices": result.fast_slices,
        "simulation.fallback_slices": result.fallback_slices,
        "simulation.fast_requests": result.fast_requests,
        "microservices.errors": result.errors,
    }


# -- hostile_canary ----------------------------------------------------------


class HostileCanary(Workload):
    """op = simulated request; four legs, one batch-kernel fallback class each."""

    name = "hostile_canary"
    LEGS = ("shadow", "faults", "resilience", "live_health")

    def setup(self) -> str:
        self.users = 5_000 if self.smoke else 100_000
        self.rate = 100.0 if self.smoke else 250.0
        self.seconds = 6.0 if self.smoke else 20.0
        self.population = self.build_population(self.users)
        # Baseline topology for leg 4: the scalar twin of a plain canary.
        _, _, warm = scalar_twin_digest(
            lambda: (Bifrost(shop_app(50.0), seed=self.seed + 7), 5.0),
            50.0,
            4.0,
            self.population,
            self.seed + 2,
        )
        self.baseline = build_interaction_graph(
            warm.collector.traces(), name="baseline"
        )
        digests = []
        for leg in self.LEGS:
            batch, scalar, _ = scalar_twin_digest(
                lambda leg=leg: self.build(leg, 50.0),
                50.0,
                self.seconds,
                self.population,
                self.seed + 2,
            )
            if batch != scalar:
                raise AssertionError(
                    f"hostile_canary[{leg}]: batch prefix != scalar prefix"
                )
            digests.append(batch)
        return sha(*digests)

    def build(self, leg: str, rate: float):
        """A fresh middleware whose every slice hits one fallback class."""
        seconds = self.seconds
        app = shop_app(rate, canary_error=0.02)
        resilience = None
        if leg == "resilience":
            resilience = ResilienceLayer(
                breaker_config=BreakerConfig(
                    failure_threshold=0.5,
                    window_size=20,
                    min_calls=10,
                    open_seconds=2.0,
                )
            )
            resilience.set_policy(
                CallPolicy(
                    max_retries=2,
                    backoff_base_ms=5.0,
                    backoff_multiplier=2.0,
                    jitter_ms=3.0,
                ),
                service="catalog",
            )
        bifrost = Bifrost(app, seed=self.seed + 7, resilience=resilience)
        checks = catalog_checks(seconds)
        if leg == "shadow":
            # The dark launch outlasts the traffic, so every slice sees a
            # shadow route; the chained canary then decides on the shadow
            # copies' samples.
            strategy = Strategy(
                name="catalog-dark-then-canary",
                phases=(
                    Phase(
                        name="dark",
                        type=PhaseType.DARK_LAUNCH,
                        service="catalog",
                        stable_version="1.0.0",
                        experimental_version="2.0.0",
                        duration_seconds=seconds,
                        check_interval_seconds=seconds / 3.0,
                        checks=checks,
                        on_success="canary",
                    ),
                    canary_phase(4.0, checks),
                ),
            )
        elif leg == "live_health":
            bifrost.enable_live_health(
                baseline=self.baseline, publish_interval=2.0
            )
            strategy = Strategy(
                name="catalog-canary",
                phases=(
                    canary_phase(
                        seconds * 0.75,
                        checks
                        + (
                            Check(
                                name="live-health",
                                service="catalog",
                                version="2.0.0",
                                metric="health.score",
                                kind="health",
                                operator=">=",
                                threshold=0.5,
                                window_seconds=seconds,
                            ),
                        ),
                    ),
                ),
            )
        else:
            strategy = canary_strategy(seconds)
        if leg == "faults":
            campaign = FaultCampaign(FaultInjector(app))
            campaign.add(
                ErrorBurst("catalog", "2.0.0", "search", 0.05, 0.0, seconds + 1.0)
            )
            campaign.add(
                LatencySpike("inventory", "1.0.0", "check", 2.0, 0.0, seconds + 1.0)
            )
            bifrost.install_campaign(campaign)
        bifrost.submit(strategy, at=0.0)
        return bifrost, seconds + 10.0

    def run(self):
        legs = []
        for index, leg in enumerate(self.LEGS):
            bifrost, until = self.build(leg, self.rate)
            generator = BatchWorkloadGenerator(
                self.population,
                entry="frontend.index",
                seed=self.seed + 2 + index,
            )
            generated = [0]
            result = bifrost.run_batches(
                counted(generator.poisson(self.rate, self.seconds), generated),
                until=until,
            )
            legs.append((leg, bifrost, result, generated[0]))
        return legs

    def check(self, state) -> Round:
        ops = failed = 0
        counts: dict[str, float] = {}
        notes = {}
        digests = []
        for leg, bifrost, result, generated in state:
            ok = generated == result.requests == bifrost.runtime.requests_executed
            ops += generated
            failed += 0 if ok else generated
            leg_counts = batch_counts(result, generated)
            leg_counts.update(engine_counts(bifrost.engine.executions))
            leg_counts["simulation.events_run"] = bifrost.simulation.processed_events
            leg_counts["telemetry.samples"] = store_samples(bifrost.store)
            resilience = bifrost.resilience.counters()
            leg_counts["microservices.retries"] = resilience.get("retry", 0)
            leg_counts["microservices.breaker_rejects"] = resilience.get(
                "breaker_reject", 0
            )
            leg_counts["tracing.late_spans_dropped"] = (
                bifrost.collector.late_spans_dropped.value
            )
            if bifrost.live_health is not None:
                leg_counts["topology.traces_folded"] = (
                    bifrost.streaming_builder.trace_count
                )
                leg_counts["topology.publishes"] = bifrost.live_health.publishes
            for key, value in leg_counts.items():
                counts[key] = counts.get(key, 0) + value
            notes[leg] = {
                "fallback_reasons": dict(result.fallback_reasons),
                "outcome": bifrost.engine.executions[0].outcome.value,
            }
            digests.append(state_digest(bifrost.store, bifrost.engine.executions))
        return Round(
            ops=ops,
            failed=failed,
            counts=counts,
            digest=sha(*digests),
            notes=notes,
        )


# -- record_replay -----------------------------------------------------------


class RecordReplay(Workload):
    """op = request recorded, saved, loaded, replayed, diffed and folded."""

    name = "record_replay"

    def setup(self) -> str:
        self.users = 5_000 if self.smoke else 100_000
        self.rate = 100.0 if self.smoke else 500.0
        self.seconds = 10.0 if self.smoke else 20.0
        self.population = self.build_population(self.users)
        # Warm-up: one small record -> replay cycle.
        warm = self.check(self.cycle(25.0, plant_fault=False))
        if warm.failed:
            raise AssertionError("record_replay: warm-up cycle diverged")
        return warm.digest

    def run(self):
        return self.cycle(self.rate, self.plant_fault)

    def cycle(self, rate: float, plant_fault: bool):
        journal = Journal(MemoryJournalStorage())
        router = ExecutionRouter(
            lambda: shop_app(rate),
            seed=self.seed + 7,
            sim_kwargs={"durable": True, "journal": journal},
        )
        generator = WorkloadGenerator(
            self.population, entry="frontend.index", seed=self.seed + 2
        )
        generated = [0]
        recorded = router.run(
            canary_strategy(self.seconds),
            workload=counted(
                generator.poisson(rate, self.seconds), generated, lambda _: 1
            ),
            until=self.seconds + 10.0,
            submit_at=1.0,
            record=True,
        )
        handle, path = tempfile.mkstemp(suffix=".jsonl", dir=self.scratch)
        os.close(handle)
        try:
            recorded.recording.save(path)
            size = os.path.getsize(path)
            if plant_fault:
                corrupt_one_request_line(path)
            loaded = Recording.load(path)
        finally:
            os.unlink(path)
        replayed = router.run(recording=loaded)
        offline = provenance.build_provenance(loaded.events)
        timelines = timeline.reconstruct_timelines(loaded.events)
        engine = BifrostEngine(
            simulation=SimulationEngine(),
            application=shop_app(rate),
            router=VersionRouter(),
            store=MetricStore(),
        )
        recovery = RecoveryManager(
            journal, recorded.details.middleware.snapshots
        ).recover(engine)
        return (recorded, replayed, offline, timelines, recovery, engine,
                journal, generated[0], size)

    def check(self, state) -> Round:
        (recorded, replayed, offline, timelines, recovery, engine, journal,
         generated, size) = state
        live = recorded.details.provenance.digest()
        diff = replayed.replay
        original = recorded.details.executions[0]
        ok = (
            generated == recorded.requests == replayed.requests
            and diff.identical
            and diff.digest_match
            and live == offline.digest()
            and provenance_shape(offline)
            == provenance_shape(replayed.details.provenance)
            and set(timelines) == {original.strategy.name}
            and [e.outcome for e in engine.executions] == [original.outcome]
        )
        middleware = recorded.details.middleware
        counts = {
            "traffic.requests": generated,
            "simulation.events_run": middleware.simulation.processed_events,
            "telemetry.samples": store_samples(middleware.store),
            "microservices.errors": recorded.errors,
            "obs.events": middleware.observer.events.appended,
            "obs.events_dropped": middleware.observer.events.dropped,
            "bifrost.records_recovered": recovery.records_replayed,
            "tracing.late_spans_dropped": (
                middleware.collector.late_spans_dropped.value
            ),
        }
        counts.update(engine_counts(recorded.details.executions))
        counts.update(journal_counts([journal]))
        return Round(
            ops=generated,
            failed=0 if ok else generated,
            counts=counts,
            digest=sha(recorded.recording.digest, live),
            notes={"outcome": recorded.outcome.value},
            measured={"exec.recording_bytes": size},
        )


_SEQ_KEYS = {"seq", "transition_seq", "evidence", "fired_seq", "resolved_seq"}


def provenance_shape(graph) -> dict:
    """The graph's canonical form with event seqs renumbered densely.

    A journaled recording interleaves ``journal.append`` events the
    (unjournaled) replay never emits, so raw seqs differ between the two
    while every decision, evidence record and link is the same.
    """
    doc = graph.as_dict()
    seqs: set[int] = set()

    def walk(node, visit):
        if isinstance(node, dict):
            for key, value in node.items():
                if key in _SEQ_KEYS and not (
                    isinstance(value, list) and value and isinstance(value[0], dict)
                ):
                    node[key] = visit(value)
                else:
                    walk(value, visit)
        elif isinstance(node, list):
            for item in node:
                walk(item, visit)

    def collect(value):
        seqs.update(value if isinstance(value, list) else [value])
        return value

    walk(doc, collect)
    rank = {seq: i for i, seq in enumerate(sorted(s for s in seqs if s is not None))}
    rank[None] = None
    walk(
        doc,
        lambda v: [rank[x] for x in v] if isinstance(v, list) else rank[v],
    )
    return doc


def corrupt_one_request_line(path: str) -> None:
    """Planted fault: double one recorded span duration in the file."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.readlines()
    index = next(i for i, line in enumerate(lines) if '"type":"request"' in line)
    doc = json.loads(lines[index])
    doc["spans"][0][3] *= 2.0
    lines[index] = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)


# -- plan_schedule -----------------------------------------------------------


class PlanSchedule(Workload):
    """op = budget-charged fitness evaluation (Fenrir only).

    The instance suite is fixed: the cost of one evaluation varies by
    about a fifth with the instance and with the path the search takes
    (coefficient of variation 0.19-0.21 over 30 seeded instances, 0.10
    when only the traffic-noise realisation changes), which no ten-second
    run averages below the regression bound.  So the instances and their
    search seeds are constants, and ``--seed`` does not reach this
    workload.
    """

    name = "plan_schedule"
    #: (traffic profile seed, experiment generator seed, search seed)
    SUITE = ((7, 17, 0), (8, 18, 1), (9, 19, 2))

    def setup(self) -> str:
        suite = self.SUITE[:1] if self.smoke else self.SUITE
        self.experiments = 15 if self.smoke else 40
        self.budget = 200 if self.smoke else 400
        self.rebudget = 100 if self.smoke else 200
        self.inputs = []
        for profile_seed, specs_seed, search_seed in suite:
            profile = diurnal_profile(days=7, seed=profile_seed)
            specs = random_experiments(
                profile, self.experiments, SampleSizeBand.HIGH, seed=specs_seed
            )
            self.inputs.append((profile, specs, search_seed))
        # Warm-up: a short search on the first instance.
        profile, specs, search_seed = self.inputs[0]
        warm = Fenrir(GeneticAlgorithm(population_size=20)).schedule(
            profile, specs, budget=100, seed=search_seed
        )
        return sha(repr(warm.fitness))

    def run(self):
        results = []
        for profile, specs, search_seed in self.inputs:
            fenrir = Fenrir(GeneticAlgorithm(population_size=20))
            planned = fenrir.schedule(
                profile, specs, budget=self.budget, seed=search_seed
            )
            _, replanned = reevaluation.reevaluate(
                planned.schedule,
                now_slot=profile.num_slots // 2,
                algorithm=GeneticAlgorithm(population_size=20),
                budget=self.rebudget,
                seed=search_seed,
            )
            results.append((planned.search, replanned))
        return results

    def check(self, state) -> Round:
        ops = failed = 0
        counts = {
            "fenrir.full_evals": 0,
            "fenrir.delta_evals": 0,
            "fenrir.cache_hits": 0,
        }
        fitness = []
        for searches in state:
            for search in searches:
                reference = evaluate(search.best_schedule, FitnessWeights())
                ok = (
                    reference.fitness == search.fitness
                    and reference.valid == search.best_evaluation.valid
                )
                ops += search.evaluations_used
                failed += 0 if ok else search.evaluations_used
                stats = search.eval_stats
                counts["fenrir.full_evals"] += stats.full_evals
                counts["fenrir.delta_evals"] += stats.delta_evals
                counts["fenrir.cache_hits"] += stats.cache_hits
                fitness.append(search.fitness)
        counts["fenrir.best_fitness_sum"] = sum(fitness)
        return Round(
            ops=ops,
            failed=failed,
            counts=counts,
            digest=sha(repr(fitness)),
        )


# -- fleet_run ---------------------------------------------------------------

WAVE = 10
DURATION = 2
LOOPER_DURATION = 6


def fleet_schedule(n: int) -> Schedule:
    """Back-to-back waves of WAVE experiments, one group, fixed volume."""
    waves = (n + WAVE - 1) // WAVE
    horizon = waves * DURATION + LOOPER_DURATION + 2
    profile = TrafficProfile([40_000.0] * horizon, [UserGroup("all", 1.0)])
    specs = [
        ExperimentSpec(
            name=f"exp{i:03d}",
            required_samples=100.0,
            min_traffic_fraction=0.01,
            max_traffic_fraction=1.0,
            max_duration_slots=horizon,
        )
        for i in range(n)
    ]
    genes = [
        Gene(
            start=(i // WAVE) * DURATION,
            duration=LOOPER_DURATION if i == 0 else DURATION,
            fraction=0.05,
            groups=frozenset({"all"}),
        )
        for i in range(n)
    ]
    return Schedule(SchedulingProblem(profile, specs), genes)


def fleet_faults(n: int) -> dict[str, ExperimentFaults]:
    """One crash-looper, one crasher per wave, check errors on three."""
    faults = {"exp000": ExperimentFaults(crash_loop=True)}
    for i in range(5, n, WAVE):
        faults[f"exp{i:03d}"] = ExperimentFaults(
            crash_slots=((i // WAVE) * DURATION,)
        )
    for i in range(1, min(4, n)):
        faults[f"exp{i:03d}"] = ExperimentFaults(
            check_error_slots=tuple(range(16))
        )
    return faults


class FleetHarness:
    """One fleet over memory WALs: runnable, killable, recoverable."""

    def __init__(self, schedule, faults, world, seed: int) -> None:
        self.schedule, self.faults, self.world = schedule, faults, world
        self.config = FleetConfig(
            slot_seconds=30.0,
            check_interval_seconds=10.0,
            restart_max=2,
            seed=seed,
        )
        self.fleet_storage = MemoryJournalStorage()
        self.storages: dict[str, MemoryJournalStorage] = {}
        self.observer = Observer(enabled=True)
        self.events: list = []
        self.observer.events.subscribe(self.events.append)

    def journal_factory(self, name: str) -> Journal:
        return Journal(self.storages.setdefault(name, MemoryJournalStorage()))

    def build(self, kill_at: int | None = None) -> FleetOrchestrator:
        return FleetOrchestrator(
            self.schedule,
            world=self.world,
            faults=self.faults,
            config=self.config,
            observer=self.observer,
            fleet_journal=Journal(self.fleet_storage),
            journal_factory=self.journal_factory,
            crash_after_appends=kill_at,
        )

    def recover(self) -> FleetOrchestrator:
        return fleet_recovery.recover_fleet(
            Journal(self.fleet_storage),
            self.journal_factory,
            observer=self.observer,
        )

    def journals(self) -> list[Journal]:
        return [Journal(self.fleet_storage)] + [
            Journal(storage) for storage in self.storages.values()
        ]


class FleetRun(Workload):
    """op = experiment brought to a terminal outcome by the fleet."""

    name = "fleet_run"

    def setup(self) -> str:
        self.size = 30 if self.smoke else 200
        self.fleets = 1 if self.smoke else 3
        self.schedule = fleet_schedule(self.size)
        self.faults = fleet_faults(self.size)
        self.bad = f"exp{self.size - 1:03d}"
        self.world = {self.bad: 0.4}
        # Warm-up: one small uncrashed fleet.
        warm = FleetHarness(
            fleet_schedule(2 * WAVE), fleet_faults(2 * WAVE), {}, self.seed
        ).build().run()
        return sha(repr(warm.digest()))

    def run(self):
        runs = []
        for index in range(self.fleets):
            seed = self.seed + index
            clean = FleetHarness(self.schedule, self.faults, self.world, seed)
            fleet = clean.build()
            uncrashed = fleet.run()
            appends = Journal(clean.fleet_storage).last_lsn
            crashed = FleetHarness(self.schedule, self.faults, self.world, seed)
            try:
                crashed.build(kill_at=appends // 2).run()
                killed = False
            except OrchestratorKilled:
                killed = True
            recovered_fleet = crashed.recover()
            recovered = recovered_fleet.run()
            graph = provenance.build_provenance(clean.events)
            plan = reevaluation.build_reevaluation_from_fleet(
                self.schedule,
                self.schedule.problem.horizon // 2,
                uncrashed.outcomes,
            )
            runs.append(
                (clean, crashed, fleet, recovered_fleet, uncrashed, recovered,
                 killed, graph, plan)
            )
        return runs

    def check(self, state) -> Round:
        ops = failed = 0
        counts: dict[str, float] = {}
        digests = []
        for (clean, crashed, fleet, recovered_fleet, uncrashed, recovered,
             killed, graph, plan) in state:
            outcomes = dict(recovered.outcomes)
            if self.plant_fault:
                outcomes[self.bad] = OUTCOME_PROMOTED
            ok = (
                killed
                and recovered.recovered
                and not uncrashed.aborted
                and len(uncrashed.outcomes) == len(outcomes) == self.size
                and all(usage_within_budget(dict(r.usage)) for r in uncrashed.ledger)
                and all(usage_within_budget(dict(r.usage)) for r in recovered.ledger)
                and recovered.digest() == uncrashed.digest()
                and uncrashed.outcomes[self.bad] != OUTCOME_PROMOTED
                and outcomes[self.bad] != OUTCOME_PROMOTED
                and plan.problem is not None
                and graph is not None
            )
            ops += self.size
            failed += 0 if ok else self.size
            journals = clean.journals() + crashed.journals()
            fleet_counts = {
                "fleet.slots": uncrashed.slots_run + recovered.slots_run,
                "fleet.restarts": sum(uncrashed.restarts.values()),
                "fleet.sheds": len(uncrashed.sheds),
                "obs.events": clean.observer.events.appended
                + crashed.observer.events.appended,
                "obs.events_dropped": clean.observer.events.dropped
                + crashed.observer.events.dropped,
            }
            fleet_counts.update(journal_counts(journals))
            bulkheads = list(fleet.bulkheads.values()) + list(
                recovered_fleet.bulkheads.values()
            )
            fleet_counts.update(
                engine_counts([e for b in bulkheads for e in b.engine.executions])
            )
            fleet_counts["simulation.events_run"] = sum(
                b.sim.processed_events for b in bulkheads
            )
            fleet_counts["telemetry.samples"] = sum(
                store_samples(b.store) for b in bulkheads
            )
            for key, value in fleet_counts.items():
                counts[key] = counts.get(key, 0) + value
            digests.append(repr(uncrashed.digest()))
        return Round(
            ops=ops,
            failed=failed,
            counts=counts,
            digest=sha(*digests),
        )


WORKLOADS = {
    w.name: w
    for w in (CleanCanary, HostileCanary, RecordReplay, PlanSchedule, FleetRun)
}

"""Serializable scenario specs: the unit the factory builds and the fuzzer samples.

A :class:`ScenarioSpec` is a *complete*, seeded description of one
adversarial experimentation run: the service chain (with heavy-tail
latency families, resource caps, and region placement), the traffic
(arrival process, flash crowds), the Bifrost experiment under test, the
transient-fault plan, the resilience configuration, the user-facing SLO,
and an independent generated-topology block for the ranking invariant.

Specs are plain frozen dataclasses with lossless ``to_dict`` /
``from_dict`` round trips, so every fuzzer counterexample can be written
to ``tests/regression_corpus/`` and replayed bit-for-bit, and every
interesting scenario doubles as a benchmark fixture.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Mapping

from repro.errors import ConfigurationError, ValidationError

SPEC_FORMAT = 1

#: Version strings the factory deploys.
STABLE_VERSION = "1.0.0"
EXPERIMENTAL_VERSION = "2.0.0"

#: Latency tail families a service can use.
TAIL_LOGNORMAL = "lognormal"
TAIL_PARETO = "pareto"
_TAILS = frozenset({TAIL_LOGNORMAL, TAIL_PARETO})

#: Arrival processes.
ARRIVALS_POISSON = "poisson"
ARRIVALS_PARETO = "pareto"
_ARRIVALS = frozenset({ARRIVALS_POISSON, ARRIVALS_PARETO})

#: Fault kinds a :class:`FaultSpec` can describe.
FAULT_KINDS = frozenset(
    {"error_burst", "latency_spike", "version_crash", "partition",
     "engine_crash", "deploy"}
)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


@dataclass(frozen=True)
class ServiceSpec:
    """One service in the scenario's call chain.

    Attributes:
        name: unique service name.
        median_ms: latency body's median.
        sigma: log-normal shape (``tail == "lognormal"``).
        tail: latency family, ``lognormal`` or ``pareto``.
        tail_alpha: Pareto tail index (``tail == "pareto"``).
        error_rate: baseline local failure probability.
        depends_on: services this one calls (must be declared later in
            the chain — the declaration order is the topological order).
        region: region the service is homed in; "" means the entry
            (primary) region.
        cpu_cap_rps: resource constraint — nominal capacity one node
            sustains; 0 disables the cap.  Capped nodes inflate latency
            under load (the CPS resource-constrained platform model).
        pressure: latency inflation per unit of overload on capped nodes.
    """

    name: str
    median_ms: float = 15.0
    sigma: float = 0.25
    tail: str = TAIL_LOGNORMAL
    tail_alpha: float = 1.5
    error_rate: float = 0.0
    depends_on: tuple[str, ...] = ()
    region: str = ""
    cpu_cap_rps: float = 0.0
    pressure: float = 0.6

    def __post_init__(self) -> None:
        _require(bool(self.name), "service name must be non-empty")
        _require(self.median_ms > 0, f"{self.name}: median_ms must be > 0")
        _require(self.sigma >= 0, f"{self.name}: sigma must be >= 0")
        _require(self.tail in _TAILS, f"{self.name}: unknown tail {self.tail!r}")
        _require(self.tail_alpha > 1.0, f"{self.name}: tail_alpha must be > 1")
        _require(
            0.0 <= self.error_rate <= 1.0, f"{self.name}: error_rate in [0, 1]"
        )
        _require(self.cpu_cap_rps >= 0, f"{self.name}: cpu_cap_rps must be >= 0")
        _require(self.pressure >= 0, f"{self.name}: pressure must be >= 0")
        object.__setattr__(self, "depends_on", tuple(self.depends_on))


@dataclass(frozen=True)
class RegionSpec:
    """A region with its cross-region round-trip penalty."""

    name: str
    cross_latency_ms: float = 40.0

    def __post_init__(self) -> None:
        _require(bool(self.name), "region name must be non-empty")
        _require(
            self.cross_latency_ms >= 0, f"{self.name}: cross_latency_ms >= 0"
        )


@dataclass(frozen=True)
class ArrivalSpec:
    """The request arrival process driving the scenario."""

    kind: str = ARRIVALS_POISSON
    rate_per_second: float = 10.0
    duration_seconds: float = 120.0
    alpha: float = 1.5

    def __post_init__(self) -> None:
        _require(self.kind in _ARRIVALS, f"unknown arrival kind {self.kind!r}")
        _require(self.rate_per_second > 0, "rate_per_second must be > 0")
        _require(self.duration_seconds > 0, "duration_seconds must be > 0")
        _require(self.alpha > 1.0, "alpha must be > 1")


@dataclass(frozen=True)
class FlashCrowdSpec:
    """A rate surge layered onto the arrival process (half-open window)."""

    start: float
    duration: float
    magnitude: float

    def __post_init__(self) -> None:
        _require(self.start >= 0, "flash crowd start must be >= 0")
        _require(self.duration > 0, "flash crowd duration must be > 0")
        _require(self.magnitude > 0, "flash crowd magnitude must be > 0")


@dataclass(frozen=True)
class FaultSpec:
    """One transient fault (or mid-experiment deploy) on the timeline.

    ``magnitude`` is overloaded per kind: added error rate for
    ``error_burst``, latency factor for ``latency_spike`` and ``deploy``
    (the newly deployed stable version's latency factor over the old
    one), and unused otherwise.  ``service_b`` is the partition peer.
    ``deploy`` faults fire at ``start`` only (``end`` is ignored): they
    deploy ``version`` of ``service`` cloned from its stable spec and
    promote it — the baseline shifts under the running experiment.
    """

    kind: str
    service: str = ""
    endpoint: str = "ep"
    version: str = EXPERIMENTAL_VERSION
    service_b: str = ""
    magnitude: float = 0.5
    start: float = 10.0
    end: float = 40.0

    def __post_init__(self) -> None:
        _require(self.kind in FAULT_KINDS, f"unknown fault kind {self.kind!r}")
        _require(self.start >= 0, "fault start must be >= 0")
        if self.kind != "deploy":
            _require(self.end > self.start, "fault window must satisfy start < end")
        if self.kind == "error_burst":
            _require(0.0 <= self.magnitude <= 1.0, "error burst magnitude in [0, 1]")
        if self.kind in ("latency_spike", "deploy"):
            _require(self.magnitude > 0, f"{self.kind} magnitude must be > 0")
        if self.kind == "partition":
            _require(bool(self.service_b), "partitions need service_b")


@dataclass(frozen=True)
class ExperimentSpec:
    """The Bifrost canary experiment the scenario runs.

    ``true_error_delta`` and ``true_latency_factor`` are the *ground
    truth*: the experimental version's real degradation over stable,
    baked into its endpoint spec.  The engine never sees them directly —
    it only sees the windowed metrics its checks sample — which is
    exactly the gap the promotion invariant probes.
    """

    service: str
    true_latency_factor: float = 1.0
    true_error_delta: float = 0.0
    fraction: float = 0.3
    duration_seconds: float = 90.0
    check_metric: str = "error"
    check_threshold: float = 0.1
    check_window_seconds: float = 25.0
    check_interval_seconds: float = 10.0
    min_samples: int = 0
    deadline_seconds: float = 400.0

    def __post_init__(self) -> None:
        _require(bool(self.service), "experiment service must be non-empty")
        _require(self.true_latency_factor > 0, "true_latency_factor must be > 0")
        _require(
            0.0 <= self.true_error_delta <= 1.0, "true_error_delta in [0, 1]"
        )
        _require(0.0 < self.fraction < 1.0, "fraction must be in (0, 1)")
        _require(self.duration_seconds > 0, "duration_seconds must be > 0")
        _require(
            self.check_metric in ("error", "response_time"),
            f"unknown check metric {self.check_metric!r}",
        )
        _require(self.check_threshold > 0, "check_threshold must be > 0")
        _require(self.check_window_seconds > 0, "check_window_seconds must be > 0")
        _require(
            self.check_interval_seconds > 0, "check_interval_seconds must be > 0"
        )
        _require(self.min_samples >= 0, "min_samples must be >= 0")
        _require(self.deadline_seconds > 0, "deadline_seconds must be > 0")


@dataclass(frozen=True)
class ResilienceSpec:
    """Retries / fallback / breaker configuration for the run."""

    retries: int = 0
    backoff_base_ms: float = 5.0
    fallback_service: str = ""
    breaker: bool = False
    breaker_failure_threshold: float = 0.9
    breaker_window: int = 40
    breaker_min_calls: int = 20
    breaker_open_seconds: float = 20.0

    def __post_init__(self) -> None:
        _require(self.retries >= 0, "retries must be >= 0")
        _require(self.backoff_base_ms >= 0, "backoff_base_ms must be >= 0")
        _require(
            0.0 < self.breaker_failure_threshold <= 1.0,
            "breaker_failure_threshold in (0, 1]",
        )
        _require(self.breaker_window >= 1, "breaker_window must be >= 1")
        _require(self.breaker_min_calls >= 1, "breaker_min_calls must be >= 1")
        _require(self.breaker_open_seconds > 0, "breaker_open_seconds must be > 0")


@dataclass(frozen=True)
class SloSpec:
    """The user-facing error-rate SLO gating must beat."""

    error_rate: float = 0.25
    window_seconds: float = 30.0
    min_samples: int = 20

    def __post_init__(self) -> None:
        _require(0.0 < self.error_rate < 1.0, "slo error_rate in (0, 1)")
        _require(self.window_seconds > 0, "slo window_seconds must be > 0")
        _require(self.min_samples >= 1, "slo min_samples must be >= 1")


@dataclass(frozen=True)
class TopologySpec:
    """Generated-topology block for the ranking (nDCG) invariant."""

    num_endpoints: int = 120
    branching: int = 3
    changes: int = 12
    degradation_factor: float = 2.5

    def __post_init__(self) -> None:
        _require(self.num_endpoints >= 1, "num_endpoints must be >= 1")
        _require(self.branching >= 1, "branching must be >= 1")
        _require(self.changes >= 0, "changes must be >= 0")
        _require(self.degradation_factor >= 1.0, "degradation_factor >= 1")


@dataclass(frozen=True)
class FleetSpec:
    """Fleet-orchestration block (disabled unless ``experiments > 0``).

    When enabled, the scenario carries a whole Fenrir plan executed as a
    fleet of supervised Bifrost engines (``repro.fleet``): *experiments*
    genes laid out in back-to-back waves of *wave*, each holding
    *base_fraction* of shared traffic for *duration_slots* slots.  The
    fraction is capped at ``budget / (2 * wave)`` by the factory so the
    plan stays feasible even when faulted experiments overrun — which is
    what lets the ``fleet_isolation`` invariant compare faulted and
    fault-free twins outcome-by-outcome.
    """

    experiments: int = 0
    slot_seconds: float = 30.0
    budget: float = 1.0
    base_fraction: float = 0.08
    duration_slots: int = 2
    wave: int = 4
    crash_looper: int = -1
    poisoned: int = -1
    bad_experiment: int = -1
    error_delta: float = 0.3
    restart_max: int = 2
    grace_slots: int = 6
    bulkheads: bool = True

    def __post_init__(self) -> None:
        _require(self.experiments >= 0, "fleet experiments must be >= 0")
        if not self.enabled:
            return
        _require(self.slot_seconds > 0, "fleet slot_seconds must be > 0")
        _require(self.budget > 0, "fleet budget must be > 0")
        _require(
            0.0 < self.base_fraction <= 1.0,
            "fleet base_fraction in (0, 1]",
        )
        _require(self.duration_slots >= 1, "fleet duration_slots >= 1")
        _require(self.wave >= 1, "fleet wave must be >= 1")
        _require(self.restart_max >= 0, "fleet restart_max must be >= 0")
        _require(self.grace_slots >= 0, "fleet grace_slots must be >= 0")
        _require(self.error_delta >= 0, "fleet error_delta must be >= 0")
        for label, idx in (
            ("crash_looper", self.crash_looper),
            ("poisoned", self.poisoned),
            ("bad_experiment", self.bad_experiment),
        ):
            _require(
                -1 <= idx < self.experiments,
                f"fleet {label} index {idx} out of range",
            )

    @property
    def enabled(self) -> bool:
        return self.experiments > 0


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete adversarial scenario (seeded, serializable)."""

    name: str
    seed: int
    services: tuple[ServiceSpec, ...]
    experiment: ExperimentSpec
    arrivals: ArrivalSpec = field(default_factory=ArrivalSpec)
    flash_crowds: tuple[FlashCrowdSpec, ...] = ()
    regions: tuple[RegionSpec, ...] = ()
    faults: tuple[FaultSpec, ...] = ()
    resilience: ResilienceSpec = field(default_factory=ResilienceSpec)
    slo: SloSpec = field(default_factory=SloSpec)
    topology: TopologySpec = field(default_factory=TopologySpec)
    fleet: FleetSpec = field(default_factory=FleetSpec)
    run_until: float = 240.0

    def __post_init__(self) -> None:
        _require(bool(self.name), "scenario name must be non-empty")
        object.__setattr__(self, "services", tuple(self.services))
        object.__setattr__(self, "flash_crowds", tuple(self.flash_crowds))
        object.__setattr__(self, "regions", tuple(self.regions))
        object.__setattr__(self, "faults", tuple(self.faults))
        _require(bool(self.services), "scenario needs at least one service")
        names = [s.name for s in self.services]
        _require(len(set(names)) == len(names), f"duplicate service names: {names}")
        declared_after: dict[str, int] = {n: i for i, n in enumerate(names)}
        region_names = {r.name for r in self.regions}
        _require(
            len(region_names) == len(self.regions),
            "duplicate region names",
        )
        for index, service in enumerate(self.services):
            for callee in service.depends_on:
                _require(
                    callee in declared_after,
                    f"{service.name} depends on unknown service {callee!r}",
                )
                _require(
                    declared_after[callee] > index,
                    f"{service.name} -> {callee}: dependencies must point to "
                    "later-declared services (the chain is a DAG by order)",
                )
            if service.region:
                _require(
                    service.region in region_names,
                    f"{service.name} homed in undeclared region "
                    f"{service.region!r}",
                )
        _require(
            self.experiment.service in declared_after,
            f"experiment targets unknown service {self.experiment.service!r}",
        )
        for fault in self.faults:
            if fault.kind in ("error_burst", "latency_spike", "version_crash",
                              "deploy"):
                _require(
                    fault.service in declared_after,
                    f"fault targets unknown service {fault.service!r}",
                )
            if fault.kind == "partition":
                _require(
                    fault.service in declared_after
                    and fault.service_b in declared_after,
                    f"partition references unknown services "
                    f"{fault.service!r}/{fault.service_b!r}",
                )
        if self.resilience.fallback_service:
            _require(
                self.resilience.fallback_service in declared_after,
                "fallback_service must be a declared service",
            )
        _require(self.run_until > 0, "run_until must be > 0")

    # -- convenience -------------------------------------------------------

    @property
    def entry(self) -> str:
        """The entry (frontend) service — always the first declared."""
        return self.services[0].name

    def service_index(self, name: str) -> int:
        """Chain position of *name* (declaration order)."""
        for index, service in enumerate(self.services):
            if service.name == name:
                return index
        raise ConfigurationError(f"unknown service {name!r}")

    # -- lossless serialization -------------------------------------------

    def to_dict(self) -> dict:
        """Serialize to JSON-compatible primitives (lossless)."""
        data = asdict(self)
        data["format"] = SPEC_FORMAT
        for key in ("services", "flash_crowds", "regions", "faults"):
            data[key] = [dict(entry) for entry in data[key]]
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        try:
            fmt = data.get("format", SPEC_FORMAT)
            if fmt != SPEC_FORMAT:
                raise ValidationError(
                    f"unsupported scenario spec format {fmt!r}"
                )
            return cls(
                name=data["name"],
                seed=data["seed"],
                services=tuple(
                    _build(ServiceSpec, s) for s in data["services"]
                ),
                experiment=_build(ExperimentSpec, data["experiment"]),
                arrivals=_build(ArrivalSpec, data["arrivals"]),
                flash_crowds=tuple(
                    _build(FlashCrowdSpec, c) for c in data["flash_crowds"]
                ),
                regions=tuple(_build(RegionSpec, r) for r in data["regions"]),
                faults=tuple(_build(FaultSpec, f) for f in data["faults"]),
                resilience=_build(ResilienceSpec, data["resilience"]),
                slo=_build(SloSpec, data["slo"]),
                topology=_build(TopologySpec, data["topology"]),
                # Pre-fleet corpus entries predate this block: default it.
                fleet=_build(FleetSpec, data.get("fleet") or {}),
                run_until=data["run_until"],
            )
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed scenario spec: {exc}") from exc


def _build(spec_cls, data: Mapping):
    """Construct a sub-spec dataclass from a mapping, strictly."""
    allowed = {f.name for f in fields(spec_cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ValidationError(
            f"{spec_cls.__name__}: unknown fields {sorted(unknown)}"
        )
    kwargs = dict(data)
    for key, value in kwargs.items():
        if isinstance(value, list):
            kwargs[key] = tuple(value)
    return spec_cls(**kwargs)

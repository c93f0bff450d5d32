"""Fault injection: controlled degradations for evaluation scenarios.

The Chapter 5 ranking evaluation distinguishes sub-scenarios "with and
without introduced performance degradation"; the Bifrost evaluation needs
versions that violate health criteria so rollbacks actually trigger.
:class:`FaultInjector` rewrites endpoint specs of a deployed version:
latency multipliers and added error rates.  Repeated degradations of the
same endpoint *compose* against the pristine spec (factors multiply,
error rates add) instead of stacking wrapper upon wrapper, and each
applied fault can be reverted individually.

:class:`FaultCampaign` extends the taxonomy beyond static degradation:
it schedules *time-windowed transient faults* — error bursts, latency
spikes, version crashes, and network partitions — that activate and
revert on simulated-clock boundaries, driven by the discrete-event
engine.  That is what lets a canary face a 30-second burst that retries
can absorb, versus a sustained crash that must trip the breaker and the
rollback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, Union

from repro.errors import ConfigurationError
from repro.microservices.application import Application
from repro.microservices.service import EndpointSpec
from repro.simulation.engine import SimulationEngine
from repro.simulation.latency import LatencyModel
from repro.simulation.rng import SeededRng


class _ScaledLatency(LatencyModel):
    """Multiplies a base latency model by a constant factor."""

    def __init__(self, base: LatencyModel, factor: float) -> None:
        self.base = base
        self.factor = factor

    def sample(self, rng: SeededRng, load: float = 1.0) -> float:
        return self.base.sample(rng, load) * self.factor


def _remove_exact(items: list, target: object) -> bool:
    """Remove *target* from *items* by identity (fall back to equality).

    ``list.remove`` uses value equality, which conflates two equal
    overlapping faults; preferring identity keeps each handle tied to
    its own application.
    """
    for index, item in enumerate(items):
        if item is target:
            del items[index]
            return True
    for index, item in enumerate(items):
        if item == target:
            del items[index]
            return True
    return False


@dataclass(frozen=True)
class InjectedFault:
    """Record of one applied fault (for reporting and reversal)."""

    service: str
    version: str
    endpoint: str
    latency_factor: float
    added_error_rate: float


class FaultInjector:
    """Applies and tracks degradations on deployed service versions.

    All active faults on one endpoint compose against the *original*
    (pristine) spec: latency factors multiply, added error rates sum
    (clamped to 1.0).  This guards against stacking ``_ScaledLatency``
    wrappers when the same endpoint is degraded twice, and makes
    single-fault reversal exact.
    """

    def __init__(self, application: Application) -> None:
        self.application = application
        self._originals: dict[tuple[str, str, str], EndpointSpec] = {}
        self._active: dict[tuple[str, str, str], list[InjectedFault]] = {}
        self._order: list[InjectedFault] = []

    @property
    def faults(self) -> list[InjectedFault]:
        """All currently applied faults, in application order."""
        return list(self._order)

    def degrade(
        self,
        service: str,
        version: str,
        endpoint: str,
        latency_factor: float = 1.0,
        added_error_rate: float = 0.0,
    ) -> InjectedFault:
        """Degrade one endpoint of one version in place.

        *latency_factor* multiplies sampled latencies (>= 1 slows the
        endpoint down); *added_error_rate* is added to the endpoint's
        local failure probability (clamped to 1.0).  Degrading an already
        degraded endpoint composes with the active faults rather than
        wrapping the degraded spec again.
        """
        if latency_factor <= 0:
            raise ConfigurationError("latency_factor must be positive")
        if not 0.0 <= added_error_rate <= 1.0:
            raise ConfigurationError("added_error_rate must be in [0, 1]")
        service_version = self.application.resolve(service, version)
        key = (service, version, endpoint)
        if key not in self._originals:
            self._originals[key] = service_version.endpoint(endpoint)
        fault = InjectedFault(
            service, version, endpoint, latency_factor, added_error_rate
        )
        self._active.setdefault(key, []).append(fault)
        self._order.append(fault)
        self._rebuild(key)
        return fault

    def restore(self, fault: InjectedFault) -> None:
        """Undo exactly one previously applied *fault*.

        Removal is identity-exact: when the same degradation was applied
        twice (overlapping windows of equal faults), each handle removes
        *its own* application, so interleaved restores stay balanced.
        """
        key = (fault.service, fault.version, fault.endpoint)
        active = self._active.get(key, [])
        if not _remove_exact(active, fault):
            raise ConfigurationError(f"fault was not applied (or already restored): {fault}")
        _remove_exact(self._order, fault)
        self._rebuild(key)

    def _rebuild(self, key: tuple[str, str, str]) -> None:
        """Recompute the endpoint spec from the original + active faults.

        When the last active fault on an endpoint is restored, the cached
        pristine spec is dropped as well: a later deploy may legitimately
        replace the endpoint, and a retained stale original would roll
        that deploy back on the next degrade/restore cycle.
        """
        service, version, endpoint = key
        original = self._originals[key]
        active = self._active.get(key, [])
        if not active:
            spec = original
            del self._originals[key]
            self._active.pop(key, None)
        else:
            factor = 1.0
            added_error = 0.0
            for fault in active:
                factor *= fault.latency_factor
                added_error += fault.added_error_rate
            latency = (
                _ScaledLatency(original.latency, factor)
                if factor != 1.0
                else original.latency
            )
            spec = EndpointSpec(
                name=original.name,
                latency=latency,
                error_rate=min(1.0, original.error_rate + added_error),
                calls=original.calls,
                parallel_calls=original.parallel_calls,
            )
        self.application.resolve(service, version).endpoints[endpoint] = spec


class NetworkState:
    """Active network partitions between service pairs.

    The runtime consults :meth:`is_partitioned` on every hop; a
    partitioned link fails the call before any callee work happens.
    Partitions are symmetric — "calls between two services fail".
    """

    def __init__(self) -> None:
        self._partitions: set[frozenset[str]] = set()

    def partition(self, service_a: str, service_b: str) -> None:
        """Cut the link between two services."""
        if service_a == service_b:
            raise ConfigurationError("cannot partition a service from itself")
        self._partitions.add(frozenset((service_a, service_b)))

    def heal(self, service_a: str, service_b: str) -> None:
        """Restore the link between two services (idempotent)."""
        self._partitions.discard(frozenset((service_a, service_b)))

    def is_partitioned(self, caller: str, callee: str) -> bool:
        """Whether calls from *caller* to *callee* currently fail."""
        return frozenset((caller, callee)) in self._partitions

    @property
    def partitions(self) -> list[tuple[str, str]]:
        """Currently cut links as sorted pairs."""
        return sorted(tuple(sorted(pair)) for pair in self._partitions)


@dataclass(frozen=True)
class ErrorBurst:
    """Transient fault: an endpoint returns extra errors during a window."""

    service: str
    version: str
    endpoint: str
    added_error_rate: float
    start: float
    end: float


@dataclass(frozen=True)
class LatencySpike:
    """Transient fault: an endpoint slows down during a window."""

    service: str
    version: str
    endpoint: str
    latency_factor: float
    start: float
    end: float


@dataclass(frozen=True)
class VersionCrash:
    """Transient fault: every request to a version fails during a window."""

    service: str
    version: str
    start: float
    end: float


@dataclass(frozen=True)
class Partition:
    """Transient fault: calls between two services fail during a window."""

    service_a: str
    service_b: str
    start: float
    end: float


@dataclass(frozen=True)
class EngineCrash:
    """Transient fault: the *experiment engine itself* dies during a window.

    Unlike the application-facing faults, this targets the control
    plane: at ``start`` the engine is killed (in-memory execution state
    lost, routes and telemetry survive), at ``end`` the supervisor is
    asked to restart and recover it from journal + snapshot.
    """

    start: float
    end: float


class CrashTarget(Protocol):
    """What an :class:`EngineCrash` needs to drive — a supervisor that
    can kill the current engine and later restart-and-recover it."""

    def crash(self, now: float) -> None:
        """Kill the engine at simulated time *now*."""
        ...  # pragma: no cover - protocol

    def restart(self, now: float) -> None:
        """Restart and recover the engine at simulated time *now*."""
        ...  # pragma: no cover - protocol


TransientFault = Union[ErrorBurst, LatencySpike, VersionCrash, Partition, EngineCrash]


def describe_fault(fault: TransientFault) -> str:
    """Deterministic one-token label for a transient fault.

    Decision-provenance nodes (:mod:`repro.obs.provenance`) record these
    labels so a rollback report can name the fault that was active when
    the engine decided.  Labels carry the fault's identity but not its
    window — two bursts on the same endpoint are the same cause.
    """
    if isinstance(fault, ErrorBurst):
        return f"ErrorBurst:{fault.service}@{fault.version}/{fault.endpoint}"
    if isinstance(fault, LatencySpike):
        return f"LatencySpike:{fault.service}@{fault.version}/{fault.endpoint}"
    if isinstance(fault, VersionCrash):
        return f"VersionCrash:{fault.service}@{fault.version}"
    if isinstance(fault, Partition):
        pair = sorted((fault.service_a, fault.service_b))
        return f"Partition:{pair[0]}|{pair[1]}"
    return "EngineCrash"


@dataclass(frozen=True)
class CampaignEvent:
    """One activation or reversion performed by a campaign."""

    time: float
    action: str  # "activate" | "revert"
    fault: TransientFault


class FaultCampaign:
    """Schedules time-windowed transient faults on the simulated clock.

    Faults are declared up front via :meth:`add` and installed onto a
    :class:`~repro.simulation.engine.SimulationEngine`; the engine fires
    activation at ``fault.start`` and reversion at ``fault.end``, so the
    campaign composes deterministically with request replay and the
    Bifrost engine on the shared timeline.
    """

    def __init__(
        self,
        injector: FaultInjector,
        network: NetworkState | None = None,
        engine: CrashTarget | None = None,
    ) -> None:
        self.injector = injector
        self.network = network
        self.engine = engine
        self._faults: list[TransientFault] = []
        self._handles: dict[int, list[InjectedFault]] = {}
        self.log: list[CampaignEvent] = []
        self._installed = False

    @property
    def faults(self) -> list[TransientFault]:
        """All declared transient faults, in declaration order."""
        return list(self._faults)

    def add(self, fault: TransientFault) -> TransientFault:
        """Declare one transient *fault* (before :meth:`install`)."""
        if fault.end <= fault.start:
            raise ConfigurationError(
                f"fault window must satisfy start < end, got [{fault.start}, {fault.end}]"
            )
        if fault.start < 0:
            raise ConfigurationError("fault window cannot start before t=0")
        if isinstance(fault, Partition) and self.network is None:
            raise ConfigurationError(
                "partitions need a NetworkState wired into the campaign"
            )
        if self._installed:
            raise ConfigurationError("campaign already installed; add faults first")
        self._faults.append(fault)
        return fault

    def install(self, simulation: SimulationEngine) -> int:
        """Schedule every declared fault; returns the number of events."""
        if self._installed:
            raise ConfigurationError("campaign already installed")
        # The crash target is validated here, not in add(): middleware
        # wires the supervisor onto the campaign between declaring the
        # faults and installing them.
        if self.engine is None and any(
            isinstance(fault, EngineCrash) for fault in self._faults
        ):
            raise ConfigurationError(
                "engine crashes need a crash target (supervisor) wired "
                "into the campaign"
            )
        self._installed = True
        events = 0
        for index, fault in enumerate(self._faults):
            simulation.schedule_at(
                fault.start,
                lambda f=fault, i=index: self._activate(f, i, simulation.now),
                label=f"fault-on:{type(fault).__name__}",
            )
            simulation.schedule_at(
                fault.end,
                lambda f=fault, i=index: self._revert(f, i, simulation.now),
                label=f"fault-off:{type(fault).__name__}",
            )
            events += 2
        return events

    def active_at(self, now: float) -> list[TransientFault]:
        """Faults whose window covers *now* (inspection helper)."""
        return [f for f in self._faults if f.start <= now < f.end]

    def _activate(self, fault: TransientFault, index: int, now: float) -> None:
        handles: list[InjectedFault] = []
        if isinstance(fault, ErrorBurst):
            handles.append(
                self.injector.degrade(
                    fault.service,
                    fault.version,
                    fault.endpoint,
                    added_error_rate=fault.added_error_rate,
                )
            )
        elif isinstance(fault, LatencySpike):
            handles.append(
                self.injector.degrade(
                    fault.service,
                    fault.version,
                    fault.endpoint,
                    latency_factor=fault.latency_factor,
                )
            )
        elif isinstance(fault, VersionCrash):
            version = self.injector.application.resolve(fault.service, fault.version)
            for endpoint in sorted(version.endpoints):
                handles.append(
                    self.injector.degrade(
                        fault.service,
                        fault.version,
                        endpoint,
                        added_error_rate=1.0,
                    )
                )
        elif isinstance(fault, Partition):
            assert self.network is not None
            self.network.partition(fault.service_a, fault.service_b)
        else:  # EngineCrash
            assert self.engine is not None
            self.engine.crash(now)
        self._handles[index] = handles
        self.log.append(CampaignEvent(now, "activate", fault))

    def _revert(self, fault: TransientFault, index: int, now: float) -> None:
        for handle in self._handles.pop(index, []):
            self.injector.restore(handle)
        if isinstance(fault, Partition):
            assert self.network is not None
            self.network.heal(fault.service_a, fault.service_b)
        elif isinstance(fault, EngineCrash):
            assert self.engine is not None
            self.engine.restart(now)
        self.log.append(CampaignEvent(now, "revert", fault))

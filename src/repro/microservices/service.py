"""Service, version, and endpoint models.

A *service* is the unit of independent deployment (Chapter 2's key
enabler); each deployed *version* carries its own endpoint behaviour, so a
canary can change latency, error rate, or the set of downstream calls —
precisely the change types Chapter 5's taxonomy classifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.errors import ConfigurationError
from repro.simulation.latency import LatencyModel, LogNormalLatency


@dataclass(frozen=True)
class DownstreamCall:
    """A call an endpoint makes to another service's endpoint.

    Attributes:
        service: the callee's logical service name.
        endpoint: the callee endpoint name.
        probability: chance the call happens on a given request (1.0 for
            unconditional calls).
    """

    service: str
    endpoint: str
    probability: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.probability <= 1.0:
            raise ConfigurationError(
                f"call probability must be in (0, 1], got {self.probability}"
            )

    @property
    def target(self) -> str:
        """``service.endpoint`` convenience form."""
        return f"{self.service}.{self.endpoint}"


@dataclass
class EndpointSpec:
    """Behaviour of one endpoint within one service version.

    Attributes:
        name: endpoint name unique within the version.
        latency: model for the endpoint's *own* processing time.
        error_rate: probability a request to this endpoint fails locally.
        calls: downstream calls issued while handling a request.
        parallel_calls: when True the downstream calls are issued
            concurrently (fan-out) and the endpoint waits for the
            slowest; when False they run sequentially and latencies sum.
    """

    name: str
    latency: LatencyModel = field(default_factory=lambda: LogNormalLatency(20.0))
    error_rate: float = 0.0
    calls: Sequence[DownstreamCall] = ()
    parallel_calls: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("endpoint name must be non-empty")
        if not 0.0 <= self.error_rate <= 1.0:
            raise ConfigurationError(
                f"error_rate must be in [0, 1], got {self.error_rate}"
            )
        self.calls = tuple(self.calls)


@dataclass
class ServiceVersion:
    """One deployable version of a service.

    Attributes:
        service: the logical service name.
        version: version string, e.g. ``"1.2.0"``.
        endpoints: endpoint specs keyed by endpoint name.
        capacity_rps: nominal requests/second the version handles at
            design load; drives the load-sensitivity of latencies.
    """

    service: str
    version: str
    endpoints: Mapping[str, EndpointSpec]
    capacity_rps: float = 100.0

    def __post_init__(self) -> None:
        if not self.service or not self.version:
            raise ConfigurationError("service and version must be non-empty")
        if not self.endpoints:
            raise ConfigurationError(
                f"{self.service}@{self.version} needs at least one endpoint"
            )
        for name, spec in self.endpoints.items():
            if name != spec.name:
                raise ConfigurationError(
                    f"endpoint key {name!r} does not match spec name {spec.name!r}"
                )
        if self.capacity_rps <= 0:
            raise ConfigurationError("capacity_rps must be positive")
        self.endpoints = dict(self.endpoints)

    def endpoint(self, name: str) -> EndpointSpec:
        """Look up an endpoint spec."""
        try:
            return self.endpoints[name]
        except KeyError:
            raise ConfigurationError(
                f"{self.service}@{self.version} has no endpoint {name!r}"
            ) from None


class Service:
    """A named service holding its deployed versions."""

    def __init__(self, name: str) -> None:
        if not name:
            raise ConfigurationError("service name must be non-empty")
        self.name = name
        self._versions: dict[str, ServiceVersion] = {}
        self._stable: str | None = None

    @property
    def versions(self) -> list[str]:
        """All deployed version strings in deployment order."""
        return list(self._versions)

    @property
    def stable_version(self) -> str:
        """The version production traffic defaults to."""
        if self._stable is None:
            raise ConfigurationError(f"service {self.name!r} has no stable version")
        return self._stable

    def deploy(self, version: ServiceVersion, stable: bool = False) -> None:
        """Register a version; the first deployed version becomes stable."""
        if version.service != self.name:
            raise ConfigurationError(
                f"version belongs to {version.service!r}, not {self.name!r}"
            )
        self._versions[version.version] = version
        if stable or self._stable is None:
            self._stable = version.version

    def promote(self, version: str) -> None:
        """Make an already-deployed *version* the stable one."""
        if version not in self._versions:
            raise ConfigurationError(
                f"cannot promote unknown version {version!r} of {self.name!r}"
            )
        self._stable = version

    def get(self, version: str) -> ServiceVersion:
        """Look up a deployed version."""
        try:
            return self._versions[version]
        except KeyError:
            raise ConfigurationError(
                f"service {self.name!r} has no version {version!r}"
            ) from None

    def has_version(self, version: str) -> bool:
        """Whether *version* is deployed."""
        return version in self._versions

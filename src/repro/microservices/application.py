"""The application: a registry of services and their deployed versions."""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.microservices.service import Service, ServiceVersion


class Application:
    """A microservice-based application (Section 5.4.1).

    Holds all services with their deployed versions and knows which
    version of each service is *stable* (the baseline variant); canaries
    and other experimental versions are deployed alongside and reached via
    routing rules.
    """

    def __init__(self, name: str = "app") -> None:
        self.name = name
        self._services: dict[str, Service] = {}

    @property
    def service_names(self) -> list[str]:
        """Names of all registered services."""
        return list(self._services)

    def service(self, name: str) -> Service:
        """Look up a service by name."""
        try:
            return self._services[name]
        except KeyError:
            raise ConfigurationError(
                f"application {self.name!r} has no service {name!r}"
            ) from None

    def has_service(self, name: str) -> bool:
        """Whether a service with *name* exists."""
        return name in self._services

    def deploy(self, version: ServiceVersion, stable: bool = False) -> None:
        """Deploy a service version, creating the service if needed."""
        service = self._services.get(version.service)
        if service is None:
            service = Service(version.service)
            self._services[version.service] = service
        service.deploy(version, stable=stable)

    def stable_version(self, service: str) -> str:
        """Stable version string of *service*."""
        return self.service(service).stable_version

    def resolve(self, service: str, version: str | None = None) -> ServiceVersion:
        """Fetch a concrete :class:`ServiceVersion` (stable by default)."""
        svc = self.service(service)
        return svc.get(version if version is not None else svc.stable_version)

    def validate_wiring(self) -> list[str]:
        """Check that every downstream call can be satisfied.

        Returns a list of human-readable problems (empty when the
        topology is closed).  A call is satisfiable when the callee
        service exists and its *stable* version exposes the endpoint —
        experimental versions may add endpoints, which is fine.
        """
        problems: list[str] = []
        for service in self._services.values():
            for version_name in service.versions:
                version = service.get(version_name)
                for spec in version.endpoints.values():
                    for call in spec.calls:
                        if call.service not in self._services:
                            problems.append(
                                f"{service.name}@{version_name}/{spec.name} calls "
                                f"unknown service {call.service!r}"
                            )
                            continue
                        callee = self._services[call.service]
                        found = any(
                            call.endpoint in callee.get(v).endpoints
                            for v in callee.versions
                        )
                        if not found:
                            problems.append(
                                f"{service.name}@{version_name}/{spec.name} calls "
                                f"missing endpoint {call.target!r}"
                            )
        return problems

"""Toggle-based experiment enactment.

Implements the :class:`~repro.microservices.runtime.Router` protocol via
feature toggles instead of routing proxies: the decision which version
handles a request happens *inside* the service (no proxy hop — zero
network overhead) but ties the experiment to the service's deployment.

This is the head-to-head counterpart to
:class:`~repro.routing.proxy.VersionRouter` for the toggles-vs-routing
ablation: same sticky bucketing semantics, different cost structure.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.routing.proxy import RoutingDecision
from repro.toggles.store import FeatureToggle, ToggleStore
from repro.traffic.workload import Request


class ToggleRouter:
    """Resolves service versions through feature toggles.

    One toggle per experimented service maps "feature enabled" to the
    experimental version.  Toggle evaluation happens in process: the
    router reports ``proxy_hops=0``, and the store counts evaluations.
    """

    def __init__(self) -> None:
        self.store = ToggleStore()
        self._experiments: dict[str, tuple[str, str]] = {}

    def start_experiment(
        self,
        service: str,
        experimental_version: str,
        fraction: float,
        toggle_name: str | None = None,
        created_at: float = 0.0,
    ) -> FeatureToggle:
        """Register the toggle guarding *experimental_version*."""
        if service in self._experiments:
            raise ConfigurationError(
                f"service {service!r} already has a toggle experiment"
            )
        name = toggle_name or f"exp_{service}"
        toggle = FeatureToggle(
            name=name,
            service=service,
            rollout_fraction=fraction,
            created_at=created_at,
        )
        self.store.register(toggle)
        self._experiments[service] = (name, experimental_version)
        return toggle

    # -- Router protocol ------------------------------------------------------

    def route(self, request: Request, service: str) -> RoutingDecision:
        """Resolve the version by evaluating the service's toggle."""
        experiment = self._experiments.get(service)
        if experiment is None:
            return RoutingDecision()
        name, experimental_version = experiment
        enabled = self.store.is_enabled(name, request.user_id, request.group)
        # No proxy hop: the decision happens inside the process.
        return RoutingDecision(
            version=experimental_version if enabled else None,
            proxy_hops=0,
        )

"""The version router: the simulated proxy/sidecar layer.

Plays the role of Bifrost's "lightweight proxies placed in front of
service instances" (the same approach Istio later productized, Section
1.4.2).  Each service can have at most one active
:class:`~repro.routing.rules.ExperimentRoute`; calls to routed services
traverse the proxy (costing one hop of overhead), calls to unrouted
services go straight to the stable version at zero overhead.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import RoutingError
from repro.routing.assignment import StickyAssigner
from repro.routing.rules import ExperimentRoute
from repro.traffic.workload import Request


@dataclass(frozen=True)
class RoutingDecision:
    """Outcome of routing one service call.

    Attributes:
        version: concrete version to serve the call, or None for the
            service's stable version.
        shadow_versions: versions that additionally receive a *duplicated*
            (dark-launched) copy of the call; their work does not affect
            the user-visible response.
        proxy_hops: number of routing proxies traversed; each hop adds
            the runtime's configured proxy overhead to the observed
            latency (the source of Bifrost's end-user overhead).
    """

    version: str | None = None
    shadow_versions: tuple[str, ...] = ()
    proxy_hops: int = 0


class StaticRouter:
    """Routes everything to the stable version with no proxy overhead."""

    def route(self, request: Request, service: str) -> RoutingDecision:
        return RoutingDecision()


class VersionRouter:
    """Routes service calls according to installed experiment routes."""

    def __init__(self) -> None:
        self._routes: dict[str, ExperimentRoute] = {}
        self._assigners: dict[str, StickyAssigner] = {}

    @property
    def routed_services(self) -> list[str]:
        """Services currently under an experiment route."""
        return list(self._routes)

    def install(self, route: ExperimentRoute) -> None:
        """Install or replace the route for the route's service.

        Replacing is how gradual rollouts advance: the engine installs a
        new split for the same experiment.  Installing a route of a
        *different* experiment over an active one is rejected — that is
        the overlap Fenrir's scheduling exists to prevent.
        """
        existing = self._routes.get(route.service)
        if existing is not None and existing.experiment != route.experiment:
            raise RoutingError(
                f"service {route.service!r} is already routed by experiment "
                f"{existing.experiment!r}; {route.experiment!r} would overlap"
            )
        self._routes[route.service] = route
        if route.experiment not in self._assigners:
            self._assigners[route.experiment] = StickyAssigner(route.experiment)

    def uninstall(self, service: str) -> None:
        """Remove the route of *service*; calls fall back to stable."""
        self._routes.pop(service, None)

    def active_route(self, service: str) -> ExperimentRoute | None:
        """The installed route of *service*, if any."""
        return self._routes.get(service)

    def assigner(self, experiment: str) -> StickyAssigner:
        """The sticky assigner of *experiment* (sample-size tracking)."""
        try:
            return self._assigners[experiment]
        except KeyError:
            raise RoutingError(f"no assigner for experiment {experiment!r}") from None

    def route(self, request: Request, service: str) -> RoutingDecision:
        """Resolve one call — the :class:`~repro.microservices.runtime.Router`
        protocol implementation the runtime invokes per hop."""
        route = self._routes.get(service)
        if route is None:
            return RoutingDecision()
        if not route.audience.matches(request):
            # Ineligible traffic still traverses the proxy but is pinned
            # to the stable version.
            return RoutingDecision(version=None, proxy_hops=1)
        version: str | None = None
        if route.variants:
            assigner = self._assigners[route.experiment]
            version = assigner.assign(request.user_id, route.variants)
        return RoutingDecision(
            version=version,
            shadow_versions=route.shadow_versions,
            proxy_hops=1,
        )

"""Routing rules: audience filters and variant splits.

An :class:`ExperimentRoute` captures one experiment's routing
configuration for one service: *who* is eligible (audience filter on user
group), *how* eligible traffic is split across
versions (sticky, hash-based), and which versions receive duplicated
shadow traffic (dark launches).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.traffic.workload import Request


@dataclass(frozen=True)
class AudienceFilter:
    """Selects the requests an experiment may touch.

    An empty filter matches everything; *groups* matches the request's
    user group.
    """

    groups: frozenset[str] = frozenset()

    def matches(self, request: Request) -> bool:
        """Whether *request* belongs to the experiment's audience."""
        return not self.groups or request.group in self.groups


@dataclass(frozen=True)
class Variant:
    """One arm of a traffic split."""

    version: str
    fraction: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.fraction <= 1.0:
            raise ConfigurationError(
                f"variant fraction must be in [0, 1], got {self.fraction}"
            )


@dataclass(frozen=True)
class ExperimentRoute:
    """Routing configuration of one experiment on one service.

    Attributes:
        experiment: experiment name; doubles as the bucketing salt, so
            distinct experiments produce independent user assignments.
        service: the service whose calls the route intercepts.
        variants: the traffic split; fractions must sum to 1.
        audience: which requests are eligible (others go to stable).
        shadow_versions: versions receiving duplicated traffic.
    """

    experiment: str
    service: str
    variants: tuple[Variant, ...]
    audience: AudienceFilter = AudienceFilter()
    shadow_versions: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.experiment or not self.service:
            raise ConfigurationError("experiment and service must be non-empty")
        if not self.variants and not self.shadow_versions:
            raise ConfigurationError(
                "route needs at least one variant or shadow version"
            )
        if self.variants:
            total = sum(v.fraction for v in self.variants)
            if abs(total - 1.0) > 1e-9:
                raise ConfigurationError(
                    f"variant fractions must sum to 1.0, got {total:.6f}"
                )

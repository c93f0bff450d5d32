"""The feature-toggle store.

Toggles are evaluated *inside* the service process (the
``isEnabled('newFeature', user)`` conditional from Section 2.2.2), so —
unlike traffic routing — they add no network hop, but every evaluation
costs in-process time and every *registered* toggle adds maintenance
surface.  The store is the central key/value authority the chapter's
practitioners synchronize via ZooKeeper-style systems.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.traffic.users import bucket_user


class ToggleState(enum.Enum):
    """Lifecycle state of a toggle."""

    ACTIVE = "active"
    DISABLED = "disabled"
    RETIRED = "retired"  # removed from code, kept for audit


@dataclass
class FeatureToggle:
    """One feature toggle.

    Attributes:
        name: unique toggle name; doubles as the bucketing salt.
        service: the service whose code contains the conditional.
        rollout_fraction: share of users for whom the toggle evaluates
            true (hash-bucketed, sticky).
        enabled_groups: user groups always enabled regardless of bucket.
        state: lifecycle state.
        created_at: simulated creation time (for debt ageing).
    """

    name: str
    service: str
    rollout_fraction: float = 0.0
    enabled_groups: frozenset[str] = frozenset()
    state: ToggleState = ToggleState.ACTIVE
    created_at: float = 0.0

    def __post_init__(self) -> None:
        if not self.name or not self.service:
            raise ConfigurationError("toggle needs a name and a service")
        if not 0.0 <= self.rollout_fraction <= 1.0:
            raise ConfigurationError(
                f"rollout_fraction must be in [0, 1], got {self.rollout_fraction}"
            )

    def evaluate(self, user_id: str, group: str | None = None) -> bool:
        """Whether the feature is enabled for *user_id*."""
        if self.state is not ToggleState.ACTIVE:
            return False
        if group is not None and group in self.enabled_groups:
            return True
        if self.rollout_fraction <= 0.0:
            return False
        return bucket_user(user_id, self.name, 10_000) < self.rollout_fraction * 10_000


class ToggleStore:
    """Central registry of toggles."""

    def __init__(self) -> None:
        self._toggles: dict[str, FeatureToggle] = {}
        self.evaluations = 0

    def __len__(self) -> int:
        return len(self._toggles)

    def register(self, toggle: FeatureToggle) -> None:
        """Add a toggle; duplicate names are rejected."""
        if toggle.name in self._toggles:
            raise ConfigurationError(f"toggle {toggle.name!r} already registered")
        self._toggles[toggle.name] = toggle

    def get(self, name: str) -> FeatureToggle:
        """Look up a toggle."""
        try:
            return self._toggles[name]
        except KeyError:
            raise ConfigurationError(f"unknown toggle {name!r}") from None

    def is_enabled(self, name: str, user_id: str, group: str | None = None) -> bool:
        """The `isEnabled` call sites use — counts every evaluation."""
        self.evaluations += 1
        return self.get(name).evaluate(user_id, group)

    def active_toggles(self, service: str | None = None) -> list[FeatureToggle]:
        """All ACTIVE toggles, optionally for one service."""
        return [
            toggle
            for toggle in self._toggles.values()
            if toggle.state is ToggleState.ACTIVE
            and (service is None or toggle.service == service)
        ]

    def all_toggles(self) -> list[FeatureToggle]:
        """Every registered toggle regardless of state."""
        return list(self._toggles.values())

    def snapshot(self) -> dict:
        """JSON-compatible dump of the store, for durability checkpoints."""
        return {
            "evaluations": self.evaluations,
            "toggles": [
                {
                    "name": toggle.name,
                    "service": toggle.service,
                    "rollout_fraction": toggle.rollout_fraction,
                    "enabled_groups": sorted(toggle.enabled_groups),
                    "state": toggle.state.value,
                    "created_at": toggle.created_at,
                }
                for toggle in self._toggles.values()
            ],
        }

    def restore(self, data: dict) -> None:
        """Replace all contents with a :meth:`snapshot` dump.

        A malformed document raises :class:`ConfigurationError` (the
        toggle dataclass re-validates every field on the way in).
        """
        try:
            toggles = [
                FeatureToggle(
                    name=doc["name"],
                    service=doc["service"],
                    rollout_fraction=doc["rollout_fraction"],
                    enabled_groups=frozenset(doc["enabled_groups"]),
                    state=ToggleState(doc["state"]),
                    created_at=doc["created_at"],
                )
                for doc in data["toggles"]
            ]
            evaluations = int(data["evaluations"])
        except ConfigurationError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"malformed toggle snapshot: {exc}") from exc
        self._toggles = {toggle.name: toggle for toggle in toggles}
        self.evaluations = evaluations

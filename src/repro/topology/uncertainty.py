"""The uncertainty model (Sections 1.2.4 and 5.5.3).

Each change type carries a scalar expressing how much uncertainty it
introduces: consuming a completely new service is riskier than bumping
the version of an already-exercised one, which in turn is riskier than
removing a call.  The scalars are configurable — the paper calibrated
them through evaluation runs — and consumed by the subtree-complexity
heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.topology.change_types import ChangeType

_DEFAULT_WEIGHTS: dict[ChangeType, float] = {
    ChangeType.CALLING_NEW_ENDPOINT: 1.0,
    ChangeType.CALLING_EXISTING_ENDPOINT: 0.6,
    ChangeType.REMOVING_SERVICE_CALL: 0.35,
    ChangeType.UPDATED_CALLER_VERSION: 0.5,
    ChangeType.UPDATED_CALLEE_VERSION: 0.7,
    ChangeType.UPDATED_VERSION: 0.85,
}


@dataclass(frozen=True)
class UncertaintyModel:
    """Scalar uncertainty weights per change type."""

    weights: dict[ChangeType, float] = field(
        default_factory=lambda: dict(_DEFAULT_WEIGHTS)
    )

    def __post_init__(self) -> None:
        missing = set(ChangeType) - set(self.weights)
        if missing:
            raise ConfigurationError(
                f"uncertainty model misses weights for {sorted(t.value for t in missing)}"
            )
        for change_type, weight in self.weights.items():
            if weight < 0:
                raise ConfigurationError(
                    f"uncertainty weight of {change_type.value} must be >= 0"
                )

    def weight(self, change_type: ChangeType) -> float:
        """The uncertainty scalar of *change_type*."""
        return self.weights[change_type]


def uniform_uncertainty(value: float = 1.0) -> UncertaintyModel:
    """A model that treats every change type alike (SC baseline variant)."""
    if value < 0:
        raise ConfigurationError("uncertainty value must be >= 0")
    return UncertaintyModel({ct: value for ct in ChangeType})

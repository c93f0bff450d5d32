"""Traffic profiles: expected requests per time slot and user group.

The Fenrir evaluation applied "a real world traffic profile" (Fig 3.3).
Production traces are unavailable offline, so :func:`diurnal_profile`
synthesizes an equivalent shape — a day/night sinusoid with a lunchtime
shoulder, a weekday/weekend factor, and multiplicative noise — which
exercises exactly the same scheduling constraints (scarce night traffic,
abundant daytime traffic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.errors import ConfigurationError
from repro.simulation.rng import SeededRng


@dataclass(frozen=True)
class UserGroup:
    """A segment of the user population experiments can target.

    Attributes:
        name: unique identifier, e.g. ``"eu"`` or ``"beta_testers"``.
        share: fraction of overall traffic this group contributes; the
            shares of all groups in a profile sum to 1.
    """

    name: str
    share: float

    def __post_init__(self) -> None:
        if not 0.0 < self.share <= 1.0:
            raise ConfigurationError(
                f"group share must be in (0, 1], got {self.share} for {self.name!r}"
            )


class TrafficProfile:
    """Expected request volume per (slot, user group).

    Slots are fixed-width intervals (default one hour).  The profile is
    the capacity side of Fenrir's optimization problem: an experiment
    consuming x% of a group's traffic in a slot collects
    ``x% * slot_volume * group_share`` samples.
    """

    def __init__(
        self,
        slot_volumes: Sequence[float],
        groups: Sequence[UserGroup],
        slot_duration_hours: float = 1.0,
    ) -> None:
        if not slot_volumes:
            raise ConfigurationError("profile needs at least one slot")
        if any(v < 0 for v in slot_volumes):
            raise ConfigurationError("slot volumes must be >= 0")
        if not groups:
            raise ConfigurationError("profile needs at least one user group")
        names = [g.name for g in groups]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate group names in {names}")
        total_share = sum(g.share for g in groups)
        if abs(total_share - 1.0) > 1e-6:
            raise ConfigurationError(
                f"group shares must sum to 1.0, got {total_share:.6f}"
            )
        if slot_duration_hours <= 0:
            raise ConfigurationError("slot duration must be positive")
        self._volumes = [float(v) for v in slot_volumes]
        self._groups = {g.name: g for g in groups}
        self._group_names = tuple(self._groups)
        self.slot_duration_hours = float(slot_duration_hours)
        # Prefix sums over the (immutable) volume list: element i is the
        # volume of slots [0, i), so the horizon total is one read.
        prefix = [0.0]
        acc = 0.0
        for volume in self._volumes:
            acc += volume
            prefix.append(acc)
        self._prefix_volumes = tuple(prefix)

    @property
    def num_slots(self) -> int:
        """Number of slots in the scheduling horizon."""
        return len(self._volumes)

    @property
    def group_names(self) -> tuple[str, ...]:
        """Names of all user groups, in declaration order (cached)."""
        return self._group_names

    @property
    def groups(self) -> list[UserGroup]:
        """All user groups."""
        return list(self._groups.values())

    def group(self, name: str) -> UserGroup:
        """Look up a group by name."""
        try:
            return self._groups[name]
        except KeyError:
            raise ConfigurationError(f"unknown user group {name!r}") from None

    def volume(self, slot: int) -> float:
        """Total expected requests in *slot* (all groups)."""
        return self._volumes[slot]

    def group_volume(self, slot: int, group: str) -> float:
        """Expected requests from *group* in *slot*."""
        return self._volumes[slot] * self.group(group).share

    def total_volume(self) -> float:
        """Expected requests over the whole horizon (O(1), prefix sums)."""
        return self._prefix_volumes[-1]

    def volumes(self) -> list[float]:
        """Per-slot total volumes (copy) — the Fig 3.3 series."""
        return list(self._volumes)

    def rate_per_second(self, slot: int) -> float:
        """Mean request arrival rate (req/s) within *slot*."""
        return self._volumes[slot] / (self.slot_duration_hours * 3600.0)


DEFAULT_GROUPS = (
    UserGroup("na", 0.35),
    UserGroup("eu", 0.30),
    UserGroup("asia", 0.25),
    UserGroup("beta_testers", 0.10),
)


def diurnal_profile(
    days: int = 7,
    peak_volume: float = 60_000.0,
    groups: Sequence[UserGroup] = DEFAULT_GROUPS,
    noise: float = 0.05,
    weekend_factor: float = 0.65,
    seed: int = 7,
    start_weekday: int = 0,
) -> TrafficProfile:
    """Synthesize a realistic hourly traffic profile over *days* days.

    The shape combines a main evening peak (~20:00), a smaller lunch
    shoulder (~12:00), a deep night trough, a weekday/weekend volume
    factor, and multiplicative noise.  *peak_volume* is the approximate
    request count of the busiest weekday hour.
    """
    if days <= 0:
        raise ConfigurationError("days must be positive")
    if not 0.0 <= noise < 1.0:
        raise ConfigurationError("noise must be in [0, 1)")
    rng = SeededRng(seed)
    volumes: list[float] = []
    for day in range(days):
        weekday = (start_weekday + day) % 7
        day_factor = weekend_factor if weekday >= 5 else 1.0
        for hour in range(24):
            evening = math.exp(-((hour - 20.0) ** 2) / (2 * 3.5**2))
            lunch = 0.55 * math.exp(-((hour - 12.0) ** 2) / (2 * 2.0**2))
            base = 0.12 + evening + lunch
            jitter = 1.0 + rng.uniform(-noise, noise)
            volumes.append(peak_volume * base / 1.12 * day_factor * jitter)
    return TrafficProfile(volumes, groups)


def flat_profile(
    num_slots: int,
    volume_per_slot: float,
    groups: Sequence[UserGroup] = DEFAULT_GROUPS,
) -> TrafficProfile:
    """A constant-volume profile, convenient for unit tests."""
    return TrafficProfile([volume_per_slot] * num_slots, groups)


def consumption_series(
    profile: TrafficProfile, consumed_per_slot: Mapping[int, float]
) -> list[tuple[float, float]]:
    """Pair available vs consumed volume per slot (Fig 3.3's two series).

    *consumed_per_slot* maps slot index to the request volume consumed by
    scheduled experiments; missing slots consume zero.
    """
    prefix = profile._prefix_volumes
    out: list[tuple[float, float]] = []
    for slot in range(profile.num_slots):
        available = prefix[slot + 1] - prefix[slot]
        out.append((available, float(consumed_per_slot.get(slot, 0.0))))
    return out

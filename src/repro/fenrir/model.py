"""The scheduling problem: experiments to place on a traffic profile.

Mirrors Table 3.1 ("input data for experiments"): every experiment brings
its required sample size, bounds on traffic share and duration, preferred
user groups, and an earliest start.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.traffic.profile import TrafficProfile


@dataclass(frozen=True)
class ExperimentSpec:
    """Scheduling-relevant description of one continuous experiment.

    Attributes:
        name: unique experiment identifier.
        required_samples: data points needed for statistically valid
            conclusions (cf. Kohavi et al.; computed from
            :mod:`repro.stats.power` in practice).
        min_duration_slots / max_duration_slots: bounds on how many
            consecutive slots the experiment may run (non-interrupted —
            an experiment constraint from Section 3.4.4).
        min_traffic_fraction / max_traffic_fraction: bounds on the share
            of eligible group traffic the experiment may consume per slot.
        preferred_groups: user groups the experiment would like to run on
            (empty = no preference, any group acceptable).
        earliest_start: first slot the experiment may start in (e.g. the
            change clears QA at slot 12).
        weight: relative importance in the aggregate fitness.
    """

    name: str
    required_samples: float
    min_duration_slots: int = 1
    max_duration_slots: int = 48
    min_traffic_fraction: float = 0.01
    max_traffic_fraction: float = 0.5
    preferred_groups: frozenset[str] = frozenset()
    earliest_start: int = 0
    weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("experiment name must be non-empty")
        if self.required_samples <= 0:
            raise ConfigurationError("required_samples must be positive")
        if self.min_duration_slots < 1:
            raise ConfigurationError("min_duration_slots must be >= 1")
        if self.max_duration_slots < self.min_duration_slots:
            raise ConfigurationError(
                "max_duration_slots must be >= min_duration_slots"
            )
        if not 0.0 < self.min_traffic_fraction <= self.max_traffic_fraction <= 1.0:
            raise ConfigurationError(
                "need 0 < min_traffic_fraction <= max_traffic_fraction <= 1"
            )
        if self.earliest_start < 0:
            raise ConfigurationError("earliest_start must be >= 0")
        if self.weight <= 0:
            raise ConfigurationError("weight must be positive")


@dataclass
class SchedulingProblem:
    """One scheduling instance: experiments against a traffic profile."""

    profile: TrafficProfile
    experiments: list[ExperimentSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [e.name for e in self.experiments]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate experiment names in {names}")
        # Group order and index are fixed per problem: evaluation's hot
        # loops look them up instead of rebuilding dicts per call.
        self._group_names = tuple(self.profile.group_names)
        self._group_index = {name: i for i, name in enumerate(self._group_names)}
        self._total_weight = sum(spec.weight for spec in self.experiments) or 1.0
        known = set(self._group_names)
        # Prefix sums over total slot volumes: since a group's volume is
        # ``total * share``, any (window, groups) volume factorizes into
        # prefix-sum difference times summed shares — O(1) per query.
        prefix = [0.0]
        for slot in range(self.profile.num_slots):
            prefix.append(prefix[-1] + self.profile.volume(slot))
        self._prefix = prefix
        self._share = {g.name: g.share for g in self.profile.groups}
        self._share_of: dict[frozenset[str] | tuple[str, ...], float] = {}
        for spec in self.experiments:
            unknown = spec.preferred_groups - known
            if unknown:
                raise ConfigurationError(
                    f"experiment {spec.name!r} prefers unknown groups {unknown}"
                )
            if spec.earliest_start >= self.profile.num_slots:
                raise ConfigurationError(
                    f"experiment {spec.name!r} cannot start at slot "
                    f"{spec.earliest_start} on a {self.profile.num_slots}-slot "
                    "horizon"
                )

    @property
    def horizon(self) -> int:
        """Number of slots available for scheduling."""
        return self.profile.num_slots

    @property
    def group_names(self) -> tuple[str, ...]:
        """Group names in declaration order, cached per problem."""
        return self._group_names

    @property
    def group_index(self) -> dict[str, int]:
        """Group name → position in :attr:`group_names`, cached per problem."""
        return self._group_index

    @property
    def volume_prefix(self) -> list[float]:
        """Running total slot volume: slots [s, e) carry ``p[e] - p[s]``."""
        return self._prefix

    @property
    def total_weight(self) -> float:
        """Summed experiment weights (1.0 when there are no experiments)."""
        return self._total_weight

    def spec(self, name: str) -> ExperimentSpec:
        """Look up an experiment by name."""
        for spec in self.experiments:
            if spec.name == name:
                return spec
        raise ConfigurationError(f"unknown experiment {name!r}")

    def group_volume(self, slot: int, groups: frozenset[str]) -> float:
        """Traffic volume of *groups* combined in *slot*."""
        return self.profile.volume(slot) * self.group_share(groups)

    def group_share(self, groups: frozenset[str] | tuple[str, ...]) -> float:
        """Summed traffic share of *groups*, added in profile order.

        A sum in set iteration order would depend on string hashing.  Memoized
        per *groups* value; an unknown name raises ``KeyError``.
        """
        share = self._share_of.get(groups)
        if share is None:
            ordered = sorted(groups, key=self._group_index.__getitem__)
            share = self._share_of[groups] = sum(self._share[g] for g in ordered)
        return share

    def window_volume(self, start: int, end: int, groups: frozenset[str]) -> float:
        """Traffic volume of *groups* over slots [start, end) — O(1)."""
        horizon = self.profile.num_slots
        start = max(0, min(start, horizon))
        end = max(start, min(end, horizon))
        return (self._prefix[end] - self._prefix[start]) * self.group_share(groups)

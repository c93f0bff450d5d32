"""Per-slot traffic admission against Fenrir's overlap budgets.

Fenrir's schedule reserves a traffic *fraction* of selected user groups
per slot for every experiment, under the overlap constraint that no
(slot, group) cell exceeds 100% of its traffic.  At execution time that
plan meets reality: experiments overrun their slots (inconclusive
repeats), crash-loop, or arrive late — so the fleet cannot simply trust
the plan.  The :class:`AdmissionController` re-checks the budget at
every slot boundary: experiments whose start would overdraw a (slot,
group) cell are **queued** (deferred to a later slot) or **shed** (by
priority, with a reported reason) — never silently over-admitted.

The controller is deliberately *pure*: a decision is a function of the
requests and reservations passed in, independent of arrival order
(requests are ranked by descending weight, then name).  That makes the
no-over-admission invariant directly property-testable and lets the
orchestrator re-derive an uncommitted slot's decision bit-for-bit after
a crash.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.errors import ValidationError

#: Float slack when comparing summed fractions against the budget.
EPSILON = 1e-9

#: Shed reasons the controller itself can produce.
SHED_DEADLINE = "deadline"
SHED_STARVED = "starved"


@dataclass(frozen=True)
class AdmissionRequest:
    """One experiment asking to hold traffic in a slot.

    Attributes:
        name: experiment name (unique within the fleet).
        fraction: share of each selected group's traffic it consumes.
        groups: user groups the experiment runs on.
        weight: priority — higher-weight experiments are admitted first
            and shed last.
        latest_start: last slot the experiment may still *start* in and
            finish within its deadline; deferred past it, it is shed
            with reason :data:`SHED_DEADLINE`.  ``None`` disables.
        deferrals: how many slots this request has already been queued;
            at ``max_defer`` the controller sheds it as
            :data:`SHED_STARVED` instead of queueing forever.
    """

    name: str
    fraction: float
    groups: tuple[str, ...]
    weight: float = 1.0
    latest_start: int | None = None
    deferrals: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ValidationError(
                f"admission fraction must be in (0, 1], got {self.fraction} "
                f"for {self.name!r}"
            )
        if not self.groups:
            raise ValidationError(f"admission request {self.name!r} needs groups")


@dataclass(frozen=True)
class AdmissionDecision:
    """What one slot's admission pass decided.

    Attributes:
        slot: the slot decided.
        admitted: names newly admitted this slot (start now).
        queued: names deferred to a later slot.
        shed: (name, reason) pairs dropped from the plan — always
            reported, never silent.
        usage: per-group admitted fraction after the decision, including
            pre-existing reservations.
    """

    slot: int
    admitted: tuple[str, ...]
    queued: tuple[str, ...]
    shed: tuple[tuple[str, str], ...]
    usage: tuple[tuple[str, float], ...]


class AdmissionController:
    """Ranks, admits, queues, and sheds experiment starts per slot."""

    def __init__(self, groups: Iterable[str], budget: float = 1.0,
                 max_defer: int | None = None) -> None:
        self.groups = tuple(sorted(set(groups)))
        if not self.groups:
            raise ValidationError("admission controller needs user groups")
        if budget <= 0:
            raise ValidationError(f"budget must be positive, got {budget}")
        if max_defer is not None and max_defer < 0:
            raise ValidationError(f"max_defer must be >= 0, got {max_defer}")
        self.budget = float(budget)
        self.max_defer = max_defer

    def decide(
        self,
        slot: int,
        requests: Iterable[AdmissionRequest],
        reserved: Iterable[AdmissionRequest] = (),
        paused: bool = False,
    ) -> AdmissionDecision:
        """Decide one slot: admit, queue, or shed every request.

        *reserved* carries the experiments already running (they hold
        their budget for as long as they run); *requests* the ones that
        want to start this slot.  With *paused* (the health watchdog
        tripped) nothing new is admitted, but deadline/starvation
        shedding still applies — a paused fleet must not silently hold
        doomed experiments forever.
        """
        usage: dict[str, float] = {g: 0.0 for g in self.groups}
        for holder in reserved:
            for group in holder.groups:
                self._known(group)
                usage[group] += holder.fraction
        admitted: list[str] = []
        queued: list[str] = []
        shed: list[tuple[str, str]] = []
        ranked = sorted(requests, key=lambda r: (-r.weight, r.name))
        for request in ranked:
            for group in request.groups:
                self._known(group)
            if request.latest_start is not None and slot > request.latest_start:
                shed.append((request.name, SHED_DEADLINE))
                continue
            if self.max_defer is not None and request.deferrals >= self.max_defer:
                shed.append((request.name, SHED_STARVED))
                continue
            if paused:
                queued.append(request.name)
                continue
            if all(
                usage[g] + request.fraction <= self.budget + EPSILON
                for g in request.groups
            ):
                admitted.append(request.name)
                for group in request.groups:
                    usage[group] += request.fraction
            else:
                queued.append(request.name)
        return AdmissionDecision(
            slot=slot,
            admitted=tuple(admitted),
            queued=tuple(queued),
            shed=tuple(shed),
            usage=tuple(sorted(usage.items())),
        )

    def _known(self, group: str) -> None:
        if group not in self.groups:
            raise ValidationError(
                f"unknown user group {group!r}; known: {list(self.groups)}"
            )


def usage_within_budget(
    usage: Mapping[str, float] | Iterable[tuple[str, float]],
    budget: float = 1.0,
) -> bool:
    """Whether every group's admitted fraction respects *budget*."""
    items = usage.items() if isinstance(usage, Mapping) else usage
    return all(used <= budget + EPSILON for _, used in items)

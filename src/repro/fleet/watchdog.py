"""Fleet-level health and deadline supervision.

The watchdog is the fleet's circuit breaker against a degraded
substrate: when the streaming topology pipeline's overall health score
(:class:`~repro.topology.streaming.LiveHealthMonitor`) drops below the
*pause* threshold, no new experiments are admitted; below the *shed*
threshold the orchestrator starts dropping the lowest-priority running
experiments — better to finish a few experiments cleanly than to let
all of them starve on an unhealthy cluster.  A fleet-wide deadline
(``grace_slots`` past the schedule horizon) bounds how long repeating
or crash-recovering experiments can hold the fleet open.

Health providers must be deterministic functions of the fleet's own
state for crash-recovery equality to hold; a provider fed by live
wall-clock telemetry trades that equality for timeliness, which is the
right call in production and the wrong one in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.topology.streaming import LiveHealthMonitor


#: Health scores below these pause admissions and shed running holders.
PAUSE_BELOW = 0.6
SHED_BELOW = 0.3


@dataclass(frozen=True)
class WatchdogVerdict:
    """One slot's supervision verdict.

    Attributes:
        score: substrate health in [0, 1], or None when unknown.
        pause: stop admitting new experiments this slot.
        shed: drop the lowest-priority running experiment this slot.
        burning: names of running experiments whose burn-rate SLO is
            firing — the orchestrator sheds these before their deadline
            instead of letting them burn through the error budget.
    """

    score: float | None
    pause: bool
    shed: bool
    burning: tuple[str, ...] = ()


class FleetWatchdog:
    """Turns health and burn-rate signals into per-slot verdicts."""

    def __init__(
        self,
        health_of: Callable[[], float | None] | None = None,
        burning_of: Callable[[int], tuple[str, ...]] | None = None,
    ) -> None:
        self.health_of = health_of
        self.burning_of = burning_of

    def assess(self, slot: int) -> WatchdogVerdict:
        """Judge the substrate for *slot*; unknown health never trips.

        Burn-rate verdicts are orthogonal to the health score: an
        experiment can burn its own error budget on a perfectly healthy
        substrate, so ``burning`` is computed even when health is
        unknown.
        """
        burning = self.burning_of(slot) if self.burning_of is not None else ()
        score = self.health_of() if self.health_of is not None else None
        if score is None:
            return WatchdogVerdict(
                score=None, pause=False, shed=False, burning=burning
            )
        return WatchdogVerdict(
            score=score,
            pause=score < PAUSE_BELOW,
            shed=score < SHED_BELOW,
            burning=burning,
        )

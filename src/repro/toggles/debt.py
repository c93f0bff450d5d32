"""Toggle technical-debt assessment.

Chapter 2's practitioners capped active toggles after state explosion
made testing infeasible ("continuously maintaining and testing 150
feature toggles became infeasible") and Rahman et al.'s findings on
toggle debt motivated Bifrost's routing-based design.  This module turns
those observations into a measurable report: active-toggle counts per
service, stale toggles, and the combinatorial state-space estimate that
drives test effort.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.toggles.store import ToggleState, ToggleStore


@dataclass(frozen=True)
class ToggleDebtReport:
    """Technical-debt indicators of a toggle population."""

    active: int
    disabled: int
    retired: int
    per_service: dict[str, int]
    stale: int
    state_space_log2: float

    @property
    def state_space(self) -> float:
        """Number of toggle-state combinations (2^active)."""
        return 2.0**self.state_space_log2


def assess_toggle_debt(
    store: ToggleStore,
    now: float = 0.0,
    stale_after_seconds: float = 30 * 24 * 3600.0,
) -> ToggleDebtReport:
    """Compute the debt report for *store* at simulated time *now*.

    A toggle is *stale* when it has been active longer than
    *stale_after_seconds* — regression-driven experiments run minutes to
    days (Table 2.5), so a toggle older than a month guards either a
    forgotten experiment or permanent configuration that should be
    promoted out of the experiment system.
    """
    per_service: Counter[str] = Counter()
    active = disabled = retired = stale = 0
    for toggle in store.all_toggles():
        if toggle.state is ToggleState.ACTIVE:
            active += 1
            per_service[toggle.service] += 1
            if now - toggle.created_at > stale_after_seconds:
                stale += 1
        elif toggle.state is ToggleState.DISABLED:
            disabled += 1
        else:
            retired += 1
    return ToggleDebtReport(
        active=active,
        disabled=disabled,
        retired=retired,
        per_service=dict(per_service),
        stale=stale,
        state_space_log2=float(active),
    )

"""The change-type taxonomy (Section 5.4.3).

Fundamental change types describe edge-level differences between the
baseline and experimental interaction graphs; composed change types
capture version updates of already-interacting services.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.topology.graph import NodeKey


class ChangeType(enum.Enum):
    """All change types the diff identifies."""

    # Fundamental types
    CALLING_NEW_ENDPOINT = "calling_new_endpoint"
    CALLING_EXISTING_ENDPOINT = "calling_existing_endpoint"
    REMOVING_SERVICE_CALL = "removing_service_call"
    # Composed types
    UPDATED_CALLER_VERSION = "updated_caller_version"
    UPDATED_CALLEE_VERSION = "updated_callee_version"
    UPDATED_VERSION = "updated_version"


@dataclass(frozen=True)
class Change:
    """One identified change in the topological difference.

    Attributes:
        type: the classified change type.
        caller: the calling node (on the experimental side where it
            exists, otherwise the baseline side).
        callee: the called node the change anchors at; ``anchor`` — the
            node heuristics analyse — is the callee when present.
        removed: True for changes that only exist on the baseline side.
    """

    type: ChangeType
    caller: NodeKey | None
    callee: NodeKey

    @property
    def anchor(self) -> NodeKey:
        """The node the change is attributed to for impact analysis.

        For caller-version updates the *caller* is the changed artifact;
        every other type anchors at the callee.
        """
        if self.type is ChangeType.UPDATED_CALLER_VERSION and self.caller is not None:
            return self.caller
        return self.callee

    @property
    def removed(self) -> bool:
        """Whether the change describes a disappearing call."""
        return self.type is ChangeType.REMOVING_SERVICE_CALL

    def describe(self) -> str:
        """Human-readable one-liner (ranking tables, UI)."""
        caller = str(self.caller) if self.caller else "<entry>"
        return f"{self.type.value}: {caller} -> {self.callee}"

    @property
    def identity(self) -> tuple[str, str, str]:
        """A version-agnostic identity used to match ground-truth labels."""
        caller_se = (
            f"{self.caller.service}/{self.caller.endpoint}" if self.caller else ""
        )
        return (
            self.type.value,
            caller_se,
            f"{self.callee.service}/{self.callee.endpoint}",
        )

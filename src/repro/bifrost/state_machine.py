"""Compiling strategies to explicit state machines (Section 4.3.2).

Every phase becomes a state; the built-in terminals (``complete``,
``rollback``, ``abort``) are always present.  Transitions are labelled by
the triggering check outcome.  The compiled machine powers both the
engine's dispatch and the Fig 4.2-style visualization via :meth:`to_dot`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import DSLError
from repro.bifrost.model import (
    REPEAT,
    TERMINAL_STATES,
    Strategy,
)


@dataclass(frozen=True)
class StrategyState:
    """One state of the compiled machine."""

    name: str
    terminal: bool
    phase_name: str | None = None


@dataclass(frozen=True)
class Transition:
    """A labelled edge of the machine."""

    source: str
    target: str
    trigger: str  # "success" | "failure" | "inconclusive"


class StateMachine:
    """The compiled transition structure of one strategy."""

    def __init__(self, strategy: Strategy) -> None:
        self.strategy = strategy
        self._states: dict[str, StrategyState] = {}
        self._transitions: list[Transition] = []
        for terminal in sorted(TERMINAL_STATES):
            self._states[terminal] = StrategyState(terminal, terminal=True)
        for phase in strategy.phases:
            self._states[phase.name] = StrategyState(
                phase.name, terminal=False, phase_name=phase.name
            )
        for phase in strategy.phases:
            for trigger, target in (
                ("success", phase.on_success),
                ("failure", phase.on_failure),
                ("inconclusive", phase.on_inconclusive),
            ):
                resolved = phase.name if target == REPEAT else target
                self._transitions.append(Transition(phase.name, resolved, trigger))
        unreachable = self._unreachable_phases()
        if unreachable:
            raise DSLError(
                f"strategy {strategy.name!r}: phases unreachable from entry: "
                f"{sorted(unreachable)}"
            )

    def _unreachable_phases(self) -> set[str]:
        reachable = {self.strategy.entry.name}
        frontier = [self.strategy.entry.name]
        outgoing: dict[str, list[str]] = {}
        for transition in self._transitions:
            outgoing.setdefault(transition.source, []).append(transition.target)
        while frontier:
            state = frontier.pop()
            for target in outgoing.get(state, []):
                if target not in reachable:
                    reachable.add(target)
                    frontier.append(target)
        return {p.name for p in self.strategy.phases} - reachable

    @property
    def transitions(self) -> list[Transition]:
        """All labelled transitions."""
        return list(self._transitions)

    def has_state(self, name: str) -> bool:
        """Whether *name* is a known phase or terminal state.

        Recovery uses this to validate state names read back from
        snapshots and journals before trusting them.
        """
        return name in self._states

    def state(self, name: str) -> StrategyState:
        """Look up a state by name."""
        try:
            return self._states[name]
        except KeyError:
            raise DSLError(
                f"strategy {self.strategy.name!r} has no state {name!r}"
            ) from None

    def next_state(self, phase_name: str, trigger: str) -> str:
        """Target of the *trigger* transition out of *phase_name*."""
        for transition in self._transitions:
            if transition.source == phase_name and transition.trigger == trigger:
                return transition.target
        raise DSLError(
            f"no {trigger!r} transition out of {phase_name!r} in "
            f"{self.strategy.name!r}"
        )

    def to_dot(
        self, taken: "Iterable[tuple[str, str, str]] | None" = None
    ) -> str:
        """Graphviz rendering of the machine (cf. Fig 4.2).

        Phases gated by a topology-health check are badged with a ♥ so
        the closed execution↔analysis loop is visible in the diagram.

        *taken* is an optional iterable of ``(source, target, trigger)``
        triples — e.g. derived from an execution's transition log or a
        glass-box timeline — whose edges are rendered bold so a run's
        actual path through the machine stands out from the possible one.
        """
        health_gated = {
            phase.name
            for phase in self.strategy.phases
            if any(check.kind == "health" for check in phase.checks)
        }
        traversed = set(taken) if taken is not None else set()
        lines = [f'digraph "{self.strategy.name}" {{']
        for state in self._states.values():
            shape = "doublecircle" if state.terminal else "box"
            if state.name in health_gated:
                lines.append(
                    f'  "{state.name}" [shape={shape}, '
                    f'label="{state.name}\\n[health-gated]"];'
                )
                continue
            lines.append(f'  "{state.name}" [shape={shape}];')
        for transition in self._transitions:
            key = (transition.source, transition.target, transition.trigger)
            style = ', penwidth=2.5, style=bold, color="#1f6feb"' if key in traversed else ""
            lines.append(
                f'  "{transition.source}" -> "{transition.target}" '
                f'[label="{transition.trigger}"{style}];'
            )
        lines.append("}")
        return "\n".join(lines)

"""Bifrost: automated enactment of multi-phase live testing (Chapter 4).

Bifrost is a middleware that executes *live testing strategies* —
experiments composed of multiple conditionally chained phases (e.g. a
canary release, then a dark launch, then an A/B test, then a gradual
rollout).  Strategies are written in a domain-specific language
("experimentation-as-code"), compiled to a state machine whose states
configure traffic routing and whose transitions are driven by periodic
health *checks* over runtime metrics; fallback transitions trigger
automated rollbacks when irregularities are spotted.

The durability layer (:mod:`repro.bifrost.journal`,
:mod:`repro.bifrost.recovery`) makes the engine itself crash-safe: every
durable decision is written ahead to a journal, folded into periodic
snapshots, and a supervisor recovers a killed engine so running
experiments survive their infrastructure.
"""

from repro.bifrost.model import (
    Action,
    Check,
    CheckOutcome,
    Phase,
    PhaseType,
    Strategy,
    StrategyOutcome,
)
from repro.bifrost.dsl import (
    parse_file,
    parse_strategies,
    parse_strategy,
    strategy_to_dsl,
)
from repro.bifrost.state_machine import StateMachine, StrategyState
from repro.bifrost.checks import CheckEvaluator
from repro.bifrost.engine import BifrostEngine, StrategyExecution
from repro.bifrost.journal import (
    FileJournalStorage,
    Journal,
    MemoryJournalStorage,
    Snapshot,
    SnapshotPolicy,
    SnapshotStore,
)
from repro.bifrost.middleware import Bifrost
from repro.bifrost.recovery import (
    EngineSupervisor,
    RecoveryManager,
    RecoveryReport,
    RestartPolicy,
)

__all__ = [
    "Action",
    "Check",
    "CheckOutcome",
    "Phase",
    "PhaseType",
    "Strategy",
    "StrategyOutcome",
    "parse_file",
    "parse_strategies",
    "parse_strategy",
    "strategy_to_dsl",
    "StateMachine",
    "StrategyState",
    "CheckEvaluator",
    "BifrostEngine",
    "StrategyExecution",
    "FileJournalStorage",
    "Journal",
    "MemoryJournalStorage",
    "Snapshot",
    "SnapshotPolicy",
    "SnapshotStore",
    "Bifrost",
    "EngineSupervisor",
    "RecoveryManager",
    "RecoveryReport",
    "RestartPolicy",
]

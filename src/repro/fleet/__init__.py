"""Fault-tolerant fleet orchestration: Fenrir plans run through Bifrost.

The layer that closes the dissertation's plan → execute → observe →
replan loop (docs/FLEET.md).  A Fenrir schedule of overlapping
experiments executes as a fleet of supervised Bifrost engines — one
bulkhead per experiment — under per-slot admission control, a health
watchdog, and a crash-consistent fleet WAL.
"""

from repro.fleet.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionRequest,
    SHED_DEADLINE,
    SHED_STARVED,
    usage_within_budget,
)
from repro.fleet.orchestrator import (
    EXPERIMENTAL_VERSION,
    ExperimentFaults,
    FleetConfig,
    FleetOrchestrator,
    FleetPoison,
    FleetResult,
    OrchestratorKilled,
    OUTCOME_ABORTED,
    OUTCOME_INCONCLUSIVE,
    OUTCOME_PROMOTED,
    OUTCOME_ROLLED_BACK,
    OUTCOME_SHED,
    SHED_BURN,
    SHED_CRASH_LOOP,
    SHED_FLEET_DEADLINE,
    SHED_HEALTH,
    STABLE_VERSION,
    SlotLedger,
    fleet_outcomes_for_reevaluation,
    fleet_strategy,
    service_of,
)
from repro.fleet.recovery import recover_fleet
from repro.fleet.traffic import SlotTrafficFeed
from repro.fleet.watchdog import FleetWatchdog, WatchdogVerdict

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionRequest",
    "EXPERIMENTAL_VERSION",
    "ExperimentFaults",
    "FleetConfig",
    "FleetOrchestrator",
    "FleetPoison",
    "FleetResult",
    "FleetWatchdog",
    "OrchestratorKilled",
    "OUTCOME_ABORTED",
    "OUTCOME_INCONCLUSIVE",
    "OUTCOME_PROMOTED",
    "OUTCOME_ROLLED_BACK",
    "OUTCOME_SHED",
    "SHED_BURN",
    "SHED_CRASH_LOOP",
    "SHED_DEADLINE",
    "SHED_FLEET_DEADLINE",
    "SHED_HEALTH",
    "SHED_STARVED",
    "STABLE_VERSION",
    "SlotLedger",
    "SlotTrafficFeed",
    "WatchdogVerdict",
    "fleet_outcomes_for_reevaluation",
    "fleet_strategy",
    "recover_fleet",
    "service_of",
    "usage_within_budget",
]

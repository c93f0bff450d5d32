"""Fault-tolerant fleet orchestration: Fenrir plans run through Bifrost.

The layer that closes the dissertation's plan → execute → observe →
replan loop (docs/FLEET.md).  A Fenrir schedule of overlapping
experiments executes as a fleet of supervised Bifrost engines — one
bulkhead per experiment — under per-slot admission control, a health
watchdog, and a crash-consistent fleet WAL.
"""

# benchmarks/e2e/workloads.py imports these names through the package.
from repro.fleet.admission import usage_within_budget
from repro.fleet.orchestrator import (
    OUTCOME_PROMOTED,
    ExperimentFaults,
    FleetConfig,
    FleetOrchestrator,
    OrchestratorKilled,
)

__all__ = [
    "OUTCOME_PROMOTED",
    "ExperimentFaults",
    "FleetConfig",
    "FleetOrchestrator",
    "OrchestratorKilled",
    "usage_within_budget",
]

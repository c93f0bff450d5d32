"""Golden journal bytes: every line two durable runs write, pinned.

The journal's byte contract (docs/DURABILITY.md, "Journal format") is
that each line is ``json.dumps(record, sort_keys=True, separators=(",",
":"))`` and that compaction keeps the surviving lines verbatim.  The
pinned values below were produced by that reference ``json.dumps``
writer, so any drift in the canonical encoder, the engine's ``tick``
template, compaction, recovery or the fleet feed's draws fails here:

- a durable canary crashed twice and recovered, with a compacting
  snapshot policy (``SnapshotPolicy(every_records=5, compact=True)``);
- a 30-experiment fleet (crash-looper, per-wave crashers, check errors)
  killed halfway through its run and recovered from its WALs.
"""

import hashlib
from unittest import mock

from repro.bifrost.journal import Journal, MemoryJournalStorage, SnapshotPolicy
from repro.fleet.orchestrator import ExperimentFaults, FleetOrchestrator, OrchestratorKilled
from repro.fleet.recovery import recover_fleet
from tests.integration.test_durability_e2e import run_scenario
from tests.unit.test_fleet_orchestrator import fast_config, make_schedule


def fingerprint(journals):
    """(lines, bytes, sha256) over the lines of *journals*, in order."""
    sha = hashlib.sha256()
    lines = size = 0
    for journal in journals:
        for line in journal:
            sha.update(line.encode("utf-8") + b"\n")
            lines += 1
            size += len(line) + 1
    return lines, size, sha.hexdigest()


def canary_journal():
    """Every line the canary appended, and the lines compaction kept."""
    written = []
    append_line = MemoryJournalStorage.append_line

    def capture(storage, line):
        written.append(line)
        append_line(storage, line)

    with mock.patch.object(MemoryJournalStorage, "append_line", capture):
        bifrost, _, _ = run_scenario(
            [(30.0, 45.0), (70.0, 85.0)],
            snapshot_policy=SnapshotPolicy(every_records=5, compact=True),
        )
    return written, bifrost.journal.storage.lines


def fleet_journals():
    n, wave = 30, 10
    schedule = make_schedule(n, wave=wave, fraction=0.05, looper=0, looper_duration=6)
    faults = {"exp0": ExperimentFaults(crash_loop=True)}
    for i in range(5, n, wave):
        faults[f"exp{i}"] = ExperimentFaults(crash_slots=((i // wave) * 2,))
    for i in (1, 2, 3):
        faults[f"exp{i}"] = ExperimentFaults(check_error_slots=tuple(range(16)))
    config = fast_config(base_error=0.02)
    world = {f"exp{n - 1}": 0.4}

    def build(fleet_storage, storages, kill_at=None):
        return FleetOrchestrator(
            schedule,
            world=world,
            faults=faults,
            config=config,
            fleet_journal=Journal(fleet_storage),
            journal_factory=lambda name: Journal(
                storages.setdefault(name, MemoryJournalStorage())
            ),
            crash_after_appends=kill_at,
        )

    clean_fleet, clean = MemoryJournalStorage(), {}
    build(clean_fleet, clean).run()
    appends = len(clean_fleet.lines)
    crashed_fleet, crashed = MemoryJournalStorage(), {}
    try:
        build(crashed_fleet, crashed, kill_at=appends // 2).run()
    except OrchestratorKilled:
        pass
    else:  # pragma: no cover - the kill point is inside the run
        raise AssertionError("the orchestrator was not killed")
    recover_fleet(
        Journal(crashed_fleet),
        lambda name: Journal(crashed.setdefault(name, MemoryJournalStorage())),
    ).run()
    return [
        storage.lines
        for storage in [clean_fleet, *(clean[name] for name in sorted(clean))]
        + [crashed_fleet, *(crashed[name] for name in sorted(crashed))]
    ]


def test_compacting_canary_journal_bytes():
    written, kept = canary_journal()
    assert fingerprint([written]) == CANARY_WRITTEN
    assert fingerprint([kept]) == CANARY_KEPT
    assert written[-len(kept):] == kept


def test_killed_fleet_journal_bytes():
    assert fingerprint(fleet_journals()) == FLEET


CANARY_WRITTEN = (21, 7241, "3d87c6c06ee5c0ce9985a91873ffeca1fb9a0558bf718d7528d78dddf004d6ff")
CANARY_KEPT = (4, 1195, "f4c09ae972d730df4546fa54c346f957f65cedb548272ae863f27641e6bd05f1")
FLEET = (759, 276793, "b54c32be43ce1236da4ce817867d386291c4014a3ba4d279f6f5f1ef4a0954e5")

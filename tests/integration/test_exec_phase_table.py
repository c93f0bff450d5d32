"""One record -> save -> load -> replay cycle through ``ExecutionRouter``,
with its exact counts and, under ``-s``, its process time per phase.

The app, strategy and seeds are those of the end-to-end ledger's
``record_replay`` workload: frontend -> catalog (1.0.0 stable, 2.0.0 a
10 % canary with two checks) -> inventory, a durable journal, seed 1.  By
default the cycle runs at the ledger's smoke size (5 000 users, 100 rps
for 10 s); ``EXEC_PHASES_FULL=1`` runs it at full size (100 000 users,
500 rps for 20 s), which is what the CI step does:

    EXEC_PHASES_FULL=1 PYTHONPATH=src python -m pytest \\
        tests/integration/test_exec_phase_table.py -q -s

The test asserts counts and digest equality, never a timing.
"""

import os
from time import process_time
from unittest import mock

from repro.bifrost.journal import Journal, MemoryJournalStorage
from repro.bifrost.model import Check, Phase, PhaseType, Strategy
from repro.exec import replay as replay_module
from repro.exec import sim as sim_module
from repro.exec.recording import RecordedRequests, Recording, RecordingTap
from repro.exec.router import ExecutionRouter
from repro.microservices.application import Application
from repro.microservices.service import DownstreamCall, EndpointSpec, ServiceVersion
from repro.simulation.latency import ConstantLatency, LoadSensitiveLatency, LogNormalLatency
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator

FULL = os.environ.get("EXEC_PHASES_FULL") == "1"
SEED = 1
USERS, RATE, SECONDS = (100_000, 500.0, 20.0) if FULL else (5_000, 100.0, 10.0)

# requests, spans, store series, store samples, series reusing a time
# column, recording lines of type request.
EXPECTED = (
    {"requests": 9_960, "spans": 29_880, "series": 12, "samples": 89_640,
     "reused": 8, "request_lines": 9_960}
    if FULL
    else {"requests": 1_044, "spans": 3_132, "series": 12, "samples": 9_396,
          "reused": 8, "request_lines": 1_044}
)


def shop_app(rate: float) -> Application:
    app = Application()

    def catalog(version: str, median: float) -> ServiceVersion:
        return ServiceVersion(
            "catalog",
            version,
            {
                "search": EndpointSpec(
                    "search",
                    LogNormalLatency(median, 0.25),
                    calls=(DownstreamCall("inventory", "check"),),
                )
            },
            capacity_rps=2.0 * rate,
        )

    app.deploy(
        ServiceVersion(
            "frontend",
            "1.0.0",
            {
                "index": EndpointSpec(
                    "index",
                    LoadSensitiveLatency(LogNormalLatency(20.0, 0.3)),
                    calls=(DownstreamCall("catalog", "search"),),
                )
            },
            capacity_rps=2.0 * rate,
        )
    )
    app.deploy(catalog("1.0.0", 15.0))
    app.deploy(catalog("2.0.0", 13.0))
    app.deploy(
        ServiceVersion(
            "inventory",
            "1.0.0",
            {"check": EndpointSpec("check", ConstantLatency(4.0))},
            capacity_rps=4.0 * rate,
        )
    )
    return app


def canary_strategy(seconds: float) -> Strategy:
    duration = seconds * 0.75
    checks = (
        Check(name="error-rate", service="catalog", version="2.0.0",
              metric="error", threshold=0.05, window_seconds=duration),
        Check(name="latency-vs-stable", service="catalog", version="2.0.0",
              metric="response_time", baseline_version="1.0.0", tolerance=1.25,
              window_seconds=duration),
    )
    return Strategy(
        name="catalog-canary",
        phases=(
            Phase(
                name="canary", type=PhaseType.CANARY, service="catalog",
                stable_version="1.0.0", experimental_version="2.0.0",
                fraction=0.10, duration_seconds=duration,
                check_interval_seconds=duration / 3.0, checks=checks,
            ),
        ),
    )


class Stopwatch:
    """Process time per phase, summed over the calls of each timed function."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}

    def timed(self, phase: str, function):
        def call(*args, **kwargs):
            started = process_time()
            try:
                return function(*args, **kwargs)
            finally:
                self.seconds[phase] = self.seconds.get(phase, 0.0) + process_time() - started

        return call

    def measure(self, phase: str, function, *args):
        return self.timed(phase, function)(*args)


def store_shape(store) -> dict[str, int]:
    """Series, samples, and series whose time column (as bytes) an earlier
    series of the same (service, version) already has."""
    columns: dict[tuple[str, str], set[bytes]] = {}
    series = samples = reused = 0
    for key in store.keys():
        times, _ = store.series(key.service, key.version, key.metric).columns
        seen = columns.setdefault((key.service, key.version), set())
        reused += times.tobytes() in seen
        seen.add(times.tobytes())
        series += 1
        samples += len(times)
    return {"series": series, "samples": samples, "reused": reused}


def test_record_save_load_replay_cycle(tmp_path):
    watch = Stopwatch()
    router = ExecutionRouter(
        lambda: shop_app(RATE),
        seed=SEED + 7,
        sim_kwargs={"durable": True, "journal": Journal(MemoryJournalStorage())},
    )
    generator = WorkloadGenerator(
        UserPopulation(USERS, DEFAULT_GROUPS, seed=SEED + 1),
        entry="frontend.index",
        seed=SEED + 2,
    )
    path = str(tmp_path / "run.jsonl")
    backend, sim = replay_module.ReplayBackend, sim_module.SimBackend
    # The tap: the identity columns, and the result columns off the kernel.
    with mock.patch.object(RecordedRequests, "add_identity",
                           watch.timed("tap", RecordedRequests.add_identity)), \
            mock.patch.object(RecordingTap, "on_columns",
                              watch.timed("tap", RecordingTap.on_columns)), \
            mock.patch.object(RecordingTap, "on_trace",
                              watch.timed("tap", RecordingTap.on_trace)), \
            mock.patch.object(sim, "execute", watch.timed("SIM", sim.execute)), \
            mock.patch.object(sim_module, "run_digest",
                              watch.timed("SIM digest", sim_module.run_digest)), \
            mock.patch.object(replay_module, "run_digest",
                              watch.timed("REPLAY digest", replay_module.run_digest)), \
            mock.patch.object(backend, "execute", watch.timed("REPLAY", backend.execute)):
        recorded = router.run(
            canary_strategy(SECONDS),
            workload=generator.poisson(RATE, SECONDS),
            until=SECONDS + 10.0,
            submit_at=1.0,
            record=True,
        )
        lines = watch.measure("save", recorded.recording.save, path)
        loaded = watch.measure("load", Recording.load, path)
        replayed = router.run(recording=loaded)
    watch.seconds["REPLAY"] -= watch.seconds["REPLAY digest"]
    watch.seconds["SIM"] -= watch.seconds["tap"] + watch.seconds["SIM digest"]

    with open(path, encoding="utf-8") as handle:
        request_lines = sum('"type":"request"' in line for line in handle)
    counts = {
        "requests": recorded.requests,
        "spans": len(loaded.requests.span_starts),
        **store_shape(recorded.details.store),
        "request_lines": request_lines,
    }
    print(f"\nexec phases, seed {SEED}, {USERS} users, {RATE:g} rps x {SECONDS:g} s:")
    for phase in ("SIM", "tap", "SIM digest", "save", "load", "REPLAY", "REPLAY digest"):
        print(f"  {phase:<14} {watch.seconds[phase] * 1000:9.1f} ms")
    print(f"  {counts}")

    assert counts == EXPECTED
    assert lines == request_lines + len(loaded.events) + 2  # + meta and digest
    assert replayed.requests == recorded.requests
    assert replayed.replay.digest_match and replayed.replay.identical
    assert store_shape(replayed.details.store) == store_shape(recorded.details.store)

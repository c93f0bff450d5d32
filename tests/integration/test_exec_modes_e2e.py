"""End-to-end execution modes: one strategy, three substrates (PR 9).

The portability claim of the execution router, exercised for real:

- **SIM → REPLAY**: a recorded simulator run, serialized to JSONL and
  re-driven from the artifact, is digest-equal — same transitions, same
  check log, same final store, same terminal outcome.
- **LIVE**: the same unchanged strategy drives real asyncio HTTP servers
  on loopback sockets; a healthy canary is promoted and a faulty one is
  rolled back, with the engine's decisions driven by latencies and
  errors observed over actual connections.
"""

import io
import os

import pytest

from repro.bifrost.model import (
    Check,
    Phase,
    PhaseType,
    Strategy,
    StrategyOutcome,
)
from repro.exec.live import LiveOptions
from repro.exec.recording import Recording
from repro.exec.router import ExecutionMode, ExecutionRouter
from repro.exec.sim import RunResult
from repro.microservices.application import Application
from repro.microservices.service import DownstreamCall, EndpointSpec, ServiceVersion
from repro.simulation.latency import LogNormalLatency
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator

SEED = 31

# CI smoke steps (REPLAY_SMOKE=1 / LIVE_SMOKE=1) run a lighter workload
# so each step fits a hard 60-second budget on shared runners.
_SMOKE = (
    os.environ.get("REPLAY_SMOKE") == "1" or os.environ.get("LIVE_SMOKE") == "1"
)
RATE_RPS = 8.0 if _SMOKE else 12.0
MIN_REQUESTS = 600 if _SMOKE else 1000


def build_app(canary_error_rate: float = 0.0) -> Application:
    app = Application("shop")
    app.deploy(
        ServiceVersion(
            "frontend",
            "1.0.0",
            {
                "index": EndpointSpec(
                    "index",
                    LogNormalLatency(8.0, 0.2),
                    calls=(DownstreamCall("catalog", "list"),),
                )
            },
            capacity_rps=300.0,
        ),
        stable=True,
    )
    app.deploy(
        ServiceVersion(
            "catalog",
            "1.0.0",
            {"list": EndpointSpec("list", LogNormalLatency(18.0, 0.25))},
            capacity_rps=300.0,
        ),
        stable=True,
    )
    app.deploy(
        ServiceVersion(
            "catalog",
            "2.0.0",
            {
                "list": EndpointSpec(
                    "list",
                    LogNormalLatency(16.0, 0.25),
                    error_rate=canary_error_rate,
                )
            },
            capacity_rps=300.0,
        )
    )
    return app


def canary_strategy() -> Strategy:
    return Strategy(
        "catalog-canary",
        (
            Phase(
                name="canary",
                type=PhaseType.CANARY,
                service="catalog",
                stable_version="1.0.0",
                experimental_version="2.0.0",
                fraction=0.3,
                duration_seconds=120.0,
                check_interval_seconds=10.0,
                checks=(
                    Check(
                        name="user-errors",
                        service="frontend",
                        version="1.0.0",
                        metric="error",
                        threshold=0.10,
                        window_seconds=25.0,
                    ),
                ),
            ),
        ),
    )


def workload():
    population = UserPopulation(200, DEFAULT_GROUPS, seed=SEED + 1)
    generator = WorkloadGenerator(
        population, entry="frontend.index", seed=SEED + 2
    )
    return generator.poisson(RATE_RPS, 150.0)


class TestRecordReplayDiffE2E:
    def test_recorded_run_replays_digest_equal(self):
        router = ExecutionRouter(build_app, seed=SEED)
        report = router.run(
            canary_strategy(),
            workload=workload(),
            until=260.0,
            submit_at=1.0,
            record=True,
        )
        assert report.mode is ExecutionMode.SIM
        assert report.promoted
        assert report.stable_after == {"catalog": "2.0.0"}
        recording = report.recording
        assert recording is not None
        assert recording.requests and recording.events
        assert recording.truncated is None

        # Round-trip through the on-disk JSONL artifact.
        buffer = io.StringIO()
        line_count = recording.save(buffer)
        assert line_count == 2 + len(recording.events) + len(recording.requests)
        loaded = Recording.from_jsonl(buffer.getvalue().splitlines())
        assert loaded.digest == recording.digest

        replay_report = router.run(recording=loaded)
        assert replay_report.mode is ExecutionMode.REPLAY
        diff = replay_report.replay
        assert diff.digest_match, diff.describe()
        assert diff.identical, diff.describe()
        assert replay_report.outcome is report.outcome
        assert replay_report.stable_after == report.stable_after
        assert diff.outcomes_recorded == diff.outcomes_replayed


@pytest.mark.parametrize(
    "canary_error_rate, expected",
    [
        (0.0, StrategyOutcome.COMPLETED),
        (0.5, StrategyOutcome.ROLLED_BACK),
    ],
    ids=["healthy-promotes", "faulty-rolls-back"],
)
def test_live_canary_over_real_sockets(canary_error_rate, expected):
    router = ExecutionRouter(
        lambda: build_app(canary_error_rate),
        seed=SEED,
        live_options=LiveOptions(time_scale=0.02, max_wall_s=55.0),
    )
    report = router.run(
        canary_strategy(),
        workload=workload(),
        until=260.0,
        submit_at=1.0,
        mode="live",
    )
    assert report.mode is ExecutionMode.LIVE
    assert isinstance(report.details, RunResult)
    assert report.details.provenance is not None
    assert report.outcome is expected
    assert report.requests > MIN_REQUESTS
    assert report.wall_seconds is not None and report.wall_seconds < 55.0
    if expected is StrategyOutcome.COMPLETED:
        assert report.errors == 0
        assert report.stable_after == {"catalog": "2.0.0"}
    else:
        assert report.errors > 0
        assert report.stable_after == {"catalog": "1.0.0"}
    # Real loopback servers were bound to ephemeral ports per version.
    ports = report.details.ports
    assert {"catalog@1.0.0", "catalog@2.0.0"} <= set(ports)
    assert all(port > 0 for port in ports.values())

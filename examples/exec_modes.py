"""One DSL strategy, three execution substrates.

The execution router (``repro.exec``) runs the *same unmodified*
strategy artifact against three backends:

- **SIM** — the in-process simulator (with ``record=True`` it also
  captures a replayable :class:`Recording` of everything it observed);
- **REPLAY** — the recording re-driven from its JSONL artifact at the
  original logical timestamps and diffed outcome-by-outcome against the
  recorded run (digest equality certifies a faithful replay);
- **LIVE** — real asyncio HTTP servers on loopback sockets, one per
  deployed service version, with the canary split enforced by a
  client-side router and the engine's checks fed by latencies and
  errors measured over actual connections.

Run with::

    python examples/exec_modes.py
"""

import tempfile

from repro.bifrost.dsl import parse_strategy
from repro.exec.live import LiveOptions
from repro.exec.recording import Recording
from repro.exec.router import ExecutionRouter
from repro.microservices.application import Application
from repro.microservices.service import DownstreamCall, EndpointSpec, ServiceVersion
from repro.simulation.latency import LogNormalLatency
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator

SEED = 31

STRATEGY = """\
strategy catalog-canary
  description "catalog 2.0.0 canary, portable across substrates"
  phase canary
    type canary
    service catalog
    stable 1.0.0
    experimental 2.0.0
    fraction 0.3
    duration 120
    interval 10
    check user-errors
      service frontend
      version 1.0.0
      metric error
      aggregation mean
      operator <=
      threshold 0.10
      window 25
"""


def build_app() -> Application:
    """Frontend -> catalog shop with a faster catalog 2.0.0 candidate."""
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
            {"list": EndpointSpec("list", LogNormalLatency(16.0, 0.25))},
            capacity_rps=300.0,
        )
    )
    return app


def workload():
    population = UserPopulation(200, DEFAULT_GROUPS, seed=SEED + 1)
    generator = WorkloadGenerator(
        population, entry="frontend.index", seed=SEED + 2
    )
    return generator.poisson(12.0, 150.0)


def main() -> None:
    strategy = parse_strategy(STRATEGY)
    router = ExecutionRouter(
        build_app,
        seed=SEED,
        live_options=LiveOptions(time_scale=0.02, max_wall_s=55.0),
    )

    print("== SIM (recording) ==")
    sim_report = router.run(
        strategy, workload=workload(), until=260.0, submit_at=1.0, record=True
    )
    print(sim_report.describe())
    print(f"stable after: {sim_report.stable_after}")

    with tempfile.NamedTemporaryFile("w", suffix=".jsonl", delete=False) as handle:
        lines = sim_report.recording.save(handle)
    print(f"recording: {lines} JSONL lines "
          f"({len(sim_report.recording.requests)} requests, "
          f"{len(sim_report.recording.events)} events)")

    print("\n== REPLAY (from the JSONL artifact) ==")
    recording = Recording.load(handle.name)
    replay_report = router.run(recording=recording)
    print(replay_report.describe())
    print(replay_report.replay.describe())

    print("\n== LIVE (real loopback sockets) ==")
    live_report = router.run(
        strategy, workload=workload(), until=260.0, submit_at=1.0, mode="live"
    )
    print(live_report.describe())
    print(f"stable after: {live_report.stable_after}")
    print(f"server ports: {live_report.details.ports}")

    agree = (
        sim_report.outcome is replay_report.outcome is live_report.outcome
    )
    print(f"\nall three substrates agree: {agree}")


if __name__ == "__main__":
    main()

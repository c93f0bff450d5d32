"""Replay-fidelity and substrate-agreement properties (PR 9).

Two contracts of the execution layer:

1. **Record → replay is digest-equal** for arbitrary seeded topologies:
   re-driving a recording reproduces the full metric store, every
   transition, every check evaluation, and the terminal outcome —
   byte-identical under :func:`~repro.exec.recording.run_digest`.
2. **SIM and LIVE agree** on deterministic low-jitter topologies: the
   same unchanged strategy reaches the same verdict whether latencies
   are simulated or measured over real loopback sockets.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bifrost.model import Check, Phase, PhaseType, Strategy, StrategyOutcome
from repro.exec.live import LiveOptions
from repro.exec.recording import Recording
from repro.exec.router import ExecutionRouter
from repro.microservices.application import Application
from repro.microservices.service import DownstreamCall, EndpointSpec, ServiceVersion
from repro.simulation.latency import ConstantLatency, LogNormalLatency
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator


def build_app(
    backend_latency: float, canary_latency: float, canary_error_rate: float
) -> Application:
    app = Application("prop")
    app.deploy(
        ServiceVersion(
            "frontend",
            "1.0.0",
            {
                "home": EndpointSpec(
                    "home",
                    LogNormalLatency(9.0, 0.2),
                    calls=(DownstreamCall("backend", "api"),),
                )
            },
            capacity_rps=400.0,
        ),
        stable=True,
    )
    app.deploy(
        ServiceVersion(
            "backend",
            "1.0.0",
            {"api": EndpointSpec("api", LogNormalLatency(backend_latency, 0.25))},
            capacity_rps=400.0,
        ),
        stable=True,
    )
    app.deploy(
        ServiceVersion(
            "backend",
            "2.0.0",
            {
                "api": EndpointSpec(
                    "api",
                    LogNormalLatency(canary_latency, 0.25),
                    error_rate=canary_error_rate,
                )
            },
            capacity_rps=400.0,
        )
    )
    return app


def canary_strategy(
    fraction: float, threshold: float, interval: float
) -> Strategy:
    return Strategy(
        "prop-canary",
        (
            Phase(
                name="canary",
                type=PhaseType.CANARY,
                service="backend",
                stable_version="1.0.0",
                experimental_version="2.0.0",
                fraction=fraction,
                duration_seconds=60.0,
                check_interval_seconds=interval,
                checks=(
                    Check(
                        name="errors",
                        service="backend",
                        version="2.0.0",
                        metric="error",
                        threshold=threshold,
                        window_seconds=20.0,
                    ),
                    Check(
                        name="stable-errors",
                        service="backend",
                        version="1.0.0",
                        metric="error",
                        threshold=0.5,
                        window_seconds=20.0,
                    ),
                ),
            ),
        ),
    )


class TestRecordReplayDigestEqual:
    @given(
        seed=st.integers(min_value=1, max_value=10_000),
        backend_latency=st.floats(min_value=5.0, max_value=40.0),
        canary_latency=st.floats(min_value=5.0, max_value=40.0),
        canary_error_rate=st.sampled_from([0.0, 0.02, 0.3]),
        fraction=st.floats(min_value=0.1, max_value=0.5),
        threshold=st.sampled_from([0.05, 0.15]),
        interval=st.sampled_from([5.0, 8.0]),
        rate=st.floats(min_value=8.0, max_value=25.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_replay_reproduces_recorded_run(
        self,
        seed,
        backend_latency,
        canary_latency,
        canary_error_rate,
        fraction,
        threshold,
        interval,
        rate,
    ):
        router = ExecutionRouter(
            lambda: build_app(backend_latency, canary_latency, canary_error_rate),
            seed=seed,
        )
        population = UserPopulation(150, DEFAULT_GROUPS, seed=seed + 1)
        generator = WorkloadGenerator(
            population, entry="frontend.home", seed=seed + 2
        )
        report = router.run(
            canary_strategy(fraction, threshold, interval),
            workload=generator.poisson(rate, 80.0),
            until=140.0,
            submit_at=1.0,
            record=True,
        )
        recording = report.recording
        loaded = Recording.from_jsonl(recording.jsonl_lines())
        replay_report = router.run(recording=loaded)
        diff = replay_report.replay
        assert diff.digest_match, diff.describe()
        assert diff.identical, diff.describe()
        assert replay_report.outcome is report.outcome

        # Digest equality is the headline; spot-check its constituents
        # directly so a digest-implementation bug can't hide a drift.
        sim_result = report.details
        replay_result = replay_report.details
        assert (
            replay_result.middleware.store.snapshot() == sim_result.middleware.store.snapshot()
        )
        sim_exec = sim_result.executions[0]
        replay_exec = replay_result.executions[0]
        assert [
            (t.time, t.source, t.target, t.trigger)
            for t in replay_exec.transitions
        ] == [
            (t.time, t.source, t.target, t.trigger) for t in sim_exec.transitions
        ]
        assert [
            (c.time, c.check.name, c.outcome, c.observed)
            for c in replay_exec.check_log
        ] == [
            (c.time, c.check.name, c.outcome, c.observed)
            for c in sim_exec.check_log
        ]


class TestSimLiveAgreement:
    def _deterministic_app(self, canary_error_rate: float) -> Application:
        # Constant latencies and (for the faulty case) a heavy error
        # rate: jitter from real sockets cannot flip the verdict.
        app = Application("agree")
        app.deploy(
            ServiceVersion(
                "frontend",
                "1.0.0",
                {
                    "home": EndpointSpec(
                        "home",
                        ConstantLatency(5.0),
                        calls=(DownstreamCall("backend", "api"),),
                    )
                },
            ),
            stable=True,
        )
        app.deploy(
            ServiceVersion(
                "backend", "1.0.0", {"api": EndpointSpec("api", ConstantLatency(8.0))}
            ),
            stable=True,
        )
        app.deploy(
            ServiceVersion(
                "backend",
                "2.0.0",
                {
                    "api": EndpointSpec(
                        "api", ConstantLatency(6.0), error_rate=canary_error_rate
                    )
                },
            )
        )
        return app

    def _verdicts(self, canary_error_rate: float):
        router = ExecutionRouter(
            lambda: self._deterministic_app(canary_error_rate),
            seed=17,
            live_options=LiveOptions(time_scale=0.01, max_wall_s=55.0),
        )
        strategy = canary_strategy(0.3, 0.15, 8.0)
        verdicts = {}
        for mode in ("sim", "live"):
            population = UserPopulation(100, DEFAULT_GROUPS, seed=18)
            generator = WorkloadGenerator(
                population, entry="frontend.home", seed=19
            )
            report = router.run(
                strategy,
                workload=generator.poisson(15.0, 80.0),
                until=140.0,
                submit_at=1.0,
                mode=mode,
            )
            verdicts[mode] = report.outcome
        return verdicts

    def test_healthy_canary_promotes_on_both_substrates(self):
        verdicts = self._verdicts(0.0)
        assert verdicts["sim"] is StrategyOutcome.COMPLETED
        assert verdicts["live"] is StrategyOutcome.COMPLETED

    def test_faulty_canary_rolls_back_on_both_substrates(self):
        verdicts = self._verdicts(0.6)
        assert verdicts["sim"] is StrategyOutcome.ROLLED_BACK
        assert verdicts["live"] is StrategyOutcome.ROLLED_BACK

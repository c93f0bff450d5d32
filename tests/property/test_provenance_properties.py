"""Provenance-fidelity properties (PR 10).

The provenance layer's headline contract: the engine-side graph (folded
live, one event at a time, as the engine emits) and the offline graph
(folded from nothing but an exported event stream) are **equal** —
digest-equal across randomized topologies, seeds, and thresholds, across
the JSONL export → load round-trip, and across REPLAY of a SIM
recording.  A promotion's explanation survives every serialization hop.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bifrost.model import Check, Phase, PhaseType, Strategy
from repro.exec.recording import Recording
from repro.exec.router import ExecutionRouter
from repro.obs.provenance import build_provenance
from repro.obs.timeline import diff_timeline_execution
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator

from tests.property.test_exec_replay import build_app, canary_strategy
from tests.unit.test_obs_provenance import terminal_decision


def multiphase_strategy(threshold: float, interval: float) -> Strategy:
    """Canary then rollout — exercises phase-stay resets in the fold."""
    checks = (
        Check(
            name="errors",
            service="backend",
            version="2.0.0",
            metric="error",
            threshold=threshold,
            window_seconds=20.0,
        ),
        Check(
            name="latency",
            service="backend",
            version="2.0.0",
            metric="response_time",
            aggregation="p95",
            threshold=400.0,
            window_seconds=20.0,
        ),
    )
    return Strategy(
        "prop-multiphase",
        (
            Phase(
                name="canary",
                type=PhaseType.CANARY,
                service="backend",
                stable_version="1.0.0",
                experimental_version="2.0.0",
                fraction=0.2,
                duration_seconds=45.0,
                check_interval_seconds=interval,
                checks=checks,
                on_success="rollout",
            ),
            Phase(
                name="rollout",
                type=PhaseType.CANARY,
                service="backend",
                stable_version="1.0.0",
                experimental_version="2.0.0",
                fraction=0.6,
                duration_seconds=40.0,
                check_interval_seconds=interval,
                checks=checks,
            ),
        ),
    )


def run_recorded(
    seed: int,
    canary_error_rate: float,
    strategy: Strategy,
    rate: float = 15.0,
):
    router = ExecutionRouter(
        lambda: build_app(10.0, 12.0, canary_error_rate), seed=seed
    )
    population = UserPopulation(150, DEFAULT_GROUPS, seed=seed + 1)
    generator = WorkloadGenerator(
        population, entry="frontend.home", seed=seed + 2
    )
    return router.run(
        strategy,
        workload=generator.poisson(rate, 100.0),
        until=160.0,
        submit_at=1.0,
        record=True,
    ), router


class TestEngineGraphEqualsOfflineFold:
    @given(
        seed=st.integers(min_value=1, max_value=10_000),
        canary_error_rate=st.sampled_from([0.0, 0.05, 0.4]),
        threshold=st.sampled_from([0.05, 0.15]),
        interval=st.sampled_from([5.0, 8.0]),
        multiphase=st.booleans(),
    )
    @settings(max_examples=8, deadline=None)
    def test_offline_fold_is_digest_equal(
        self, seed, canary_error_rate, threshold, interval, multiphase
    ):
        strategy = (
            multiphase_strategy(threshold, interval)
            if multiphase
            else canary_strategy(0.3, threshold, interval)
        )
        report, _router = run_recorded(seed, canary_error_rate, strategy)
        live = report.details.provenance
        assert live is not None
        # Fold 1: straight off the recording's captured event stream.
        offline = report.recording.provenance()
        assert offline.digest() == live.digest()
        # Fold 2: after the JSONL export -> parse round-trip.
        loaded = Recording.from_jsonl(report.recording.jsonl_lines())
        assert loaded.provenance().digest() == live.digest()
        # The graph is substantive, not vacuously equal.
        record = offline.strategy(strategy.name)
        assert record.evidence
        assert any(d.terminal for d in record.decisions)
        assert all(
            seq in record.evidence
            for decision in record.decisions
            for seq in decision.evidence
        )
        # The live record is a timeline: it matches the engine's own
        # record, and its phase stays equal the offline fold's.
        (execution,) = report.details.executions
        live_record = live.strategy(strategy.name)
        assert diff_timeline_execution(live_record, execution) == []
        assert live_record.phases == record.phases

    @given(
        seed=st.integers(min_value=1, max_value=10_000),
        canary_error_rate=st.sampled_from([0.0, 0.4]),
    )
    @settings(max_examples=6, deadline=None)
    def test_replay_of_sim_recording_is_digest_equal(
        self, seed, canary_error_rate
    ):
        report, router = run_recorded(
            seed, canary_error_rate, canary_strategy(0.3, 0.1, 5.0)
        )
        recorded_graph = report.recording.provenance()
        replay_report = router.run(recording=report.recording)
        assert replay_report.replay.identical, replay_report.replay.describe()
        replayed_graph = replay_report.details.provenance
        assert replayed_graph is not None
        assert replayed_graph.digest() == recorded_graph.digest()
        assert replayed_graph.digest() == report.details.provenance.digest()


class TestDecisionPayloadIntegrity:
    def test_terminal_decision_explains_the_rollback(self):
        report, _router = run_recorded(
            101, 0.5, canary_strategy(0.3, 0.05, 5.0)
        )
        graph = build_provenance(report.recording.events)
        record = graph.strategy("prop-canary")
        assert record.outcome == "rolled_back"
        decision = terminal_decision(record)
        assert decision is not None
        assert decision.action == "rollback"
        evidence = graph.evidence_for(decision)
        assert any(e.failing for e in evidence)
        failing = next(e for e in evidence if e.failing)
        assert failing.metric == "error"
        assert failing.margin is not None and failing.margin < 0
        assert failing.window_end == failing.time
        assert failing.samples is not None and failing.samples > 0

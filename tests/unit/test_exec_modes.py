"""Unit tests for the execution layer: modes, recordings, routing.

Covers the PR-9 surface below the e2e level: the ``mode`` DSL keyword
and its model validation, the check-level ``version`` round trip the
replay fidelity depends on, the :class:`Recording` JSONL format, digest
semantics, the router's mode-resolution precedence, and the middleware's
submit-time mode guard.
"""

import io
import json

import pytest

from repro.bifrost.dsl import parse_strategy, strategy_to_dsl
from repro.bifrost.middleware import Bifrost
from repro.bifrost.model import (
    Check,
    Phase,
    PhaseType,
    Strategy,
    strategy_from_dict,
    strategy_to_dict,
)
from repro.errors import (
    ConfigurationError,
    DSLError,
    ReplayError,
    ValidationError,
)
from repro.exec.recording import RecordedRequest, RecordedSpan, Recording, run_digest
from repro.exec.replay import ReplayBackend, diff_replay
from repro.exec.router import ExecutionMode, ExecutionRouter
from repro.exec.sim import RunResult
from repro.obs.events import EventLog
from repro.traffic.users import UserPopulation
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.workload import WorkloadGenerator


def canary_strategy(**overrides) -> Strategy:
    defaults = dict(
        name="canary",
        type=PhaseType.CANARY,
        service="backend",
        stable_version="1.0.0",
        experimental_version="2.0.0",
        fraction=0.3,
        duration_seconds=30.0,
        check_interval_seconds=5.0,
        checks=(
            Check(
                name="errors",
                service="backend",
                version="2.0.0",
                metric="error",
                threshold=0.1,
                window_seconds=20.0,
            ),
        ),
    )
    defaults.update(overrides)
    mode = defaults.pop("execution_mode", "sim")
    return Strategy("s", (Phase(**defaults),), execution_mode=mode)


class TestModeInDSL:
    def test_mode_parses_and_round_trips(self):
        text = "strategy s\n  mode live\n  phase p\n    service backend\n"
        strategy = parse_strategy(text)
        assert strategy.execution_mode == "live"
        assert "  mode live" in strategy_to_dsl(strategy)
        assert parse_strategy(strategy_to_dsl(strategy)).execution_mode == "live"

    def test_default_mode_is_sim_and_not_serialized(self):
        strategy = parse_strategy("strategy s\n  phase p\n    service backend\n")
        assert strategy.execution_mode == "sim"
        assert "mode" not in strategy_to_dsl(strategy)

    def test_unknown_mode_rejected(self):
        with pytest.raises(DSLError, match="unknown mode"):
            parse_strategy("strategy s\n  mode warp\n  phase p\n")

    def test_model_validates_mode(self):
        with pytest.raises(ConfigurationError, match="execution mode"):
            Strategy("s", (), execution_mode="warp")

    def test_mode_survives_dict_round_trip(self):
        strategy = canary_strategy(execution_mode="live")
        doc = strategy_to_dict(strategy)
        assert doc["execution_mode"] == "live"
        assert strategy_from_dict(doc).execution_mode == "live"


class TestCheckVersionRoundTrip:
    def test_check_version_differing_from_experimental_survives_dsl(self):
        # The replay-fidelity bug this PR fixes: a check watching the
        # *stable* version used to be silently rebound to the
        # experimental one by a DSL round trip.
        strategy = canary_strategy(
            checks=(
                Check(
                    name="user-errors",
                    service="backend",
                    version="1.0.0",
                    metric="error",
                    threshold=0.1,
                    window_seconds=20.0,
                ),
            )
        )
        text = strategy_to_dsl(strategy)
        assert "      version 1.0.0" in text
        reparsed = parse_strategy(text)
        assert reparsed.entry.checks[0].version == "1.0.0"
        assert strategy_to_dsl(reparsed) == text

    def test_check_version_defaults_to_experimental(self):
        text = (
            "strategy s\n"
            "  phase p\n"
            "    service backend\n"
            "    stable 1.0.0\n"
            "    experimental 2.0.0\n"
            "    check errors\n"
            "      metric error\n"
            "      threshold 0.1\n"
        )
        check = parse_strategy(text).entry.checks[0]
        assert check.version == "2.0.0"


class TestBifrostModeGuard:
    def test_rejects_mode_pinned_strategy(self, canary_app):
        bifrost = Bifrost(canary_app)
        with pytest.raises(ConfigurationError, match="ExecutionRouter"):
            bifrost.submit(canary_strategy(execution_mode="live"))

    def test_accepts_default_mode_strategy(self, canary_app):
        bifrost = Bifrost(canary_app)
        execution = bifrost.submit(canary_strategy(), at=1.0)
        assert execution.strategy.name == "s"


class TestModeResolution:
    def router(self, canary_app) -> ExecutionRouter:
        return ExecutionRouter(lambda: canary_app)

    def test_coerce(self):
        assert ExecutionMode.coerce("sim") is ExecutionMode.SIM
        assert ExecutionMode.coerce(ExecutionMode.LIVE) is ExecutionMode.LIVE
        with pytest.raises(ConfigurationError, match="unknown execution mode"):
            ExecutionMode.coerce("warp")

    def test_explicit_argument_wins(self, canary_app):
        router = self.router(canary_app)
        strategy = canary_strategy(execution_mode="live")
        assert (
            router.resolve_mode(strategy, "sim", None) is ExecutionMode.SIM
        )

    def test_strategy_pin_beats_recording(self, canary_app):
        router = self.router(canary_app)
        recording = Recording("", seed=1, submit_at=0.0, end_time=1.0)
        strategy = canary_strategy(execution_mode="live")
        assert (
            router.resolve_mode(strategy, None, recording)
            is ExecutionMode.LIVE
        )

    def test_recording_implies_replay(self, canary_app):
        router = self.router(canary_app)
        recording = Recording("", seed=1, submit_at=0.0, end_time=1.0)
        assert (
            router.resolve_mode(canary_strategy(), None, recording)
            is ExecutionMode.REPLAY
        )

    def test_default_is_sim(self, canary_app):
        assert (
            self.router(canary_app).resolve_mode(canary_strategy(), None, None)
            is ExecutionMode.SIM
        )

    def test_replay_needs_recording(self, canary_app):
        with pytest.raises(ConfigurationError, match="needs a recording"):
            self.router(canary_app).run(canary_strategy(), mode="replay")

    def test_sim_needs_workload(self, canary_app):
        with pytest.raises(ConfigurationError, match="needs a workload"):
            self.router(canary_app).run(canary_strategy(), mode="sim")

    def test_live_cannot_record(self, canary_app):
        with pytest.raises(ConfigurationError, match="SIM-mode feature"):
            self.router(canary_app).run(
                canary_strategy(), workload=[], mode="live", record=True
            )

    def test_replay_cannot_record(self, canary_app):
        recording = Recording(
            strategy_to_dsl(canary_strategy()), seed=1, submit_at=0.0, end_time=1.0
        )
        with pytest.raises(ConfigurationError, match="SIM-mode feature"):
            self.router(canary_app).run(recording=recording, record=True)


class TestRecordingFormat:
    def recording(self) -> Recording:
        log = EventLog(capacity=100)
        log.append("engine.submitted", 0.0, {"strategy": "s", "start": 0.0})
        return Recording(
            strategy_dsl="strategy s\n  phase p\n    service backend\n",
            seed=7,
            submit_at=1.0,
            end_time=60.0,
            events=log.events(),
            requests=[
                RecordedRequest(
                    timestamp=2.0,
                    user_id="u1",
                    group="eu",
                    entry="frontend.home",
                    headers={"x-group": "eu"},
                    spans=(
                        RecordedSpan("frontend", "1.0.0", 2.0, 12.5, False),
                        RecordedSpan("backend", "1.0.0", 2.1, 8.0, True),
                    ),
                    duration_ms=12.5,
                    error=False,
                )
            ],
            digest="d" * 64,
            outcomes={"s": "completed"},
            strategy_doc={"name": "s"},
        )

    def test_jsonl_round_trip_is_lossless(self):
        recording = self.recording()
        buffer = io.StringIO()
        lines = recording.save(buffer)
        # meta + 1 event + 1 request + digest
        assert lines == 4
        loaded = Recording.from_jsonl(buffer.getvalue().splitlines())
        assert loaded.strategy_dsl == recording.strategy_dsl
        assert loaded.strategy_doc == {"name": "s"}
        assert loaded.seed == 7
        assert loaded.submit_at == 1.0
        assert loaded.end_time == 60.0
        assert loaded.digest == recording.digest
        assert loaded.outcomes == {"s": "completed"}
        assert loaded.events[0].kind == "engine.submitted"
        assert loaded.requests[0].spans == recording.requests[0].spans
        assert loaded.requests[0].headers == {"x-group": "eu"}

    def test_later_format_refused(self):
        lines = list(self.recording().jsonl_lines())
        meta = json.loads(lines[0])
        assert meta["format"] == 1
        meta["format"] = 2
        with pytest.raises(ValidationError, match="format 2.*reads format 1"):
            Recording.from_jsonl([json.dumps(meta), *lines[1:]])

    def test_meta_without_format_is_format_one(self):
        lines = list(self.recording().jsonl_lines())
        meta = json.loads(lines[0])
        del meta["format"]
        loaded = Recording.from_jsonl([json.dumps(meta), *lines[1:]])
        assert loaded == self.recording()

    def test_unknown_line_type_rejected(self):
        with pytest.raises(ValidationError, match="unknown recording line"):
            Recording.from_jsonl(['{"type": "mystery"}'])

    def test_missing_meta_rejected(self):
        with pytest.raises(ValidationError, match="meta"):
            Recording.from_jsonl(['{"type": "digest", "value": "x"}'])

    def test_undecodable_line_rejected(self):
        with pytest.raises(ValidationError, match="undecodable"):
            Recording.from_jsonl(["{not json"])

    def test_truncated_recording_detected_and_refused(self, canary_app):
        log = EventLog(capacity=2)
        for i in range(9):
            log.append("engine.check", float(i), {})
        recording = self.recording()
        recording.events = [log.truncation_sentinel(), *log.events()]
        assert recording.truncated is not None
        backend = ReplayBackend(lambda: canary_app)
        with pytest.raises(ReplayError, match="truncated"):
            backend.execute(recording)
        with pytest.raises(ReplayError, match="truncated"):
            diff_replay(recording, object())

    def test_recording_without_strategy_refused(self, canary_app):
        recording = Recording("", seed=1, submit_at=0.0, end_time=1.0)
        with pytest.raises(ReplayError, match="no strategy"):
            ReplayBackend(lambda: canary_app).execute(recording)


class TestRecordReplayUnit:
    """A fast in-process record→replay cycle on the tiny fixture app."""

    def run_recorded(self, canary_app):
        router = ExecutionRouter(lambda: canary_app, seed=11)
        population = UserPopulation(150, DEFAULT_GROUPS, seed=12)
        workload = WorkloadGenerator(
            population, entry="frontend.home", seed=13
        )
        return router, router.run(
            canary_strategy(),
            workload=workload.poisson(20.0, 40.0),
            until=60.0,
            submit_at=1.0,
            record=True,
        )

    def test_replay_is_digest_equal(self, canary_app):
        router, report = self.run_recorded(canary_app)
        recording = report.recording
        assert recording is not None
        assert recording.requests and recording.events
        assert recording.digest == report.details.recording.digest
        replay_report = router.run(mode="replay", recording=recording)
        assert replay_report.mode is ExecutionMode.REPLAY
        assert replay_report.replay.digest_match
        assert replay_report.replay.identical, replay_report.replay.describe()
        assert replay_report.outcome == report.outcome
        assert (replay_report.requests, replay_report.errors, replay_report.sim_seconds) == (
            report.requests, report.errors, report.sim_seconds
        )
        for run in (report, replay_report):
            assert isinstance(run.details, RunResult)
            assert run.details.provenance is not None

    def test_replay_survives_serialization(self, canary_app):
        router, report = self.run_recorded(canary_app)
        buffer = io.StringIO()
        report.recording.save(buffer)
        loaded = Recording.from_jsonl(buffer.getvalue().splitlines())
        replay_report = router.run(recording=loaded)  # implies REPLAY
        assert replay_report.replay.identical, replay_report.replay.describe()

    def test_what_if_replay_diverges_visibly(self, canary_app):
        # Replaying a *stricter* strategy against the same traffic is the
        # what-if workflow: the diff must flag the divergence rather than
        # pretend the replay was faithful.
        router, report = self.run_recorded(canary_app)
        strict = canary_strategy(
            checks=(
                Check(
                    name="errors",
                    service="backend",
                    version="2.0.0",
                    metric="response_time",
                    threshold=1.0,  # impossible: constant 30ms latency
                    window_seconds=20.0,
                ),
            )
        )
        replay_report = router.run(
            strict, mode="replay", recording=report.recording
        )
        assert not replay_report.replay.identical
        assert replay_report.rolled_back

    def test_digest_covers_store_contents(self, canary_app):
        router, report = self.run_recorded(canary_app)
        result = report.details
        digest_before = run_digest(
            result.middleware.store, result.executions
        )
        result.middleware.store.record("backend", "1.0.0", "error", 59.0, 1.0)
        digest_after = run_digest(result.middleware.store, result.executions)
        assert digest_before != digest_after

"""Unit tests for the Bifrost engine's phase lifecycle and actions."""

import pytest

from repro.bifrost.engine import CHECK_COST, ROUTE_COST, TICK_COST, engine_load
from repro.bifrost.journal import FileJournalStorage, Journal, SnapshotPolicy
from repro.bifrost.middleware import Bifrost
from repro.bifrost.model import (
    Check,
    Phase,
    PhaseType,
    Strategy,
    StrategyOutcome,
)
from repro.errors import ValidationError
from repro.microservices.faults import EngineCrash, FaultCampaign, FaultInjector
from repro.microservices.service import ServiceVersion
from repro.traffic.profile import UserGroup
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator
from tests.conftest import constant_endpoint

GROUPS = (UserGroup("eu", 0.6), UserGroup("na", 0.4))


def run_strategy(
    app, strategy, duration=200.0, rate=40.0, seed=3, observer=None,
    crashes=(), **options,
):
    """Submit *strategy* at t=1 and drive a Poisson workload through it,
    killing the engine over each ``(start, end)`` window in *crashes*;
    *options* go to the :class:`Bifrost` constructor."""
    bifrost = Bifrost(app, seed=seed, observer=observer, **options)
    if crashes:
        campaign = FaultCampaign(FaultInjector(app))
        for start, end in crashes:
            campaign.add(EngineCrash(start, end))
        bifrost.install_campaign(campaign)
    execution = bifrost.submit(strategy, at=1.0)
    population = UserPopulation(400, GROUPS, seed=seed + 1)
    workload = WorkloadGenerator(population, entry="frontend.home", seed=seed + 2)
    bifrost.run(workload.poisson(rate, duration), until=duration + 20.0)
    return bifrost, execution


def error_check(threshold=0.05, window=20.0) -> Check:
    return Check(
        name="errors",
        service="backend",
        version="2.0.0",
        metric="error",
        aggregation="mean",
        operator="<=",
        threshold=threshold,
        window_seconds=window,
    )


def canary_phase(**kwargs) -> Phase:
    defaults = dict(
        name="canary",
        type=PhaseType.CANARY,
        service="backend",
        stable_version="1.0.0",
        experimental_version="2.0.0",
        fraction=0.3,
        duration_seconds=60.0,
        check_interval_seconds=5.0,
        checks=(error_check(),),
    )
    defaults.update(kwargs)
    return Phase(**defaults)


class TestHappyPath:
    def test_healthy_canary_completes_and_promotes(self, canary_app):
        strategy = Strategy("s", (canary_phase(),))
        bifrost, execution = run_strategy(canary_app, strategy)
        assert execution.outcome is StrategyOutcome.COMPLETED
        assert canary_app.stable_version("backend") == "2.0.0"

    def test_route_uninstalled_after_completion(self, canary_app):
        strategy = Strategy("s", (canary_phase(),))
        bifrost, execution = run_strategy(canary_app, strategy)
        assert bifrost.router.active_route("backend") is None

    def test_transitions_recorded(self, canary_app):
        strategy = Strategy("s", (canary_phase(),))
        _, execution = run_strategy(canary_app, strategy)
        assert execution.transitions[-1].target == "complete"
        assert execution.finished_at is not None

    def test_checks_logged(self, canary_app):
        strategy = Strategy("s", (canary_phase(),))
        _, execution = run_strategy(canary_app, strategy)
        assert len(execution.check_log) >= 5


class TestFailurePath:
    def test_broken_canary_rolls_back(self, canary_app):
        # Make the canary version fail every request.
        broken = canary_app.resolve("backend", "2.0.0")
        broken.endpoints["api"] = constant_endpoint("api", 30.0, error_rate=1.0)
        strategy = Strategy("s", (canary_phase(),))
        _, execution = run_strategy(canary_app, strategy)
        assert execution.outcome is StrategyOutcome.ROLLED_BACK
        assert canary_app.stable_version("backend") == "1.0.0"

    def test_rollback_happens_before_phase_end(self, canary_app):
        broken = canary_app.resolve("backend", "2.0.0")
        broken.endpoints["api"] = constant_endpoint("api", 30.0, error_rate=1.0)
        strategy = Strategy("s", (canary_phase(duration_seconds=500.0),))
        _, execution = run_strategy(canary_app, strategy)
        assert execution.outcome is StrategyOutcome.ROLLED_BACK
        assert execution.finished_at < 200.0

    def test_rollback_uninstalls_route(self, canary_app):
        broken = canary_app.resolve("backend", "2.0.0")
        broken.endpoints["api"] = constant_endpoint("api", 30.0, error_rate=1.0)
        strategy = Strategy("s", (canary_phase(),))
        bifrost, _ = run_strategy(canary_app, strategy)
        assert bifrost.router.active_route("backend") is None


class TestInconclusivePath:
    def test_no_data_repeats_then_fails(self, canary_app):
        # Audience restricted to a group that gets no traffic: checks on
        # the canary stay inconclusive forever.
        phase = canary_phase(
            audience_groups=frozenset({"ghost-group"}),
            duration_seconds=30.0,
            max_repeats=1,
        )
        strategy = Strategy("s", (phase,))
        _, execution = run_strategy(canary_app, strategy, duration=150.0)
        repeats = [t for t in execution.transitions if t.trigger == "inconclusive"]
        assert repeats
        assert execution.outcome is StrategyOutcome.ROLLED_BACK

    def test_min_samples_gate(self, canary_app):
        # Demand more samples than the short phase can collect.
        phase = canary_phase(duration_seconds=20.0, min_samples=100_000)
        strategy = Strategy("s", (phase,))
        _, execution = run_strategy(canary_app, strategy, duration=120.0)
        assert execution.outcome is not StrategyOutcome.COMPLETED


class TestMultiPhase:
    def test_chaining_to_second_phase(self, canary_app):
        first = canary_phase(name="one", on_success="two", duration_seconds=30.0)
        second = canary_phase(name="two", duration_seconds=30.0)
        strategy = Strategy("s", (first, second))
        _, execution = run_strategy(canary_app, strategy)
        sources = [t.source for t in execution.transitions]
        assert "one" in sources and "two" in sources
        assert execution.outcome is StrategyOutcome.COMPLETED

    def test_ab_picks_faster_winner(self, canary_app):
        # 2.1.0 is faster than 2.0.0; the A/B should pick it.
        canary_app.deploy(
            ServiceVersion(
                "backend", "2.1.0", {"api": constant_endpoint("api", 10.0)}
            )
        )
        ab = Phase(
            name="ab",
            type=PhaseType.AB_TEST,
            service="backend",
            stable_version="1.0.0",
            experimental_version="2.0.0",
            second_version="2.1.0",
            fraction=0.5,
            duration_seconds=60.0,
            check_interval_seconds=5.0,
        )
        strategy = Strategy("s", (ab,))
        _, execution = run_strategy(canary_app, strategy)
        assert execution.winner == "2.1.0"
        assert execution.outcome is StrategyOutcome.COMPLETED
        assert canary_app.stable_version("backend") == "2.1.0"

    def test_gradual_rollout_advances_steps(self, canary_app):
        rollout = Phase(
            name="rollout",
            type=PhaseType.GRADUAL_ROLLOUT,
            service="backend",
            stable_version="1.0.0",
            experimental_version="2.0.0",
            steps=(0.2, 0.6, 1.0),
            duration_seconds=60.0,
            check_interval_seconds=5.0,
        )
        strategy = Strategy("s", (rollout,))
        bifrost = Bifrost(canary_app, seed=5)
        execution = bifrost.submit(strategy, at=1.0)
        population = UserPopulation(400, GROUPS, seed=6)
        workload = WorkloadGenerator(population, entry="frontend.home", seed=7)

        fractions = []
        for request in workload.poisson(40.0, 80.0):
            bifrost.simulation.run_until(max(request.timestamp, bifrost.simulation.now))
            route = bifrost.router.active_route("backend")
            if route is not None and len(route.variants) == 2:
                fractions.append(route.variants[1].fraction)
            bifrost.runtime.execute(request)
        bifrost.simulation.run_until(100.0)
        assert 0.2 in fractions and 0.6 in fractions
        assert execution.outcome is StrategyOutcome.COMPLETED

    def test_dark_launch_duplicates_traffic(self, canary_app):
        dark = Phase(
            name="dark",
            type=PhaseType.DARK_LAUNCH,
            service="backend",
            stable_version="1.0.0",
            experimental_version="2.0.0",
            duration_seconds=40.0,
            check_interval_seconds=5.0,
        )
        strategy = Strategy("s", (dark,))
        bifrost, execution = run_strategy(canary_app, strategy, duration=100.0)
        store = bifrost.store
        shadow_calls = store.aggregate(
            "backend", "2.0.0", "throughput", "count", 0.0, 100.0
        )
        assert shadow_calls and shadow_calls > 0
        assert execution.outcome is StrategyOutcome.COMPLETED


ENGINE_WORK = ("tick", "route", "finalized")


class TestEngineAccounting:
    def test_executor_charged_per_tick(self, canary_app):
        strategy = Strategy("s", (canary_phase(),))
        bifrost, _ = run_strategy(canary_app, strategy, durable=True)
        kinds = [r.kind for r in bifrost.journal.records() if r.kind in ENGINE_WORK]
        report = engine_load(bifrost.journal.records()).report()
        ticks = kinds.count("tick")
        assert ticks >= 10
        assert report.tasks == len(kinds)
        # One check per tick; every route install and teardown is priced.
        assert report.busy_time == pytest.approx(
            ticks * (TICK_COST + CHECK_COST) + (len(kinds) - ticks) * ROUTE_COST
        )
        assert report.utilization < 0.05  # one strategy is nearly free

    def test_load_restarts_with_the_recovered_engine(self, canary_app):
        strategy = Strategy("s", (canary_phase(),))
        bifrost, _ = run_strategy(
            canary_app, strategy, durable=True, crashes=[(22.0, 33.0)]
        )
        assert bifrost.engine.outcomes() == {"s": StrategyOutcome.COMPLETED}
        records = bifrost.journal.records()
        kinds = [r.kind for r in records]
        assert kinds.count("recovered") == 1
        after = records[kinds.index("recovered") + 1:]
        tasks = engine_load(records).records
        # Exactly the recovered engine's work: its catch-up ticks, its
        # route re-install and teardown, none of the crashed engine's.
        assert [t.arrival for t in tasks] == [
            r.time for r in after if r.kind in ENGINE_WORK
        ]
        assert {r.kind for r in after if r.kind in ENGINE_WORK} == set(ENGINE_WORK)
        assert len(tasks) < sum(1 for kind in kinds if kind in ENGINE_WORK)

    def test_load_reads_offline_from_the_log(self, canary_app, tmp_path):
        strategy = Strategy("s", (canary_phase(),))
        path = str(tmp_path / "engine.wal")
        run_strategy(canary_app, strategy, journal=Journal(FileJournalStorage(path)))
        offline = engine_load(Journal(FileJournalStorage(path)).records()).report()
        canary_app.service("backend").promote("1.0.0")
        bifrost, _ = run_strategy(canary_app, strategy, durable=True)
        assert offline == engine_load(bifrost.journal.records()).report()

    def test_load_refuses_a_compacted_journal(self, canary_app):
        strategy = Strategy("s", (canary_phase(),))
        bifrost, _ = run_strategy(
            canary_app, strategy,
            snapshot_policy=SnapshotPolicy(every_records=10, compact=True),
            durable=True,
        )
        records = bifrost.journal.records()
        assert records[0].lsn > 1
        with pytest.raises(ValidationError, match="starts at LSN"):
            engine_load(records)

    def test_outcomes_summary(self, canary_app):
        strategy = Strategy("s", (canary_phase(),))
        bifrost, _ = run_strategy(canary_app, strategy)
        assert bifrost.engine.outcomes() == {"s": StrategyOutcome.COMPLETED}
        assert bifrost.engine.running_count() == 0


class TestDurableHandle:
    def test_submitted_handle_tracks_the_restarted_engine(self, canary_app):
        """A 60 s canary whose engine is down over 22–33 s: the execution
        ``submit`` returned is the one the restarted engine finishes."""
        strategy = Strategy("s", (canary_phase(),))
        bifrost, execution = run_strategy(
            canary_app, strategy, durable=True, crashes=[(22.0, 33.0)]
        )
        assert bifrost.supervisor.restarts == 1
        assert execution.outcome is bifrost.engine.outcomes()["s"]
        assert execution.outcome is StrategyOutcome.COMPLETED
        assert bifrost.engine.executions[0] is execution
        assert execution.last_tick_at > 33.0


class TestPerCheckIntervals:
    def test_checks_evaluated_at_their_own_cadence(self, canary_app):
        """Fig 4.3: a check with a longer interval runs less often."""
        fast = error_check(window=20.0)
        slow = Check(
            name="slow-latency",
            service="backend",
            version="2.0.0",
            metric="response_time",
            aggregation="mean",
            operator="<=",
            threshold=10_000.0,
            window_seconds=60.0,
            interval_seconds=20.0,
        )
        phase = canary_phase(
            duration_seconds=60.0, check_interval_seconds=5.0,
            checks=(fast, slow),
        )
        strategy = Strategy("s", (phase,))
        _, execution = run_strategy(canary_app, strategy, duration=100.0)
        counts = {}
        for result in execution.check_log:
            counts[result.check.name] = counts.get(result.check.name, 0) + 1
        # The fast check runs every 5 s tick, the slow one every 20 s.
        assert counts["errors"] >= 3 * counts["slow-latency"]
        assert counts["slow-latency"] >= 2

    def test_phase_end_uses_latest_outcomes(self, canary_app):
        """A slow check that passed earlier doesn't block completion."""
        slow = Check(
            name="slow",
            service="backend",
            version="2.0.0",
            metric="response_time",
            aggregation="mean",
            operator="<=",
            threshold=10_000.0,
            window_seconds=120.0,
            interval_seconds=25.0,
        )
        phase = canary_phase(
            duration_seconds=60.0, check_interval_seconds=5.0,
            checks=(error_check(window=30.0), slow),
        )
        strategy = Strategy("s", (phase,))
        _, execution = run_strategy(canary_app, strategy, duration=100.0)
        assert execution.outcome is StrategyOutcome.COMPLETED


class TestCancellation:
    def test_cancel_running_strategy(self, canary_app):
        strategy = Strategy("s", (canary_phase(duration_seconds=10_000.0),))
        bifrost = Bifrost(canary_app, seed=9)
        execution = bifrost.submit(strategy, at=1.0)
        population = UserPopulation(200, GROUPS, seed=10)
        workload = WorkloadGenerator(population, entry="frontend.home", seed=11)
        bifrost.run(workload.poisson(20.0, 30.0), until=35.0)
        assert execution.running
        bifrost.engine.cancel("s")
        assert execution.outcome is StrategyOutcome.ABORTED
        # Traffic reverted: the route is gone and stable is unchanged.
        assert bifrost.router.active_route("backend") is None
        assert canary_app.stable_version("backend") == "1.0.0"
        assert execution.transitions[-1].trigger == "canceled"

    def test_cancel_finished_strategy_is_noop(self, canary_app):
        strategy = Strategy("s", (canary_phase(duration_seconds=20.0),))
        bifrost, execution = run_strategy(canary_app, strategy, duration=80.0)
        outcome_before = execution.outcome
        bifrost.engine.cancel("s")
        assert execution.outcome is outcome_before

    def test_cancel_unknown_strategy(self, canary_app):
        from repro.errors import ExecutionError

        bifrost = Bifrost(canary_app)
        with pytest.raises(ExecutionError):
            bifrost.engine.cancel("ghost")

    def test_no_further_ticks_after_cancel(self, canary_app):
        strategy = Strategy("s", (canary_phase(duration_seconds=10_000.0),))
        bifrost = Bifrost(canary_app, seed=12)
        execution = bifrost.submit(strategy, at=1.0)
        population = UserPopulation(200, GROUPS, seed=13)
        workload = WorkloadGenerator(population, entry="frontend.home", seed=14)
        bifrost.run(workload.poisson(20.0, 30.0), until=35.0)
        bifrost.engine.cancel("s")
        checks_at_cancel = len(execution.check_log)
        bifrost.simulation.run_until(200.0)
        assert len(execution.check_log) == checks_at_cancel

"""Unit tests: the built-in instrumentation emits what the record shows.

Each subsystem's emissions are checked against its own ground truth —
the engine's execution record, the journal's record list, the search
result's statistics — so the glass box is verified to reflect reality
rather than merely produce output.
"""

from repro.bifrost.checks import CheckEvaluator, CheckResult
from repro.bifrost.model import CheckOutcome, Strategy, StrategyOutcome
from repro.fenrir.model import ExperimentSpec
from repro.fenrir.scheduler import Fenrir
from repro.obs.events import (
    ENGINE_CHECK,
    ENGINE_FINALIZED,
    ENGINE_PHASE_ENTERED,
    ENGINE_TRANSITION,
    FENRIR_GENERATION,
    FENRIR_SCHEDULE,
    FENRIR_SEARCH_COMPLETED,
    JOURNAL_APPEND,
    TOPOLOGY_HEALTH,
)
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.telemetry.store import MetricStore
from repro.traffic.profile import UserGroup, flat_profile
from tests.unit.test_bifrost_engine import canary_phase, run_strategy


class TestEngineInstrumentation:
    def test_event_counts_match_execution_record(self, canary_app):
        observer = Observer(enabled=True)
        strategy = Strategy("s", (canary_phase(),))
        _, execution = run_strategy(canary_app, strategy, observer=observer)
        assert execution.outcome is StrategyOutcome.COMPLETED
        counts = observer.events.counts_by_kind()
        assert counts[ENGINE_CHECK] == len(execution.check_log)
        assert counts[ENGINE_TRANSITION] == len(execution.transitions)
        assert counts[ENGINE_PHASE_ENTERED] == execution.phase_entries
        assert counts[ENGINE_FINALIZED] == 1

    def test_metrics_mirror_event_counts(self, canary_app):
        observer = Observer(enabled=True)
        strategy = Strategy("s", (canary_phase(),))
        _, execution = run_strategy(canary_app, strategy, observer=observer)
        passes = sum(
            1 for r in execution.check_log if r.outcome is CheckOutcome.PASS
        )
        assert (
            observer.metrics.value("bifrost_checks_total", outcome="pass")
            == passes
        )
        assert (
            observer.metrics.value("bifrost_finalized_total", outcome="completed")
            == 1.0
        )

    def test_default_bifrost_runs_dark(self, canary_app):
        strategy = Strategy("s", (canary_phase(),))
        bifrost, execution = run_strategy(canary_app, strategy)
        assert bifrost.observer is NULL_OBSERVER
        assert execution.outcome is StrategyOutcome.COMPLETED

    def test_check_events_carry_duration(self, canary_app):
        observer = Observer(enabled=True)
        strategy = Strategy("s", (canary_phase(),))
        run_strategy(canary_app, strategy, observer=observer)
        checks = observer.events.events(kinds={ENGINE_CHECK})
        assert checks
        assert all(e.data["duration_s"] >= 0.0 for e in checks)

    def test_journal_appends_match_record_count(self, canary_app):
        from repro.bifrost.middleware import Bifrost
        from repro.traffic.users import UserPopulation
        from repro.traffic.workload import WorkloadGenerator

        observer = Observer(enabled=True)
        bifrost = Bifrost(canary_app, seed=3, durable=True, observer=observer)
        bifrost.submit(Strategy("s", (canary_phase(),)), at=1.0)
        population = UserPopulation(
            400, (UserGroup("eu", 0.6), UserGroup("na", 0.4)), seed=4
        )
        workload = WorkloadGenerator(population, entry="frontend.home", seed=5)
        bifrost.run(workload.poisson(40.0, 200.0), until=220.0)
        counts = observer.events.counts_by_kind()
        assert counts[JOURNAL_APPEND] == len(bifrost.journal.records())


class TestCheckDuration:
    def test_duration_recorded_but_not_compared(self):
        store = MetricStore()
        for t in (1.0, 2.0, 3.0):
            store.record("backend", "2.0.0", "error", t, 0.0)
        evaluator = CheckEvaluator(store)
        check = canary_phase().checks[0]
        first = evaluator.evaluate(check, now=10.0)
        second = evaluator.evaluate(check, now=10.0)
        assert isinstance(first, CheckResult)
        assert first.duration_s is not None and first.duration_s >= 0.0
        # Wall-clock durations differ between evaluations, yet results
        # compare equal — journal-rebuilt results must match originals.
        assert first == second


class TestFenrirInstrumentation:
    def make_inputs(self):
        profile = flat_profile(
            48, 1000.0, (UserGroup("eu", 0.6), UserGroup("na", 0.4))
        )
        specs = [
            ExperimentSpec(
                name=f"exp{i}",
                required_samples=600.0,
                min_duration_slots=2,
                max_duration_slots=10,
                min_traffic_fraction=0.01,
                max_traffic_fraction=0.5,
            )
            for i in range(3)
        ]
        return profile, specs

    def test_search_emits_generations_and_completion(self):
        observer = Observer(enabled=True)
        profile, specs = self.make_inputs()
        result = Fenrir(observer=observer).schedule(
            profile, specs, budget=300, seed=1
        )
        counts = observer.events.counts_by_kind()
        assert counts[FENRIR_GENERATION] >= 1
        assert counts[FENRIR_SEARCH_COMPLETED] == 1
        assert counts[FENRIR_SCHEDULE] == 1
        completed = observer.events.events(kinds={FENRIR_SEARCH_COMPLETED})[0]
        assert completed.data["fitness"] == result.fitness
        assert completed.data["evaluations_used"] == 300
        assert "calls" not in completed.data
        stats = result.search.eval_stats
        assert completed.data["stats"]["cache_hits"] == stats.cache_hits

    def test_generation_timestamps_are_evaluations_used(self):
        observer = Observer(enabled=True)
        profile, specs = self.make_inputs()
        Fenrir(observer=observer).schedule(profile, specs, budget=300, seed=1)
        generations = observer.events.events(kinds={FENRIR_GENERATION})
        times = [e.time for e in generations]
        assert times == sorted(times)
        assert times[-1] <= 300.0
        first = generations[0].data
        assert first["offspring"] >= first["accepted"] >= 0

    def test_observer_does_not_change_search_outcome(self):
        profile, specs = self.make_inputs()
        dark = Fenrir().schedule(profile, specs, budget=300, seed=1)
        lit = Fenrir(observer=Observer(enabled=True)).schedule(
            profile, specs, budget=300, seed=1
        )
        assert lit.fitness == dark.fitness
        assert lit.schedule.genes == dark.schedule.genes

    def test_cache_metrics_bridged_from_eval_stats(self):
        # Only the full-evaluation counter is bridged; the cache and delta
        # counters always read 0 and are not published.
        observer = Observer(enabled=True)
        profile, specs = self.make_inputs()
        result = Fenrir(observer=observer).schedule(
            profile, specs, budget=300, seed=1
        )
        assert (
            observer.metrics.value("fenrir_full_evals_total", algorithm="genetic")
            == result.search.eval_stats.full_evals
            == 300
        )
        for gone in (
            "fenrir_delta_evals_total", "fenrir_cache_hits_total", "fenrir_cache_hit_rate"
        ):
            assert observer.metrics.value(gone, algorithm="genetic") is None


class TestTopologyInstrumentation:
    def test_live_health_emits_events_and_timings(self, canary_app):
        from repro.bifrost.middleware import Bifrost
        from repro.traffic.users import UserPopulation
        from repro.traffic.workload import WorkloadGenerator

        observer = Observer(enabled=True)
        bifrost = Bifrost(canary_app, seed=3, observer=observer)
        population = UserPopulation(
            200, (UserGroup("eu", 0.6), UserGroup("na", 0.4)), seed=4
        )
        workload = WorkloadGenerator(population, entry="frontend.home", seed=5)
        bifrost.run(workload.poisson(30.0, 30.0), until=31.0)
        monitor = bifrost.enable_live_health(publish_interval=5.0)
        bifrost.run(workload.poisson(30.0, 30.0), until=70.0)
        monitor.publish(70.0)
        counts = observer.events.counts_by_kind()
        assert counts[TOPOLOGY_HEALTH] == monitor.publishes
        health = observer.events.events(kinds={TOPOLOGY_HEALTH})[-1]
        assert 0.0 <= health.data["overall"] <= 1.0
        samples = {s.name for s in observer.metrics.collect()}
        assert "topology_fold_seconds_count" in samples
        assert "topology_diff_seconds_count" in samples
        assert "topology_rank_seconds_count" in samples
        assert (
            observer.metrics.value("topology_health_overall")
            == monitor.last_report.overall
        )

    def test_column_fold_is_timed_once_per_segment(self, canary_app):
        """On the columnar slice ``topology_fold_seconds`` observes one fold
        segment: the rows of a sub-block up to each health publish, and
        the rest — not one trace."""
        from repro.bifrost.middleware import Bifrost
        from repro.traffic.batch import BatchWorkloadGenerator
        from repro.traffic.users import UserPopulation

        observer = Observer(enabled=True)
        bifrost = Bifrost(canary_app, seed=3, observer=observer)
        monitor = bifrost.enable_live_health(publish_interval=5.0)
        builder = bifrost.streaming_builder
        on_columns, segments = builder.on_columns, []

        def counted(keys, rows, hops, starts, ends, ranks):
            before = monitor.publishes
            on_columns(keys, rows, hops, starts, ends, ranks)
            tail = monitor._last_publish != ends[-1].item()
            segments.append(monitor.publishes - before + tail)

        bifrost.collector._column_subscribers = [counted]
        population = UserPopulation(
            200, (UserGroup("eu", 0.6), UserGroup("na", 0.4)), seed=4
        )
        workload = BatchWorkloadGenerator(population, entry="frontend.home", seed=5)
        bifrost.run_batches(workload.poisson(30.0, 30.0), until=31.0)
        assert segments and len(bifrost.collector) == 0
        assert monitor.publishes > 1
        [folds] = [
            sample.value
            for sample in observer.metrics.collect()
            if sample.name == "topology_fold_seconds_count"
        ]
        assert folds == sum(segments) < builder.trace_count

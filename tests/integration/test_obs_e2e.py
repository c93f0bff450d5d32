"""End-to-end glass-box observability: the acceptance scenario.

The claim under test: the event log alone carries enough to reconstruct
an experiment's full history.  A durable canary is driven through the
full middleware stack — including two mid-phase engine crashes — with an
observer attached; the timeline rebuilt purely from events must equal
the engine's own execution record field by field, the streaming JSONL
sink must capture a lossless copy, and the exposition/panel renderings
must reflect what actually happened.
"""

import io

from repro.bifrost.journal import SnapshotPolicy
from repro.bifrost.middleware import Bifrost
from repro.bifrost.model import StrategyOutcome
from repro.microservices.faults import EngineCrash, FaultCampaign, FaultInjector
from repro.obs.dashboard import glass_box_panel
from repro.obs.events import (
    ENGINE_CHECK,
    JOURNAL_APPEND,
    RECOVERY_CRASH,
    RECOVERY_REPLAYED,
    RECOVERY_RESTART,
    load_jsonl,
)
from repro.obs.exporters import JsonlEventSink, render_prometheus
from repro.obs.observer import Observer
from repro.obs.timeline import diff_timeline_execution, reconstruct_timelines, render_ascii
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator
from tests.integration.test_durability_e2e import build_app, canary_strategy

SEED = 31


def run_observed(crash_windows, sink_buffer=None):
    """The durable canary with an observer (and optional JSONL sink)."""
    app = build_app()
    observer = Observer(enabled=True)
    if sink_buffer is not None:
        JsonlEventSink(sink_buffer).attach(observer.events)
    bifrost = Bifrost(
        app,
        seed=SEED,
        durable=True,
        snapshot_policy=SnapshotPolicy(every_records=5, compact=True),
        observer=observer,
    )
    if crash_windows:
        campaign = FaultCampaign(FaultInjector(app))
        for start, end in crash_windows:
            campaign.add(EngineCrash(start, end))
        bifrost.install_campaign(campaign)
    bifrost.submit(canary_strategy(), at=1.0)
    population = UserPopulation(300, DEFAULT_GROUPS, seed=SEED + 1)
    workload = WorkloadGenerator(population, entry="frontend.index", seed=SEED + 2)
    bifrost.run(workload.poisson(15.0, 160.0), until=260.0)
    return bifrost, observer


class TestTimelineEqualsEngineRecord:
    def test_crash_free_run(self):
        bifrost, observer = run_observed([])
        execution = bifrost.engine.executions[0]
        assert execution.outcome is StrategyOutcome.COMPLETED
        timeline = reconstruct_timelines(observer.events)["catalog-canary"]
        assert diff_timeline_execution(timeline, execution) == []

    def test_two_crash_run_reconstructs_identically(self):
        bifrost, observer = run_observed([(30.0, 45.0), (70.0, 85.0)])
        execution = bifrost.engine.executions[0]
        assert execution.outcome is StrategyOutcome.COMPLETED
        assert bifrost.supervisor.restarts == 2
        timeline = reconstruct_timelines(observer.events)["catalog-canary"]
        assert diff_timeline_execution(timeline, execution) == []
        live = observer.provenance.graph().strategy("catalog-canary")
        assert diff_timeline_execution(live, execution) == []

    def test_crashed_and_crash_free_timelines_agree(self):
        # Recovery replays the journal without re-emitting: the event
        # stream of a crashed run must describe the same experiment
        # history as the baseline's, with recovery events interleaved.
        _, obs_base = run_observed([])
        _, obs_crash = run_observed([(30.0, 45.0), (70.0, 85.0)])
        base = reconstruct_timelines(obs_base.events)["catalog-canary"]
        crash = reconstruct_timelines(obs_crash.events)["catalog-canary"]
        assert [s.name for s in base.phases] == [s.name for s in crash.phases]
        assert base.transitions == crash.transitions
        assert base.outcome == crash.outcome
        assert base.finished_at == crash.finished_at
        check_key = [(p.time, p.outcome) for p in base.evidence.values()]
        assert check_key == [(p.time, p.outcome) for p in crash.evidence.values()]

    def test_recovery_events_present_with_original_timestamps(self):
        _, observer = run_observed([(30.0, 45.0), (70.0, 85.0)])
        counts = observer.events.counts_by_kind()
        assert counts[RECOVERY_CRASH] == 2
        assert counts[RECOVERY_RESTART] == 2
        assert counts[RECOVERY_REPLAYED] == 2
        crashes = observer.events.events(kinds={RECOVERY_CRASH})
        assert [e.time for e in crashes] == [30.0, 70.0]
        # Check events emitted before and after each outage keep their
        # simulated-clock timestamps in one monotonic stream.
        checks = [e.time for e in observer.events.events(kinds={ENGINE_CHECK})]
        assert checks == sorted(checks)


class TestExportsAndRenderings:
    def test_jsonl_sink_is_lossless(self):
        buffer = io.StringIO()
        bifrost, observer = run_observed(
            [(30.0, 45.0), (70.0, 85.0)], sink_buffer=buffer
        )
        exported = load_jsonl(buffer.getvalue().splitlines())
        assert len(exported) == observer.events.appended
        assert exported == list(observer.events)  # nothing dropped here
        rebuilt = reconstruct_timelines(exported)["catalog-canary"]
        execution = bifrost.engine.executions[0]
        assert diff_timeline_execution(rebuilt, execution) == []

    def test_prometheus_exposition_reflects_run(self):
        bifrost, observer = run_observed([(30.0, 45.0), (70.0, 85.0)])
        text = render_prometheus(observer.metrics, bifrost.store)
        assert "repro_engine_crashes_total 2" in text
        assert "repro_engine_restarts_total 2" in text
        checks = len(bifrost.engine.executions[0].check_log)
        assert f'repro_bifrost_checks_total{{outcome="pass"}} {checks}' in text
        assert "repro_store_samples" in text

    def test_journal_events_match_journal(self):
        bifrost, observer = run_observed([(30.0, 45.0), (70.0, 85.0)])
        appended = observer.events.events(kinds={JOURNAL_APPEND})
        # Compaction trims old records, but LSNs are assigned once per
        # append — the event stream must cover every one of them.
        assert len(appended) == bifrost.journal.last_lsn
        lsns = [e.data["lsn"] for e in appended]
        assert lsns == sorted(lsns)
        retained = {r.lsn for r in bifrost.journal.records()}
        assert retained <= set(lsns)

    def test_panel_and_ascii_render_the_story(self):
        bifrost, observer = run_observed([(30.0, 45.0), (70.0, 85.0)])
        timeline = reconstruct_timelines(observer.events)["catalog-canary"]
        ascii_art = render_ascii(timeline)
        assert "catalog-canary — completed" in ascii_art
        assert "promoted: 2.0.0" in ascii_art
        panel = glass_box_panel(observer, bifrost.store)
        assert "glass box" in panel
        assert "recovery.crash" in panel
        assert "catalog-canary" in panel

"""End-to-end decision provenance and burn-rate alerting (PR 10).

The acceptance scenario: a seeded faulty canary rolls back, and one
:func:`render_decision_report` call names the exact failing evidence
record and the fault that was active at decision time.  Plus the two
alerting integrations: ``kind slo`` DSL checks gating on a burn-rate
rule's published stream, and the fleet shedding a burning experiment
before its deadline.
"""

import pytest

from repro.bifrost.dsl import parse_strategy, strategy_to_dsl
from repro.bifrost.middleware import Bifrost
from repro.bifrost.model import Strategy, StrategyOutcome
from repro.fleet.orchestrator import (
    OUTCOME_PROMOTED,
    OUTCOME_SHED,
    SHED_BURN,
    FleetConfig,
    FleetOrchestrator,
)
from repro.microservices.faults import ErrorBurst, FaultCampaign, FaultInjector
from repro.obs.alerts import ALERTS_VERSION, AlertRule
from repro.obs.events import DECISION_RECORDED
from repro.obs.observer import Observer
from repro.obs.provenance import build_provenance, render_decision_report
from repro.traffic.profile import UserGroup
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator

from tests.unit.test_bifrost_engine import canary_phase
from tests.unit.test_fleet_orchestrator import fast_config, make_schedule
from tests.unit.test_obs_provenance import terminal_decision

GROUPS = (UserGroup("eu", 0.6), UserGroup("na", 0.4))


def drive(bifrost: Bifrost, duration=120.0, rate=40.0, seed=3):
    population = UserPopulation(400, GROUPS, seed=seed + 1)
    workload = WorkloadGenerator(
        population, entry="frontend.home", seed=seed + 2
    )
    bifrost.run(workload.poisson(rate, duration), until=duration + 20.0)


class TestWhyDidThisCanaryRollBack:
    """The headline e2e: the report explains a seeded faulty rollback."""

    def faulty_run(self, canary_app):
        observer = Observer(enabled=True)
        bifrost = Bifrost(canary_app, seed=7, observer=observer)
        campaign = FaultCampaign(FaultInjector(canary_app))
        campaign.add(
            ErrorBurst(
                service="backend",
                version="2.0.0",
                endpoint="api",
                added_error_rate=0.8,
                start=5.0,
                end=80.0,
            )
        )
        bifrost.install_campaign(campaign)
        execution = bifrost.submit(Strategy("s", (canary_phase(),)), at=1.0)
        drive(bifrost)
        assert execution.outcome is StrategyOutcome.ROLLED_BACK
        return bifrost, observer, execution

    def test_report_names_the_failing_evidence_and_fault(self, canary_app):
        bifrost, observer, execution = self.faulty_run(canary_app)
        graph = observer.provenance.graph()
        record = graph.strategy("s")
        decision = terminal_decision(record)
        assert decision is not None and decision.action == "rollback"
        # The decision happened inside the burst window and says so.
        assert decision.faults == ("ErrorBurst:backend@2.0.0/api",)
        failing = [e for e in graph.evidence_for(decision) if e.failing]
        assert len(failing) == 1
        evidence = failing[0]
        assert evidence.check == "errors"
        assert evidence.metric == "error"
        assert evidence.observed is not None and evidence.observed > 0.05
        assert evidence.margin is not None and evidence.margin < 0
        # One call answers the question, naming that exact record.
        report = render_decision_report(graph, "s")
        assert f"!! {evidence.describe()}" in report
        assert "faults active: ErrorBurst:backend@2.0.0/api" in report
        assert "--failure--> rollback (rollback)" in report

    def test_offline_fold_matches_engine_graph(self, canary_app):
        _, observer, _ = self.faulty_run(canary_app)
        live = observer.provenance.graph()
        offline = build_provenance(observer.events)
        assert offline.digest() == live.digest()

    def test_decision_events_cover_every_transition(self, canary_app):
        _, observer, execution = self.faulty_run(canary_app)
        decisions = observer.events.events(kinds={DECISION_RECORDED})
        assert len(decisions) == len(execution.transitions)


SLO_DSL = """
strategy slo-gated
  phase canary
    type canary
    service backend
    stable 1.0.0
    experimental 2.0.0
    fraction 0.3
    duration 60
    interval 5
    check burn
      kind slo
      rule checkout
      window 20
"""


class TestSloCheckGating:
    def test_dsl_round_trips(self):
        strategy = parse_strategy(SLO_DSL)
        check = strategy.phase("canary").checks[0]
        assert check.kind == "slo"
        assert check.rule == "checkout"
        assert check.version == ALERTS_VERSION
        assert check.metric == "burn:checkout"
        assert check.aggregation == "max"
        assert check.threshold == 1.0
        text = strategy_to_dsl(strategy)
        assert "kind slo" in text and "rule checkout" in text
        assert parse_strategy(text) == strategy

    def run_with_slo(self, app, canary_error_rate: float):
        version = app.resolve("backend", "2.0.0")
        from tests.conftest import constant_endpoint

        version.endpoints["api"] = constant_endpoint(
            "api", 30.0, error_rate=canary_error_rate
        )
        observer = Observer(enabled=True)
        bifrost = Bifrost(app, seed=11, observer=observer)
        bifrost.enable_alerts(
            [
                AlertRule(
                    name="checkout",
                    service="backend",
                    version="2.0.0",
                    objective=0.95,
                    fast_window=15.0,
                    slow_window=60.0,
                    burn_threshold=2.0,
                )
            ],
            interval=5.0,
        )
        execution = bifrost.submit(parse_strategy(SLO_DSL), at=1.0)
        drive(bifrost, seed=11)
        return execution, observer

    def test_burning_canary_rolls_back_on_slo_check(self, canary_app):
        execution, observer = self.run_with_slo(canary_app, 0.3)
        assert execution.outcome is StrategyOutcome.ROLLED_BACK
        graph = observer.provenance.graph()
        decision = terminal_decision(graph.strategy("slo-gated"))
        assert decision.action == "rollback"
        # The alert fired before the decision and is linked into it.
        assert decision.alerts == ("checkout",)
        failing = [e for e in graph.evidence_for(decision) if e.failing]
        assert failing and failing[0].metric == "burn:checkout"
        assert failing[0].version == ALERTS_VERSION
        # The graph's alert timeline carries the firing span.
        assert any(span.rule == "checkout" for span in graph.alerts)

    def test_healthy_canary_promotes_through_slo_gate(self, canary_app):
        execution, _observer = self.run_with_slo(canary_app, 0.0)
        assert execution.outcome is StrategyOutcome.COMPLETED


class TestFleetBurnShedding:
    def slo_config(self, **overrides) -> FleetConfig:
        # The per-experiment error gate is parked far out of the way so
        # only the burn-rate path can cut the experiment.
        return fast_config(
            check_threshold=0.9,
            slo_objective=0.95,
            slo_fast_window_seconds=30.0,
            slo_slow_window_seconds=120.0,
            slo_burn_threshold=2.0,
            **overrides,
        )

    def test_burning_experiment_sheds_before_deadline(self):
        result = FleetOrchestrator(
            make_schedule(4),
            world={"exp1": 0.4},  # 8x burn against a 5% budget
            config=self.slo_config(),
        ).run()
        assert result.outcomes["exp1"] == OUTCOME_SHED
        assert result.sheds["exp1"] == SHED_BURN
        for name in ("exp0", "exp2", "exp3"):
            assert result.outcomes[name] == OUTCOME_PROMOTED

    def test_without_slo_objective_nothing_sheds(self):
        result = FleetOrchestrator(
            make_schedule(4),
            world={"exp1": 0.4},
            config=fast_config(check_threshold=0.9),
        ).run()
        assert result.sheds == {}
        assert result.outcomes["exp1"] == OUTCOME_PROMOTED

    def test_config_round_trips_and_tolerates_old_wals(self):
        config = self.slo_config()
        assert FleetConfig.from_dict(config.to_dict()) == config
        legacy = {
            k: v
            for k, v in fast_config().to_dict().items()
            if not k.startswith("slo_")
        }
        recovered = FleetConfig.from_dict(legacy)
        assert recovered.slo_objective is None
        with pytest.raises(Exception):
            FleetConfig(slo_objective=1.5)

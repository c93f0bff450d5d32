"""Unit tests for schedule reevaluation."""

import pytest

from repro.fenrir.genetic import GeneticAlgorithm
from repro.fenrir.local_search import LocalSearch
from repro.fenrir.reevaluation import build_reevaluation, build_reevaluation_from_fleet, reevaluate
from repro.fenrir.scheduler import Fenrir
from tests.unit.test_fenrir_model import make_spec


@pytest.fixture
def running_schedule(profile):
    specs = [
        make_spec("done", required_samples=400, earliest_start=0),
        make_spec("running", required_samples=400, earliest_start=0),
        make_spec("future", required_samples=400, earliest_start=5),
        make_spec("doomed", required_samples=400, earliest_start=5),
    ]
    result = Fenrir(GeneticAlgorithm(population_size=12)).schedule(
        profile, specs, budget=500, seed=3
    )
    return result.schedule


def gene_of(schedule, name):
    """The gene of experiment *name*."""
    return next(gene for spec, gene in schedule if spec.name == name)


def _now_between(schedule, running_name, future_name):
    """A slot where `running` is active but `future` hasn't started."""
    running = gene_of(schedule, running_name)
    return running.start + max(1, running.duration // 2)


class TestBuildReevaluation:
    def test_finished_dropped(self, running_schedule):
        done_gene = gene_of(running_schedule, "done")
        now = done_gene.end + 1
        plan = build_reevaluation(running_schedule, now_slot=now)
        names = [s.name for s in plan.problem.experiments]
        if done_gene.end <= now:
            assert "done" not in names
            assert "done" in plan.finished

    def test_canceled_dropped(self, running_schedule):
        plan = build_reevaluation(
            running_schedule, now_slot=0, canceled={"doomed"}
        )
        names = [s.name for s in plan.problem.experiments]
        assert "doomed" not in names
        assert plan.canceled == ("doomed",)

    def test_running_locked_verbatim(self, running_schedule):
        running = gene_of(running_schedule, "running")
        now = running.start + 1
        plan = build_reevaluation(running_schedule, now_slot=now)
        names = [s.name for s in plan.problem.experiments]
        if running.end > now:
            index = names.index("running")
            assert index in plan.locked
            assert plan.initial.genes[index] == running

    def test_new_experiments_added(self, running_schedule):
        new = [make_spec("fresh", required_samples=300)]
        plan = build_reevaluation(running_schedule, now_slot=2, new_experiments=new)
        names = [s.name for s in plan.problem.experiments]
        assert "fresh" in names
        assert plan.added == ("fresh",)

    def test_future_experiments_not_pushed_into_past(self, running_schedule):
        plan = build_reevaluation(running_schedule, now_slot=10)
        for index, spec in enumerate(plan.problem.experiments):
            if index not in plan.locked:
                assert spec.earliest_start >= 10


class TestReevaluate:
    def test_produces_valid_schedule(self, running_schedule):
        plan, result = reevaluate(
            running_schedule,
            now_slot=4,
            algorithm=GeneticAlgorithm(population_size=12),
            new_experiments=[make_spec("fresh", required_samples=300)],
            budget=500,
            seed=1,
        )
        assert result.best_evaluation.valid

    def test_locked_genes_survive_optimization(self, running_schedule):
        plan, result = reevaluate(
            running_schedule,
            now_slot=4,
            algorithm=LocalSearch(),
            budget=300,
            seed=2,
        )
        for index in plan.locked:
            assert result.best_schedule.genes[index] == plan.initial.genes[index]

    def test_warm_started_search_at_least_as_good_as_initial(self, running_schedule):
        from repro.fenrir.fitness import evaluate

        plan, result = reevaluate(
            running_schedule,
            now_slot=4,
            algorithm=LocalSearch(),
            budget=300,
            seed=3,
        )
        initial_eval = evaluate(plan.initial)
        assert result.best_evaluation.penalized >= initial_eval.penalized - 1e-9


class TestBuildReevaluationFromFleet:
    """Closing the loop with real fleet outcomes (PR 7)."""

    @pytest.fixture
    def fleet_schedule(self, profile):
        specs = [
            make_spec("won", required_samples=400, earliest_start=0),
            make_spec("lost", required_samples=400, earliest_start=0),
            make_spec("shed", required_samples=400, earliest_start=0),
            make_spec("murky", required_samples=400, earliest_start=0),
            make_spec("running", required_samples=400, earliest_start=0),
            make_spec("future", required_samples=400, earliest_start=5),
        ]
        result = Fenrir(GeneticAlgorithm(population_size=12)).schedule(
            profile, specs, budget=500, seed=7
        )
        return result.schedule

    def test_decided_outcomes_drop_out(self, fleet_schedule):
        plan = build_reevaluation_from_fleet(
            fleet_schedule,
            now_slot=4,
            outcomes={
                "won": "promoted",
                "lost": "rolled_back",
                "shed": "shed",
                "murky": "inconclusive",
            },
        )
        names = [s.name for s in plan.problem.experiments]
        assert "won" not in names
        assert "lost" not in names
        assert sorted(plan.finished) == ["lost", "won"]

    def test_undecided_outcomes_revived_from_now(self, fleet_schedule):
        now = 4
        plan = build_reevaluation_from_fleet(
            fleet_schedule,
            now_slot=now,
            outcomes={
                "won": "promoted",
                "shed": "shed",
                "murky": "inconclusive",
            },
        )
        names = [s.name for s in plan.problem.experiments]
        assert sorted(plan.revived) == ["murky", "shed"]
        for name in plan.revived:
            index = names.index(name)
            assert plan.problem.experiments[index].earliest_start >= now
            assert plan.initial.genes[index].start >= now
            # Revived experiments are re-planned, never locked.
            assert index not in plan.locked

    def test_absent_running_locked_absent_future_replanned(self, fleet_schedule):
        running = gene_of(fleet_schedule, "running")
        now = running.start + 1
        plan = build_reevaluation_from_fleet(
            fleet_schedule, now_slot=now, outcomes={"won": "promoted"}
        )
        names = [s.name for s in plan.problem.experiments]
        if running.end > now:
            index = names.index("running")
            assert index in plan.locked
            assert plan.initial.genes[index] == running
        future_index = names.index("future")
        assert future_index not in plan.locked
        assert plan.initial.genes[future_index].start >= now

    def test_unknown_experiment_rejected(self, fleet_schedule):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            build_reevaluation_from_fleet(
                fleet_schedule, now_slot=1, outcomes={"ghost": "promoted"}
            )

    def test_unknown_outcome_rejected(self, fleet_schedule):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            build_reevaluation_from_fleet(
                fleet_schedule, now_slot=1, outcomes={"won": "exploded"}
            )

    def test_new_experiments_get_genes(self, fleet_schedule):
        plan = build_reevaluation_from_fleet(
            fleet_schedule,
            now_slot=2,
            outcomes={"won": "promoted"},
            new_experiments=[make_spec("fresh", required_samples=300)],
        )
        names = [s.name for s in plan.problem.experiments]
        assert "fresh" in names
        assert len(plan.initial.genes) == len(names)

    def test_feeds_reoptimization(self, fleet_schedule):
        plan = build_reevaluation_from_fleet(
            fleet_schedule,
            now_slot=3,
            outcomes={"won": "promoted", "shed": "shed"},
        )
        result = LocalSearch().optimize(
            plan.problem,
            budget=300,
            seed=5,
            initial=plan.initial,
            locked=plan.locked,
        )
        assert result.best_evaluation is not None
        for index in plan.locked:
            assert result.best_schedule.genes[index] == plan.initial.genes[index]

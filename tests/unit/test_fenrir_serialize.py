"""Unit tests for schedule serialization."""

import dataclasses
import json

import pytest

from repro.errors import ValidationError
from repro.fenrir.fitness import evaluate
from repro.fenrir.generator import random_experiments
from repro.fenrir.genetic import GeneticAlgorithm
from repro.fenrir.model import ExperimentSpec, SchedulingProblem
from repro.fenrir.schedule import Gene, Schedule
from repro.fenrir.scheduler import Fenrir
from repro.fenrir.serialize import (
    problem_from_dict,
    problem_to_dict,
    schedule_from_dict,
    schedule_to_dict,
)
from repro.traffic.profile import TrafficProfile, UserGroup, diurnal_profile


@pytest.fixture(scope="module")
def solved():
    profile = diurnal_profile(days=3, seed=5)
    experiments = random_experiments(profile, 5, seed=6)
    return Fenrir(GeneticAlgorithm(population_size=12)).schedule(
        profile, experiments, budget=400, seed=1
    )


class TestProblemRoundTrip:
    def test_round_trip_preserves_structure(self, solved):
        rebuilt = problem_from_dict(problem_to_dict(solved.problem))
        assert rebuilt.horizon == solved.problem.horizon
        assert [s.name for s in rebuilt.experiments] == [
            s.name for s in solved.problem.experiments
        ]
        assert rebuilt.profile.volumes() == solved.problem.profile.volumes()

    def test_malformed_document_rejected(self):
        with pytest.raises(ValidationError):
            problem_from_dict({"experiments": []})


class TestScheduleRoundTrip:
    def test_round_trip_preserves_genes(self, solved):
        rebuilt = schedule_from_dict(schedule_to_dict(solved.schedule))
        assert rebuilt.genes == solved.schedule.genes

    def test_round_trip_preserves_fitness(self, solved):
        rebuilt = schedule_from_dict(schedule_to_dict(solved.schedule))
        assert evaluate(rebuilt).fitness == pytest.approx(
            evaluate(solved.schedule).fitness
        )

    def test_json_round_trip(self, solved):
        rebuilt = schedule_from_dict(json.loads(json.dumps(schedule_to_dict(solved.schedule))))
        assert rebuilt.genes == solved.schedule.genes

    def test_gene_order_independent(self, solved):
        document = schedule_to_dict(solved.schedule)
        document["genes"] = list(reversed(document["genes"]))
        rebuilt = schedule_from_dict(document)
        assert rebuilt.genes == solved.schedule.genes

    def test_missing_gene_rejected(self, solved):
        document = schedule_to_dict(solved.schedule)
        document["genes"] = document["genes"][:-1]
        with pytest.raises(ValidationError):
            schedule_from_dict(document)


def _nondefault_spec() -> ExperimentSpec:
    """A spec where every field differs from its dataclass default, so a
    dropped field cannot hide behind a default value on the way back."""
    return ExperimentSpec(
        name="drift-guard",
        required_samples=1234,
        min_duration_slots=2,
        max_duration_slots=9,
        min_traffic_fraction=0.15,
        max_traffic_fraction=0.85,
        preferred_groups=frozenset({"eu", "beta"}),
        earliest_start=3,
        weight=2.5,
    )


def _nondefault_schedule() -> Schedule:
    profile = TrafficProfile(
        [100.0, 200.0, 300.0, 400.0],
        [UserGroup("eu", 0.7), UserGroup("beta", 0.3)],
        slot_duration_hours=0.5,
    )
    problem = SchedulingProblem(profile, [_nondefault_spec()])
    gene = Gene(start=1, duration=2, fraction=0.4, groups=frozenset({"eu"}))
    return Schedule(problem, [gene])


class TestLosslessRoundTrip:
    """Field-exhaustive drift guards: the serialization-drift class of
    bug the journal schema must also guard against — a field added to a
    dataclass but forgotten in its (de)serializer."""

    def test_every_experiment_spec_field_survives(self):
        schedule = _nondefault_schedule()
        rebuilt = schedule_from_dict(schedule_to_dict(schedule))
        original = schedule.problem.experiments[0]
        restored = rebuilt.problem.experiments[0]
        for field in dataclasses.fields(ExperimentSpec):
            assert getattr(restored, field.name) == getattr(
                original, field.name
            ), f"ExperimentSpec.{field.name} dropped in round trip"

    def test_every_gene_field_survives(self):
        schedule = _nondefault_schedule()
        rebuilt = schedule_from_dict(schedule_to_dict(schedule))
        for field in dataclasses.fields(Gene):
            assert getattr(rebuilt.genes[0], field.name) == getattr(
                schedule.genes[0], field.name
            ), f"Gene.{field.name} dropped in round trip"

    def test_profile_fields_survive(self):
        schedule = _nondefault_schedule()
        rebuilt = schedule_from_dict(schedule_to_dict(schedule))
        original = schedule.problem.profile
        restored = rebuilt.problem.profile
        assert restored.volumes() == original.volumes()
        assert restored.slot_duration_hours == original.slot_duration_hours
        assert restored.groups == original.groups

    def test_document_mentions_every_spec_field(self):
        document = schedule_to_dict(_nondefault_schedule())
        serialized = set(document["problem"]["experiments"][0])
        for field in dataclasses.fields(ExperimentSpec):
            assert field.name in serialized, (
                f"ExperimentSpec.{field.name} missing from serialized document"
            )

    def test_document_mentions_every_gene_field(self):
        document = schedule_to_dict(_nondefault_schedule())
        serialized = set(document["genes"][0])
        for field in dataclasses.fields(Gene):
            key = "experiment" if field.name == "name" else field.name
            assert key in serialized, (
                f"Gene.{field.name} missing from serialized document"
            )

    def test_json_round_trip_is_exact(self):
        schedule = _nondefault_schedule()
        text = json.dumps(schedule_to_dict(schedule))
        assert schedule_to_dict(schedule_from_dict(json.loads(text))) == json.loads(text)

"""Integration tests for the adversarial scenario fuzzer.

The acceptance bar from the issue: the fuzzer must *rediscover* a seeded
known-bad configuration — a health-gate threshold loose enough to
promote a ground-truth-regressing variant — shrink it, and round-trip it
through the regression-corpus pipeline deterministically.
"""

import dataclasses

import pytest

from repro.obs.observer import Observer
from repro.scenarios.corpus import load_corpus, load_entry, save_entry
from repro.scenarios.fuzzer import ARCHETYPES_BY_NAME, ScenarioFuzzer, shrink_violation
from repro.scenarios.invariants import check_invariant
from repro.scenarios.spec import ScenarioSpec

FUZZ_SEED = 2026


@pytest.fixture(scope="module")
def loose_gate_report():
    fuzzer = ScenarioFuzzer(seed=FUZZ_SEED, archetypes=["loose_gate"])
    return fuzzer.run(3)


class TestKnownBadRediscovery:
    def test_finds_promotion_truth_violation(self, loose_gate_report):
        names = {v.invariant for v in loose_gate_report.violations}
        assert "promotion_truth" in names

    def test_violation_is_a_loose_gate(self, loose_gate_report):
        violation = next(
            v
            for v in loose_gate_report.violations
            if v.invariant == "promotion_truth"
        )
        experiment = violation.spec.experiment
        # The rediscovered misconfiguration: gate threshold above the
        # variant's true degradation, so the check can never fire.
        assert experiment.check_threshold > experiment.true_error_delta
        assert experiment.true_error_delta > 0.05

    def test_report_accounting(self, loose_gate_report):
        assert loose_gate_report.iterations == 3
        assert loose_gate_report.checks >= 3
        assert loose_gate_report.by_invariant().get("promotion_truth", 0) >= 1
        assert "promotion_truth" in loose_gate_report.describe()


class TestShrinking:
    def test_shrunk_spec_still_violates(self, loose_gate_report):
        violation = loose_gate_report.violations[0]
        assert check_invariant(violation.invariant, violation.spec) is not None

    def test_shrinking_simplifies_the_spec(self):
        fuzzer = ScenarioFuzzer(seed=FUZZ_SEED, archetypes=["loose_gate"])
        archetype = ARCHETYPES_BY_NAME["loose_gate"]
        found = None
        for index in range(6):
            spec = archetype.sample(fuzzer._rng, index)
            found = check_invariant("promotion_truth", spec)
            if found:
                break
        assert found is not None
        shrunk = shrink_violation(found, budget=32)
        assert len(shrunk.spec.services) <= len(found.spec.services)
        assert len(shrunk.spec.faults) <= len(found.spec.faults)
        assert shrunk.spec.run_until <= found.spec.run_until
        assert check_invariant("promotion_truth", shrunk.spec) is not None

    def test_shrink_budget_limits_rechecks(self, loose_gate_report):
        violation = loose_gate_report.violations[0]
        # Budget 0 means no candidate is ever evaluated.
        untouched = shrink_violation(violation, budget=0)
        assert untouched.spec == violation.spec


class TestCorpusPipeline:
    def test_save_load_replay_round_trip(self, tmp_path, loose_gate_report):
        violation = loose_gate_report.violations[0]
        path = save_entry(tmp_path, violation)
        entry = load_entry(path)
        assert entry.spec == violation.spec
        assert entry.digest == violation.digest
        replayed = entry.replay()
        assert replayed.digest == violation.digest

    def test_load_corpus_orders_by_name(self, tmp_path, loose_gate_report):
        for violation in loose_gate_report.violations[:2]:
            save_entry(tmp_path, violation)
        entries = load_corpus(tmp_path)
        assert len(entries) >= 1
        assert [p.name for p, _ in entries] == sorted(p.name for p, _ in entries)

    def test_missing_directory_is_empty(self, tmp_path):
        assert load_corpus(tmp_path / "nope") == []

    def test_stale_digest_fails_replay(self, tmp_path, loose_gate_report):
        violation = loose_gate_report.violations[0]
        path = save_entry(tmp_path, violation)
        entry = load_entry(path)
        stale = dataclasses.replace(entry, digest=("bogus",))
        with pytest.raises(AssertionError):
            stale.replay()


class TestFuzzerPlumbing:
    def test_unknown_archetype_rejected(self):
        with pytest.raises(KeyError):
            ScenarioFuzzer(archetypes=["meteor_strike"])

    def test_unknown_invariant_rejected(self):
        spec = ScenarioFuzzer(seed=1).sample(0)[1]
        with pytest.raises(KeyError):
            check_invariant("vibes", spec)

    def test_observer_sees_the_campaign(self):
        observer = Observer()
        fuzzer = ScenarioFuzzer(
            seed=FUZZ_SEED, archetypes=["loose_gate"], observer=observer
        )
        fuzzer.run(1)
        kinds = {event.kind for event in observer.events.events()}
        assert "scenario.fuzz_case" in kinds
        assert "scenario.run_started" in kinds
        assert "scenario.fuzz_finished" in kinds
        # This seed finds a violation on the first scenario.
        assert "scenario.violation_found" in kinds

    def test_specs_are_serializable_scenariospecs(self):
        _, spec = ScenarioFuzzer(seed=9).sample(3)
        assert isinstance(spec, ScenarioSpec)
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

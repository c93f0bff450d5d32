"""Unit tests for the Bifrost live-testing model and state machine."""

import pytest

from repro.errors import ConfigurationError, DSLError
from repro.bifrost.model import (
    Check,
    Phase,
    PhaseType,
    Strategy,
)
from repro.bifrost.state_machine import StateMachine


def make_check(name="c", **kwargs) -> Check:
    defaults = dict(
        name=name,
        service="svc",
        version="2.0.0",
        metric="response_time",
        threshold=100.0,
    )
    defaults.update(kwargs)
    return Check(**defaults)


def make_phase(name="p1", **kwargs) -> Phase:
    defaults = dict(
        name=name,
        type=PhaseType.CANARY,
        service="svc",
        stable_version="1.0.0",
        experimental_version="2.0.0",
        fraction=0.1,
    )
    defaults.update(kwargs)
    return Phase(**defaults)


class TestCheck:
    def test_threshold_check(self):
        check = make_check()
        assert not check.is_relative

    def test_relative_check(self):
        check = make_check(threshold=None, baseline_version="1.0.0", tolerance=1.2)
        assert check.is_relative

    def test_exactly_one_reference_required(self):
        with pytest.raises(ConfigurationError):
            make_check(baseline_version="1.0.0")  # both set
        with pytest.raises(ConfigurationError):
            make_check(threshold=None)  # neither set

    def test_operator_validation(self):
        with pytest.raises(ConfigurationError):
            make_check(operator="==")

    @pytest.mark.parametrize(
        "operator,observed,reference,expected",
        [
            ("<", 1.0, 2.0, True),
            ("<", 2.0, 2.0, False),
            ("<=", 2.0, 2.0, True),
            (">", 3.0, 2.0, True),
            (">=", 2.0, 2.0, True),
        ],
    )
    def test_compare(self, operator, observed, reference, expected):
        check = make_check(operator=operator)
        assert check.compare(observed, reference) is expected

    def test_health_kind_normalizes_address(self):
        check = make_check(kind="health", metric="ignored", version="9.9.9")
        assert check.kind == "health"
        # Health checks always read (service, "live", "health.score").
        assert check.version == "live"
        assert check.metric == "health.score"

    def test_health_kind_requires_threshold(self):
        with pytest.raises(ConfigurationError):
            make_check(
                kind="health", threshold=None,
                baseline_version="1.0.0", tolerance=1.1,
            )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            make_check(kind="vibes")

    def test_serialization_round_trips_kind(self):
        from repro.bifrost.model import check_from_dict, check_to_dict

        check = make_check(kind="health", threshold=0.9, operator=">=")
        data = check_to_dict(check)
        assert data["kind"] == "health"
        assert check_from_dict(data) == check
        # Journals written before kinds existed default to metric checks.
        legacy = check_to_dict(make_check())
        del legacy["kind"]
        assert check_from_dict(legacy).kind == "metric"

    def test_window_positive(self):
        with pytest.raises(ConfigurationError):
            make_check(window_seconds=0.0)


class TestPhase:
    def test_ab_needs_second_version(self):
        with pytest.raises(ConfigurationError):
            make_phase(type=PhaseType.AB_TEST)

    def test_rollout_needs_steps(self):
        with pytest.raises(ConfigurationError):
            make_phase(type=PhaseType.GRADUAL_ROLLOUT)

    def test_steps_bounds(self):
        with pytest.raises(ConfigurationError):
            make_phase(type=PhaseType.GRADUAL_ROLLOUT, steps=(0.5, 1.5))

    def test_canary_fraction_open_interval(self):
        with pytest.raises(ConfigurationError):
            make_phase(fraction=1.0)

    def test_valid_rollout(self):
        phase = make_phase(type=PhaseType.GRADUAL_ROLLOUT, steps=(0.25, 1.0))
        assert phase.steps == (0.25, 1.0)


class TestStrategy:
    def test_duplicate_phase_names(self):
        with pytest.raises(ConfigurationError):
            Strategy("s", (make_phase("a"), make_phase("a")))

    def test_unknown_transition_target(self):
        with pytest.raises(ConfigurationError):
            Strategy("s", (make_phase("a", on_success="ghost"),))

    def test_entry_is_first_phase(self):
        strategy = Strategy(
            "s",
            (make_phase("a", on_success="b"), make_phase("b")),
        )
        assert strategy.entry.name == "a"

    def test_phase_lookup(self):
        strategy = Strategy("s", (make_phase("a"),))
        assert strategy.phase("a").name == "a"
        with pytest.raises(ConfigurationError):
            strategy.phase("z")

    def test_services_collected(self):
        strategy = Strategy(
            "s",
            (
                make_phase("a", service="x", on_success="b"),
                make_phase("b", service="y"),
            ),
        )
        assert strategy.services == frozenset({"x", "y"})


class TestStateMachine:
    def test_states_include_terminals(self):
        machine = StateMachine(Strategy("s", (make_phase("a"),)))
        for name in ("a", "complete", "rollback", "abort"):
            assert machine.state(name).name == name
        assert machine.state("complete").terminal and not machine.state("a").terminal

    def test_next_state(self):
        strategy = Strategy(
            "s", (make_phase("a", on_success="b"), make_phase("b"))
        )
        machine = StateMachine(strategy)
        assert machine.next_state("a", "success") == "b"
        assert machine.next_state("a", "failure") == "rollback"

    def test_repeat_resolves_to_self(self):
        machine = StateMachine(Strategy("s", (make_phase("a"),)))
        assert machine.next_state("a", "inconclusive") == "a"

    def test_unreachable_phase_rejected(self):
        with pytest.raises(DSLError):
            StateMachine(
                Strategy(
                    "s",
                    (
                        make_phase("a"),  # success -> complete, never to b
                        make_phase("b"),
                    ),
                )
            )

    def test_to_dot_mentions_all_states(self):
        strategy = Strategy(
            "s", (make_phase("a", on_success="b"), make_phase("b"))
        )
        dot = StateMachine(strategy).to_dot()
        for name in ("a", "b", "complete", "rollback"):
            assert name in dot

    def test_unknown_state_lookup(self):
        machine = StateMachine(Strategy("s", (make_phase("a"),)))
        with pytest.raises(DSLError):
            machine.state("ghost")

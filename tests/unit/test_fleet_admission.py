"""Unit tests for the per-slot admission controller."""

import pytest

from repro.errors import ValidationError
from repro.fleet.admission import (
    SHED_DEADLINE,
    SHED_STARVED,
    AdmissionController,
    AdmissionRequest,
    usage_within_budget,
)


def req(name, fraction=0.3, groups=("all",), **kwargs):
    return AdmissionRequest(name=name, fraction=fraction, groups=groups, **kwargs)


class TestRequestValidation:
    def test_fraction_bounds(self):
        with pytest.raises(ValidationError):
            req("a", fraction=0.0)
        with pytest.raises(ValidationError):
            req("a", fraction=1.5)

    def test_groups_required(self):
        with pytest.raises(ValidationError):
            req("a", groups=())

    def test_controller_validation(self):
        with pytest.raises(ValidationError):
            AdmissionController(())
        with pytest.raises(ValidationError):
            AdmissionController(("all",), budget=0.0)
        with pytest.raises(ValidationError):
            AdmissionController(("all",), max_defer=-1)

    def test_unknown_group_rejected(self):
        controller = AdmissionController(("all",))
        with pytest.raises(ValidationError):
            controller.decide(0, [req("a", groups=("ghost",))])


class TestDecide:
    def test_admits_within_budget(self):
        controller = AdmissionController(("all",))
        decision = controller.decide(0, [req("a", 0.4), req("b", 0.4)])
        assert decision.admitted == ("a", "b")
        assert decision.queued == ()
        assert decision.shed == ()
        assert dict(decision.usage)["all"] == pytest.approx(0.8)

    def test_queues_when_over_budget(self):
        controller = AdmissionController(("all",))
        decision = controller.decide(0, [req("a", 0.7), req("b", 0.7)])
        assert decision.admitted == ("a",)
        assert decision.queued == ("b",)
        assert usage_within_budget(dict(decision.usage))

    def test_weight_wins_then_name_breaks_ties(self):
        controller = AdmissionController(("all",))
        decision = controller.decide(
            0, [req("z", 0.7, weight=2.0), req("a", 0.7, weight=1.0)]
        )
        assert decision.admitted == ("z",)
        decision = controller.decide(0, [req("z", 0.7), req("a", 0.7)])
        assert decision.admitted == ("a",)

    def test_reserved_holders_count_against_budget(self):
        controller = AdmissionController(("all",))
        decision = controller.decide(
            3, [req("new", 0.5)], reserved=[req("old", 0.6)]
        )
        assert decision.admitted == ()
        assert decision.queued == ("new",)
        assert dict(decision.usage)["all"] == pytest.approx(0.6)

    def test_group_budgets_are_independent(self):
        controller = AdmissionController(("eu", "na"))
        decision = controller.decide(
            0, [req("a", 0.8, groups=("eu",)), req("b", 0.8, groups=("na",))]
        )
        assert decision.admitted == ("a", "b")

    def test_multi_group_request_must_fit_everywhere(self):
        controller = AdmissionController(("eu", "na"))
        decision = controller.decide(
            0,
            [req("a", 0.8, groups=("eu",), weight=2.0),
             req("b", 0.3, groups=("eu", "na"))],
        )
        # b fits in na but not in eu after a: it must queue.
        assert decision.admitted == ("a",)
        assert decision.queued == ("b",)

    def test_deadline_shed(self):
        controller = AdmissionController(("all",))
        decision = controller.decide(5, [req("late", latest_start=4)])
        assert decision.shed == (("late", SHED_DEADLINE),)
        assert decision.admitted == ()

    def test_starvation_shed(self):
        controller = AdmissionController(("all",), max_defer=2)
        decision = controller.decide(0, [req("hungry", deferrals=2)])
        assert decision.shed == (("hungry", SHED_STARVED),)

    def test_paused_queues_everything_but_still_sheds(self):
        controller = AdmissionController(("all",), max_defer=2)
        decision = controller.decide(
            3,
            [req("ok", 0.1), req("late", latest_start=2), req("hungry", deferrals=2)],
            paused=True,
        )
        assert decision.admitted == ()
        assert decision.queued == ("ok",)
        assert set(decision.shed) == {
            ("late", SHED_DEADLINE), ("hungry", SHED_STARVED),
        }

    def test_exact_budget_fit_admitted(self):
        controller = AdmissionController(("all",))
        decision = controller.decide(0, [req("a", 0.5), req("b", 0.5)])
        assert decision.admitted == ("a", "b")

    def test_order_independence(self):
        controller = AdmissionController(("all",))
        requests = [req("c", 0.4), req("a", 0.5, weight=2.0), req("b", 0.3)]
        forward = controller.decide(0, requests)
        backward = controller.decide(0, list(reversed(requests)))
        assert forward == backward


class TestHelpers:
    def test_usage_within_budget(self):
        assert usage_within_budget({"all": 1.0})
        assert not usage_within_budget({"all": 1.1})
        assert usage_within_budget([("eu", 0.5), ("na", 0.9)])

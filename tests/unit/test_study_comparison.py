"""Unit tests: Table 2.5 data and its consistency with the core model."""

import pytest

from repro.bifrost.model import PhaseType
from repro.core.experiment import (
    ExperimentClass,
    ExperimentPractice,
    TYPICAL_DURATION_HOURS,
)
from repro.errors import ExecutionError
from repro.study.comparison import TABLE_2_5, comparison_for


class TestTable25:
    def test_seven_dimensions(self):
        assert len(TABLE_2_5) == 7

    def test_columns_differ_everywhere(self):
        for row in TABLE_2_5:
            assert row.regression_driven != row.business_driven

    def test_comparison_for_both_classes(self):
        regression = comparison_for(ExperimentClass.REGRESSION_DRIVEN)
        business = comparison_for(ExperimentClass.BUSINESS_DRIVEN)
        assert set(regression) == set(business)
        assert "A/B testing" in business["common_practices"]
        assert "Canary" in regression["common_practices"]

    def test_practices_consistent_with_core_model(self):
        """Every practice Table 2.5 names exists in the core enum and
        maps to the right experiment class."""
        regression_practices = comparison_for(
            ExperimentClass.REGRESSION_DRIVEN
        )["common_practices"].lower()
        for practice in (
            ExperimentPractice.CANARY_RELEASE,
            ExperimentPractice.DARK_LAUNCH,
            ExperimentPractice.GRADUAL_ROLLOUT,
        ):
            keyword = practice.value.split("_")[0].replace("canary", "canary")
            assert keyword in regression_practices
            assert practice.experiment_class is ExperimentClass.REGRESSION_DRIVEN
        assert (
            ExperimentPractice.AB_TEST.experiment_class
            is ExperimentClass.BUSINESS_DRIVEN
        )

    def test_durations_consistent_with_core_model(self):
        """'Minutes to days' vs 'weeks' matches TYPICAL_DURATION_HOURS."""
        regression = TYPICAL_DURATION_HOURS[ExperimentClass.REGRESSION_DRIVEN]
        business = TYPICAL_DURATION_HOURS[ExperimentClass.BUSINESS_DRIVEN]
        assert regression[0] < 1.0             # minutes
        assert regression[1] <= 14 * 24.0      # at most ~two weeks
        assert business[0] >= 7 * 24.0         # at least a week

    def test_phase_types_cover_practices(self):
        """Bifrost can enact every practice the study names."""
        assert {p.value for p in PhaseType} == {
            "canary", "dark_launch", "ab_test", "gradual_rollout",
        }


class TestSubmitValidation:
    def test_unknown_service_rejected_at_submit(self, canary_app):
        from repro.bifrost.middleware import Bifrost
        from tests.unit.test_bifrost_model import make_phase
        from repro.bifrost.model import Strategy

        bifrost = Bifrost(canary_app)
        ghost = Strategy("s", (make_phase(service="ghost"),))
        with pytest.raises(ExecutionError):
            bifrost.submit(ghost)

    def test_undeployed_version_rejected_at_submit(self, canary_app):
        from repro.bifrost.middleware import Bifrost
        from tests.unit.test_bifrost_model import make_phase
        from repro.bifrost.model import Strategy

        bifrost = Bifrost(canary_app)
        missing = Strategy(
            "s",
            (make_phase(service="backend", experimental_version="9.9.9"),),
        )
        with pytest.raises(ExecutionError):
            bifrost.submit(missing)

    def test_valid_strategy_still_accepted(self, canary_app):
        from repro.bifrost.middleware import Bifrost
        from tests.unit.test_bifrost_model import make_phase
        from repro.bifrost.model import Strategy

        bifrost = Bifrost(canary_app)
        fine = Strategy("s", (make_phase(service="backend"),))
        execution = bifrost.submit(fine)
        assert execution.strategy.name == "s"

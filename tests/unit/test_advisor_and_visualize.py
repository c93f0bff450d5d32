"""Unit tests for the technique advisor and the diff visualization."""

import pytest

from repro.core.advisor import (
    PlatformContext,
    Technique,
    TechniqueAdvice,
    advise_technique,
)
from repro.core.experiment import Experiment, ExperimentPractice
from repro.errors import ConfigurationError
from repro.topology.diff import diff_graphs
from repro.topology.graph import InteractionGraph, NodeKey
from repro.topology.heuristics.subtree import SubtreeComplexityHeuristic
from repro.topology.ranking import rank_changes
from repro.topology.visualize import diff_report, diff_to_dot


def make_experiment(practice=ExperimentPractice.CANARY_RELEASE) -> Experiment:
    return Experiment("e", "svc", practice)


class TestAdvisor:
    def test_dark_launch_forces_routing(self):
        advice = advise_technique(
            make_experiment(ExperimentPractice.DARK_LAUNCH),
            PlatformContext(expected_rps=1.0, instance_capacity_rps=100.0),
        )
        assert advice.technique is Technique.TRAFFIC_ROUTING
        assert "duplicate" in advice.describe()

    def test_low_load_prefers_toggle(self):
        advice = advise_technique(
            make_experiment(),
            PlatformContext(expected_rps=10.0, instance_capacity_rps=100.0),
        )
        assert advice.technique is Technique.FEATURE_TOGGLE

    def test_high_load_prefers_routing(self):
        advice = advise_technique(
            make_experiment(),
            PlatformContext(expected_rps=90.0, instance_capacity_rps=100.0),
        )
        assert advice.technique is Technique.TRAFFIC_ROUTING

    def test_high_load_without_isolation_falls_back(self):
        advice = advise_technique(
            make_experiment(),
            PlatformContext(
                expected_rps=90.0,
                instance_capacity_rps=100.0,
                isolated_deployment_available=False,
            ),
        )
        assert advice.technique is Technique.FEATURE_TOGGLE
        assert any("falling back" in r for r in advice.reasons)

    def test_toggle_budget_exhausted_prefers_routing(self):
        advice = advise_technique(
            make_experiment(),
            PlatformContext(
                expected_rps=10.0,
                instance_capacity_rps=100.0,
                active_toggles_on_service=10,
                max_toggles_per_service=10,
            ),
        )
        assert advice.technique is Technique.TRAFFIC_ROUTING
        assert any("debt" in r for r in advice.reasons)

    def test_gradual_rollout_prefers_routing(self):
        advice = advise_technique(
            make_experiment(ExperimentPractice.GRADUAL_ROLLOUT),
            PlatformContext(expected_rps=10.0, instance_capacity_rps=100.0),
        )
        assert advice.technique is Technique.TRAFFIC_ROUTING

    def test_ab_test_low_load_uses_toggle(self):
        advice = advise_technique(
            make_experiment(ExperimentPractice.AB_TEST),
            PlatformContext(expected_rps=5.0, instance_capacity_rps=100.0),
        )
        assert advice.technique is Technique.FEATURE_TOGGLE

    def test_invalid_context(self):
        with pytest.raises(ConfigurationError):
            PlatformContext(expected_rps=1.0, instance_capacity_rps=0.0)

    def test_advice_is_explainable(self):
        advice = advise_technique(
            make_experiment(),
            PlatformContext(expected_rps=10.0, instance_capacity_rps=100.0),
        )
        assert isinstance(advice, TechniqueAdvice)
        assert advice.reasons


def key(service, version="1.0.0", endpoint="ep") -> NodeKey:
    return NodeKey(service, version, endpoint)


def make_diff():
    base = InteractionGraph("base")
    base.observe_call(None, key("frontend"), 10.0, False)
    base.observe_call(key("frontend"), key("backend"), 20.0, False)
    base.observe_call(key("frontend"), key("legacy"), 5.0, False)
    experimental = InteractionGraph("exp")
    experimental.observe_call(None, key("frontend"), 10.0, False)
    experimental.observe_call(key("frontend"), key("backend", "2.0.0"), 20.0, False)
    experimental.observe_call(key("frontend"), key("newsvc"), 8.0, False)
    return diff_graphs(base, experimental)


class TestVisualization:
    def test_dot_contains_color_coding(self):
        dot = diff_to_dot(make_diff())
        assert "palegreen" in dot      # added: newsvc
        assert "lightcoral" in dot     # removed: legacy
        assert "khaki" in dot          # updated: backend
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")

    def test_dot_edges_dashed_for_removed(self):
        dot = diff_to_dot(make_diff())
        assert '"frontend/ep" -> "legacy/ep" [style=dashed];' in dot

    def test_dot_solid_for_live_edges(self):
        dot = diff_to_dot(make_diff())
        assert '"frontend/ep" -> "newsvc/ep" [style=solid];' in dot

    def test_report_markers(self):
        report = diff_report(make_diff())
        assert "[+] newsvc/ep" in report
        assert "[-] legacy/ep" in report
        assert "[~] backend/ep" in report

    def test_report_with_ranking(self):
        diff = make_diff()
        ranking = rank_changes(diff, SubtreeComplexityHeuristic())
        report = diff_report(diff, ranking, top=3)
        assert "Top-ranked changes:" in report
        assert "#1" in report

    def test_report_counts_line(self):
        report = diff_report(make_diff())
        assert "1 added, 1 removed, 1 updated" in report

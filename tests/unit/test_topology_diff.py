"""Unit tests for the topological diff and change-type classification."""

import os
import subprocess
import sys

import pytest

import repro
from repro.topology.change_types import ChangeType
from repro.topology.diff import DiffStatus, diff_graphs
from repro.topology.graph import InteractionGraph, NodeKey
from repro.topology.uncertainty import UncertaintyModel, uniform_uncertainty
from repro.errors import ConfigurationError


def key(service, version="1.0.0", endpoint="ep") -> NodeKey:
    return NodeKey(service, version, endpoint)


def base_graph() -> InteractionGraph:
    graph = InteractionGraph("base")
    graph.observe_call(None, key("frontend"), 10.0, False)
    graph.observe_call(key("frontend"), key("backend"), 20.0, False)
    graph.observe_call(key("backend"), key("db"), 5.0, False)
    return graph


class TestNodeOverlay:
    def test_unchanged(self):
        diff = diff_graphs(base_graph(), base_graph())
        assert all(
            entry.status is DiffStatus.UNCHANGED for entry in diff.entries.values()
        )
        assert diff.changes == []

    def test_added_node(self):
        experimental = base_graph()
        experimental.observe_call(key("frontend"), key("newsvc"), 3.0, False)
        diff = diff_graphs(base_graph(), experimental)
        assert diff.entry("newsvc", "ep").status is DiffStatus.ADDED

    def test_removed_node(self):
        experimental = InteractionGraph("exp")
        experimental.observe_call(None, key("frontend"), 10.0, False)
        experimental.observe_call(key("frontend"), key("backend"), 20.0, False)
        diff = diff_graphs(base_graph(), experimental)
        assert diff.entry("db", "ep").status is DiffStatus.REMOVED

    def test_updated_node(self):
        experimental = InteractionGraph("exp")
        experimental.observe_call(None, key("frontend"), 10.0, False)
        experimental.observe_call(key("frontend"), key("backend", "2.0.0"), 20.0, False)
        experimental.observe_call(key("backend", "2.0.0"), key("db"), 5.0, False)
        diff = diff_graphs(base_graph(), experimental)
        assert diff.entry("backend", "ep").status is DiffStatus.UPDATED

    def test_summary_counts(self):
        experimental = base_graph()
        experimental.observe_call(key("frontend"), key("newsvc"), 3.0, False)
        summary = diff_graphs(base_graph(), experimental).summary()
        assert summary["added"] == 1
        assert summary["unchanged"] == 3


class TestFundamentalChangeTypes:
    def test_calling_new_endpoint(self):
        experimental = base_graph()
        experimental.observe_call(key("frontend"), key("newsvc"), 3.0, False)
        diff = diff_graphs(base_graph(), experimental)
        types = {c.type for c in diff.changes}
        assert ChangeType.CALLING_NEW_ENDPOINT in types

    def test_calling_existing_endpoint(self):
        experimental = base_graph()
        # frontend now also calls db directly (db already existed).
        experimental.observe_call(key("frontend"), key("db"), 5.0, False)
        diff = diff_graphs(base_graph(), experimental)
        changes = [
            c for c in diff.changes
            if c.type is ChangeType.CALLING_EXISTING_ENDPOINT
        ]
        assert len(changes) == 1
        assert changes[0].callee.service == "db"

    def test_removing_service_call(self):
        experimental = InteractionGraph("exp")
        experimental.observe_call(None, key("frontend"), 10.0, False)
        experimental.observe_call(key("frontend"), key("backend"), 20.0, False)
        diff = diff_graphs(base_graph(), experimental)
        removed = [
            c for c in diff.changes if c.type is ChangeType.REMOVING_SERVICE_CALL
        ]
        assert len(removed) == 1
        assert removed[0].callee.service == "db"
        assert removed[0].removed


class TestComposedChangeTypes:
    def test_updated_callee_version(self):
        experimental = InteractionGraph("exp")
        experimental.observe_call(None, key("frontend"), 10.0, False)
        experimental.observe_call(key("frontend"), key("backend", "2.0.0"), 20.0, False)
        experimental.observe_call(key("backend", "2.0.0"), key("db"), 5.0, False)
        diff = diff_graphs(base_graph(), experimental)
        by_type = {c.type: c for c in diff.changes}
        callee_update = by_type[ChangeType.UPDATED_CALLEE_VERSION]
        assert callee_update.callee == key("backend", "2.0.0")
        # backend is also an updated *caller* towards db.
        caller_update = by_type[ChangeType.UPDATED_CALLER_VERSION]
        assert caller_update.caller == key("backend", "2.0.0")
        assert caller_update.anchor == key("backend", "2.0.0")

    def test_updated_version_both_sides(self):
        experimental = InteractionGraph("exp")
        experimental.observe_call(None, key("frontend", "2.0.0"), 10.0, False)
        experimental.observe_call(
            key("frontend", "2.0.0"), key("backend", "2.0.0"), 20.0, False
        )
        experimental.observe_call(key("backend", "2.0.0"), key("db"), 5.0, False)
        diff = diff_graphs(base_graph(), experimental)
        types = {c.type for c in diff.changes}
        assert ChangeType.UPDATED_VERSION in types

    def test_mixed_versions_during_experiment(self):
        # Both 1.0.0 and 2.0.0 of backend serve simultaneously (canary):
        # the new version must be detected regardless of edge ordering.
        experimental = base_graph()
        experimental.observe_call(key("frontend"), key("backend", "2.0.0"), 22.0, False)
        experimental.observe_call(key("backend", "2.0.0"), key("db"), 5.0, False)
        diff = diff_graphs(base_graph(), experimental)
        callee_updates = [
            c for c in diff.changes if c.type is ChangeType.UPDATED_CALLEE_VERSION
        ]
        assert any(c.callee.version == "2.0.0" for c in callee_updates)

    def test_change_identity_is_version_agnostic(self):
        experimental = InteractionGraph("exp")
        experimental.observe_call(None, key("frontend"), 10.0, False)
        experimental.observe_call(key("frontend"), key("backend", "2.0.0"), 20.0, False)
        experimental.observe_call(key("backend", "2.0.0"), key("db"), 5.0, False)
        diff = diff_graphs(base_graph(), experimental)
        identities = {c.identity for c in diff.changes}
        assert ("updated_callee_version", "frontend/ep", "backend/ep") in identities

    def test_change_order_does_not_follow_the_hash_seed(self):
        """Shared edges are visited in the experimental graph's order, so
        interpreters that hash strings differently list the same changes
        in the same order (and rank ties the same way)."""
        probe = (
            "from repro.topology.scenarios import scenario2\n"
            "for change in scenario2(degraded=True).diff().changes:\n"
            "    print(change.describe())\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        listed = [
            subprocess.run(
                [sys.executable, "-c", probe],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for seed in ("0", "1")
        ]
        assert listed[0].count("\n") > 1 and listed[0] == listed[1]


class TestUncertainty:
    def test_default_ordering(self):
        model = UncertaintyModel()
        assert model.weight(ChangeType.CALLING_NEW_ENDPOINT) > model.weight(
            ChangeType.CALLING_EXISTING_ENDPOINT
        )
        assert model.weight(ChangeType.CALLING_EXISTING_ENDPOINT) > model.weight(
            ChangeType.REMOVING_SERVICE_CALL
        )

    def test_uniform(self):
        model = uniform_uncertainty(2.0)
        assert all(model.weight(ct) == 2.0 for ct in ChangeType)

    def test_missing_weights_rejected(self):
        with pytest.raises(ConfigurationError):
            UncertaintyModel({ChangeType.CALLING_NEW_ENDPOINT: 1.0})

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            uniform_uncertainty(-1.0)

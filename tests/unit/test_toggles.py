"""Unit tests for the feature-toggle subsystem."""

import pytest

from repro.errors import ConfigurationError
from repro.microservices.runtime import Runtime
from repro.toggles.debt import assess_toggle_debt
from repro.toggles.router import ToggleRouter
from repro.toggles.store import FeatureToggle, ToggleState, ToggleStore
from tests.unit.test_microservices import make_request


class TestFeatureToggle:
    def test_disabled_by_default_fraction_zero(self):
        toggle = FeatureToggle("f", "svc")
        assert not toggle.evaluate("user1")

    def test_full_rollout_enables_everyone(self):
        toggle = FeatureToggle("f", "svc", rollout_fraction=1.0)
        assert all(toggle.evaluate(f"u{i}") for i in range(50))

    def test_sticky_per_user(self):
        toggle = FeatureToggle("f", "svc", rollout_fraction=0.5)
        first = toggle.evaluate("alice")
        assert all(toggle.evaluate("alice") == first for _ in range(10))

    def test_fraction_approximated(self):
        toggle = FeatureToggle("f", "svc", rollout_fraction=0.3)
        share = sum(toggle.evaluate(f"u{i}") for i in range(2000)) / 2000
        assert share == pytest.approx(0.3, abs=0.05)

    def test_group_override(self):
        toggle = FeatureToggle(
            "f", "svc", rollout_fraction=0.0,
            enabled_groups=frozenset({"beta"}),
        )
        assert toggle.evaluate("u1", group="beta")
        assert not toggle.evaluate("u1", group="eu")

    def test_inactive_states_disable(self):
        for state in (ToggleState.DISABLED, ToggleState.RETIRED):
            toggle = FeatureToggle("f", "svc", rollout_fraction=1.0, state=state)
            assert not toggle.evaluate("u1")

    def test_invalid_fraction(self):
        with pytest.raises(ConfigurationError):
            FeatureToggle("f", "svc", rollout_fraction=1.5)


class TestToggleStore:
    def test_register_and_lookup(self):
        store = ToggleStore()
        store.register(FeatureToggle("f", "svc", rollout_fraction=1.0))
        assert store.is_enabled("f", "u1")
        assert store.evaluations == 1

    def test_duplicate_rejected(self):
        store = ToggleStore()
        store.register(FeatureToggle("f", "svc"))
        with pytest.raises(ConfigurationError):
            store.register(FeatureToggle("f", "svc"))

    def test_active_toggles_by_service(self):
        store = ToggleStore()
        store.register(FeatureToggle("a", "svc1"))
        store.register(FeatureToggle("b", "svc2"))
        assert len(store.active_toggles("svc1")) == 1

    def test_unknown_toggle(self):
        with pytest.raises(ConfigurationError):
            ToggleStore().get("ghost")


class TestToggleStoreErrorPaths:
    """Every mutation path raises ConfigurationError consistently."""

    def test_duplicate_register_message_names_toggle(self):
        store = ToggleStore()
        store.register(FeatureToggle("dup", "svc"))
        with pytest.raises(ConfigurationError, match="dup"):
            store.register(FeatureToggle("dup", "svc"))

    def test_duplicate_register_keeps_original(self):
        store = ToggleStore()
        store.register(FeatureToggle("f", "svc", rollout_fraction=0.4))
        with pytest.raises(ConfigurationError):
            store.register(FeatureToggle("f", "svc", rollout_fraction=0.9))
        assert store.get("f").rollout_fraction == 0.4

    @pytest.mark.parametrize("fraction", [-0.01, 1.01])
    def test_constructor_out_of_range_fraction(self, fraction):
        with pytest.raises(ConfigurationError):
            FeatureToggle("f", "svc", rollout_fraction=fraction)

    def test_constructor_empty_name_or_service(self):
        with pytest.raises(ConfigurationError):
            FeatureToggle("", "svc")
        with pytest.raises(ConfigurationError):
            FeatureToggle("f", "")


class TestToggleStoreSnapshot:
    def make_store(self) -> ToggleStore:
        store = ToggleStore()
        store.register(
            FeatureToggle(
                "a", "svc1", rollout_fraction=0.3,
                enabled_groups=frozenset({"beta"}), created_at=7.0,
            )
        )
        store.register(
            FeatureToggle("b", "svc2", rollout_fraction=1.0, state=ToggleState.DISABLED)
        )
        store.is_enabled("a", "u1")
        return store

    def test_snapshot_restore_round_trip(self):
        store = self.make_store()
        restored = ToggleStore()
        restored.restore(store.snapshot())
        assert len(restored) == len(store)
        assert restored.evaluations == store.evaluations
        for toggle in store.all_toggles():
            twin = restored.get(toggle.name)
            assert twin == toggle

    def test_snapshot_is_json_compatible(self):
        import json

        dump = self.make_store().snapshot()
        assert json.loads(json.dumps(dump)) == dump

    def test_restore_replaces_existing_contents(self):
        store = self.make_store()
        restored = ToggleStore()
        restored.register(FeatureToggle("stale", "svc"))
        restored.restore(store.snapshot())
        with pytest.raises(ConfigurationError):
            restored.get("stale")

    def test_restore_rejects_malformed_document(self):
        with pytest.raises(ConfigurationError):
            ToggleStore().restore({"toggles": [{"name": "x"}], "evaluations": 0})

    def test_restore_rejects_invalid_fraction(self):
        dump = self.make_store().snapshot()
        dump["toggles"][0]["rollout_fraction"] = 3.0
        with pytest.raises(ConfigurationError):
            ToggleStore().restore(dump)


class TestToggleRouter:
    def test_routes_enabled_users_to_experimental(self, canary_app):
        router = ToggleRouter()
        router.start_experiment("backend", "2.0.0", fraction=1.0)
        decision = router.route(make_request(), "backend")
        assert decision.version == "2.0.0"
        assert decision.proxy_hops == 0  # in-process decision, no hop

    def test_disabled_users_stay_stable(self, canary_app):
        router = ToggleRouter()
        router.start_experiment("backend", "2.0.0", fraction=0.0)
        decision = router.route(make_request(), "backend")
        assert decision.version is None

    def test_untouched_service_passthrough(self):
        router = ToggleRouter()
        decision = router.route(make_request(), "frontend")
        assert decision.version is None
        assert router.store.evaluations == 0

    def test_runtime_integration(self, canary_app):
        router = ToggleRouter()
        router.start_experiment("backend", "2.0.0", fraction=1.0)
        runtime = Runtime(canary_app, router=router, seed=1)
        outcome = runtime.execute(make_request())
        # backend 2.0.0 is 30ms; no proxy overhead at all.
        assert outcome.duration_ms == pytest.approx(40.0)

    def test_double_start_rejected(self):
        router = ToggleRouter()
        router.start_experiment("backend", "2.0.0", fraction=0.5)
        with pytest.raises(ConfigurationError):
            router.start_experiment("backend", "3.0.0", fraction=0.5)


class TestToggleDebt:
    def make_store(self) -> ToggleStore:
        store = ToggleStore()
        store.register(FeatureToggle("a", "svc1", created_at=0.0))
        store.register(FeatureToggle("b", "svc1", created_at=0.0))
        store.register(FeatureToggle("c", "svc2", created_at=100.0))
        store.register(FeatureToggle("d", "svc2", state=ToggleState.DISABLED))
        return store

    def test_counts(self):
        report = assess_toggle_debt(self.make_store(), now=0.0)
        assert report.active == 3
        assert report.disabled == 1
        assert report.per_service == {"svc1": 2, "svc2": 1}

    def test_stale_detection(self):
        report = assess_toggle_debt(
            self.make_store(), now=50.0, stale_after_seconds=10.0
        )
        assert report.stale == 2  # a, b are older than 10s

    def test_state_space(self):
        report = assess_toggle_debt(self.make_store())
        assert report.state_space == 8.0

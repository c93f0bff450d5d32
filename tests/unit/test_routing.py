"""Unit tests for the traffic routing layer."""

import pytest

from repro.errors import ConfigurationError, RoutingError
from repro.routing.assignment import StickyAssigner
from repro.routing.proxy import VersionRouter
from repro.routing.rules import AudienceFilter, ExperimentRoute, Variant
from repro.routing.splitter import (
    ab_split,
    canary_split,
    dark_launch_split,
    rollout_split,
)
from tests.unit.test_microservices import make_request


class TestSplitters:
    def test_canary_split(self):
        variants = canary_split("1.0", "2.0", 0.05)
        assert variants[0] == Variant("1.0", 0.95)
        assert variants[1] == Variant("2.0", 0.05)

    def test_canary_fraction_bounds(self):
        with pytest.raises(ConfigurationError):
            canary_split("1.0", "2.0", 1.0)

    def test_ab_split_default_even(self):
        variants = ab_split("a", "b")
        assert variants[0].fraction == variants[1].fraction == 0.5

    def test_dark_launch_keeps_stable(self):
        variants = dark_launch_split("1.0")
        assert variants == (Variant("1.0", 1.0),)

    def test_rollout_extremes_degenerate(self):
        assert rollout_split("1.0", "2.0", 0.0) == (Variant("1.0", 1.0),)
        assert rollout_split("1.0", "2.0", 1.0) == (Variant("2.0", 1.0),)

    def test_rollout_midpoint(self):
        variants = rollout_split("1.0", "2.0", 0.3)
        assert variants[1] == Variant("2.0", 0.3)


class TestRules:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            ExperimentRoute("exp", "svc", (Variant("a", 0.5), Variant("b", 0.4)))

    def test_audience_matches_group(self):
        audience = AudienceFilter(groups=frozenset({"eu"}))
        assert audience.matches(make_request(group="eu"))
        assert not audience.matches(make_request(group="na"))

    def test_empty_audience_matches_all(self):
        assert AudienceFilter().matches(make_request())

    def test_route_needs_variants_or_shadow(self):
        with pytest.raises(ConfigurationError):
            ExperimentRoute("exp", "svc", ())


class TestStickyAssigner:
    def test_sticky(self):
        assigner = StickyAssigner("exp1")
        variants = ab_split("a", "b")
        first = assigner.assign("user1", variants)
        for _ in range(5):
            assert assigner.assign("user1", variants) == first

    def test_split_approximates_fractions(self):
        assigner = StickyAssigner("exp1")
        variants = canary_split("stable", "canary", 0.1)
        assignments = [
            assigner.assign(f"user{i}", variants) for i in range(2000)
        ]
        canary_share = assignments.count("canary") / 2000
        assert canary_share == pytest.approx(0.1, abs=0.03)

    def test_counts_distinct_users_once(self):
        assigner = StickyAssigner("exp1")
        variants = ab_split("a", "b")
        for _ in range(3):
            assigner.assign("u1", variants)
        assert assigner.total_distinct_users() == 1

    def test_different_salts_independent(self):
        variants = ab_split("a", "b")
        x = StickyAssigner("exp1")
        y = StickyAssigner("exp2")
        differing = sum(
            x.assign(f"u{i}", variants) != y.assign(f"u{i}", variants)
            for i in range(300)
        )
        assert differing > 75

    def test_empty_variants_rejected(self):
        with pytest.raises(ConfigurationError):
            StickyAssigner("exp").assign("u", [])


class TestVersionRouter:
    def test_unrouted_service_goes_stable(self):
        router = VersionRouter()
        decision = router.route(make_request(), "backend")
        assert decision.version is None
        assert decision.proxy_hops == 0

    def test_routed_service_costs_a_hop(self):
        router = VersionRouter()
        router.install(ExperimentRoute("exp", "backend", canary_split("1.0", "2.0", 0.2)))
        decision = router.route(make_request(), "backend")
        assert decision.proxy_hops == 1
        assert decision.version in ("1.0", "2.0")

    def test_audience_mismatch_pins_stable(self):
        router = VersionRouter()
        router.install(
            ExperimentRoute(
                "exp",
                "backend",
                canary_split("1.0", "2.0", 0.2),
                audience=AudienceFilter(groups=frozenset({"na"})),
            )
        )
        decision = router.route(make_request(group="eu"), "backend")
        assert decision.version is None
        assert decision.proxy_hops == 1

    def test_overlapping_experiments_rejected(self):
        router = VersionRouter()
        router.install(ExperimentRoute("exp1", "backend", canary_split("1.0", "2.0", 0.2)))
        with pytest.raises(RoutingError):
            router.install(
                ExperimentRoute("exp2", "backend", canary_split("1.0", "3.0", 0.2))
            )

    def test_same_experiment_may_update_route(self):
        router = VersionRouter()
        router.install(ExperimentRoute("exp1", "backend", rollout_split("1.0", "2.0", 0.2)))
        router.install(ExperimentRoute("exp1", "backend", rollout_split("1.0", "2.0", 0.5)))
        assert router.active_route("backend").variants[1].fraction == 0.5

    def test_uninstall_restores_stable(self):
        router = VersionRouter()
        router.install(ExperimentRoute("exp1", "backend", canary_split("1.0", "2.0", 0.2)))
        router.uninstall("backend")
        assert router.route(make_request(), "backend").proxy_hops == 0

    def test_shadow_versions_passed_through(self):
        router = VersionRouter()
        router.install(
            ExperimentRoute(
                "exp1", "backend", dark_launch_split("1.0"),
                shadow_versions=("2.0",),
            )
        )
        decision = router.route(make_request(), "backend")
        assert decision.shadow_versions == ("2.0",)

    def test_assigner_tracks_samples(self):
        router = VersionRouter()
        router.install(ExperimentRoute("exp1", "backend", canary_split("1.0", "2.0", 0.5)))
        for i in range(100):
            router.route(make_request(user=f"user{i}"), "backend")
        assigner = router.assigner("exp1")
        assert assigner.total_distinct_users() == 100

    def test_unknown_assigner(self):
        with pytest.raises(RoutingError):
            VersionRouter().assigner("ghost")

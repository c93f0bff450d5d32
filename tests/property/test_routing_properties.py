"""Property-based tests on routing, assignment, and toggle semantics."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.assignment import StickyAssigner
from repro.routing.rules import Variant
from repro.routing.splitter import ab_split, canary_split, rollout_split
from repro.toggles.store import FeatureToggle
from repro.traffic.users import bucket_user

_user_ids = st.from_regex(r"u[0-9a-f]{1,10}", fullmatch=True)
_salts = st.from_regex(r"[a-z]{1,8}", fullmatch=True)


class TestSplitterProperties:
    @settings(max_examples=100)
    @given(st.floats(min_value=0.001, max_value=0.999))
    def test_canary_fractions_sum_to_one(self, fraction):
        variants = canary_split("1.0", "2.0", fraction)
        assert sum(v.fraction for v in variants) == 1.0

    @settings(max_examples=100)
    @given(st.floats(min_value=0.001, max_value=0.999))
    def test_ab_fractions_sum_to_one(self, fraction):
        variants = ab_split("a", "b", fraction)
        assert sum(v.fraction for v in variants) == 1.0

    @settings(max_examples=100)
    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_rollout_fractions_sum_to_one(self, fraction):
        variants = rollout_split("1.0", "2.0", fraction)
        assert sum(v.fraction for v in variants) == 1.0


class TestAssignmentProperties:
    @settings(max_examples=60, deadline=None)
    @given(_user_ids, _salts, st.floats(min_value=0.01, max_value=0.99))
    def test_assignment_deterministic(self, user, salt, fraction):
        variants = canary_split("stable", "canary", fraction)
        a = StickyAssigner(salt).assign(user, variants)
        b = StickyAssigner(salt).assign(user, variants)
        assert a == b

    @settings(max_examples=60, deadline=None)
    @given(_user_ids, _salts)
    def test_assignment_is_one_of_variants(self, user, salt):
        variants = ab_split("a", "b", 0.3)
        assert StickyAssigner(salt).assign(user, variants) in ("a", "b")

    @settings(max_examples=30, deadline=None)
    @given(_salts, st.floats(min_value=0.05, max_value=0.95))
    def test_canary_monotone_in_fraction(self, salt, fraction):
        """Users in a small canary stay in any larger canary."""
        small = canary_split("stable", "canary", fraction / 2)
        large = canary_split("stable", "canary", fraction)
        assigner = StickyAssigner(salt)
        for i in range(100):
            user = f"user{i}"
            if assigner.assign(user, small) == "canary":
                assert assigner.assign(user, large) == "canary"

    @settings(max_examples=30, deadline=None)
    @given(_salts)
    def test_degenerate_full_variant_takes_all(self, salt):
        variants = (Variant("only", 1.0),)
        assigner = StickyAssigner(salt)
        assert all(
            assigner.assign(f"u{i}", variants) == "only" for i in range(50)
        )


class TestToggleProperties:
    @settings(max_examples=60, deadline=None)
    @given(_user_ids, _salts, st.floats(min_value=0.0, max_value=1.0))
    def test_toggle_matches_rollout_semantics(self, user, name, fraction):
        """Toggle bucketing and router bucketing share the same math."""
        toggle = FeatureToggle(name, "svc", rollout_fraction=fraction)
        assert toggle.evaluate(user) == (bucket_user(user, name, 10_000) < fraction * 10_000)

    @settings(max_examples=60, deadline=None)
    @given(_user_ids, _salts, st.floats(min_value=0.0, max_value=0.5))
    def test_toggle_monotone_in_fraction(self, user, name, fraction):
        narrow = FeatureToggle(name, "svc", rollout_fraction=fraction)
        wide = FeatureToggle(name, "svc", rollout_fraction=min(1.0, fraction * 2))
        if narrow.evaluate(user):
            assert wide.evaluate(user)

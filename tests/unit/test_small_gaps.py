"""Small-gap tests: helpers and paths not covered elsewhere."""

import pytest

from repro.bifrost.dsl import parse_strategy
from repro.errors import ConfigurationError


class TestCheckIntervalDsl:
    def test_per_check_interval_parsed(self):
        strategy = parse_strategy(
            """
strategy s
  phase p
    type canary
    service svc
    stable 1.0.0
    experimental 2.0.0
    fraction 0.1
    interval 5
    check fast
      metric error
      threshold 0.1
    check slow
      metric response_time
      threshold 100
      interval 60
"""
        )
        fast, slow = strategy.entry.checks
        assert fast.interval_seconds is None
        assert slow.interval_seconds == 60.0

    def test_invalid_check_interval_rejected(self):
        from repro.bifrost.model import Check

        with pytest.raises(ConfigurationError):
            Check(
                name="c",
                service="svc",
                version="2.0.0",
                metric="error",
                threshold=0.1,
                interval_seconds=0.0,
            )


class TestGroupVolumeEdge:
    def test_flat_profile_helper(self):
        from repro.traffic.profile import UserGroup, flat_profile

        profile = flat_profile(3, 100.0, (UserGroup("all", 1.0),))
        assert profile.num_slots == 3
        assert profile.total_volume() == 300.0

    def test_single_group_share_one(self):
        from repro.traffic.profile import TrafficProfile, UserGroup

        profile = TrafficProfile([10.0], [UserGroup("all", 1.0)])
        assert profile.group_volume(0, "all") == 10.0

"""Unit tests for the Bifrost middleware facade."""


from repro.bifrost.middleware import Bifrost
from repro.bifrost.model import Phase, PhaseType, Strategy
from repro.traffic.profile import UserGroup
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator

GROUPS = (UserGroup("eu", 0.6), UserGroup("na", 0.4))


def short_canary(duration=40.0) -> Strategy:
    return Strategy(
        "s",
        (
            Phase(
                name="canary",
                type=PhaseType.CANARY,
                service="backend",
                stable_version="1.0.0",
                experimental_version="2.0.0",
                fraction=0.2,
                duration_seconds=duration,
                check_interval_seconds=5.0,
            ),
        ),
    )


class TestRun:
    def test_outcomes_accumulate(self, canary_app):
        bifrost = Bifrost(canary_app, seed=3)
        population = UserPopulation(100, GROUPS, seed=4)
        workload = WorkloadGenerator(population, entry="frontend.home", seed=5)
        first = bifrost.run(workload.poisson(10.0, 10.0))
        second = bifrost.run(workload.poisson(10.0, 10.0, start=10.0))
        assert first and second
        assert bifrost.runtime.requests_executed == len(first) + len(second)

    def test_until_advances_clock(self, canary_app):
        bifrost = Bifrost(canary_app, seed=3)
        population = UserPopulation(100, GROUPS, seed=4)
        workload = WorkloadGenerator(population, entry="frontend.home", seed=5)
        bifrost.run(workload.poisson(10.0, 5.0), until=50.0)
        assert bifrost.simulation.now == 50.0

    def test_dsl_submission(self, canary_app):
        bifrost = Bifrost(canary_app, seed=3)
        execution = bifrost.submit(
            """
strategy text-strategy
  phase canary
    type canary
    service backend
    stable 1.0.0
    experimental 2.0.0
    fraction 0.2
    duration 10
    interval 5
"""
        )
        assert execution.strategy.name == "text-strategy"

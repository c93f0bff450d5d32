"""No call policy applies to the entry call.

A call policy is the caller's failure handling, and the entry call's
caller is the user.  A default policy (``set_policy`` with no scope)
therefore covers every call but the entry's.  The scenario factory
installs exactly such a policy for a ``ResilienceSpec`` with retries and
no fallback service; every driver runs it to one outcome, with one root
span per trace wherever spans are built.
"""

import dataclasses

import pytest

from repro.bifrost.middleware import Bifrost
from repro.microservices.resilience import RETRY
from repro.scenarios import factory
from repro.scenarios.fuzzer import sample_cascade
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import ResilienceSpec
from repro.simulation.rng import SeededRng
from repro.traffic.batch import BatchWorkloadGenerator

SEEDS = range(100, 106)


def retried_cascade(seed: int):
    """A cascade whose one policy is the default: a retry, no fallback."""
    spec = sample_cascade(SeededRng(seed), seed)
    spec = dataclasses.replace(spec, resilience=ResilienceSpec(retries=1))
    # What ``drive`` rebuilds of ``run_scenario``'s set-up.
    assert spec.arrivals.kind == "poisson" and not spec.flash_crowds
    assert not factory.needs_network(spec) and not factory.deploy_plan(spec)
    return spec


def drive(spec, driver: str):
    """*spec*'s run through *driver*; returns (bifrost, execution)."""
    app = factory.build_application(spec)
    bifrost = Bifrost(app, seed=spec.seed, resilience=factory.build_resilience(spec))
    bifrost.install_campaign(factory.build_campaign(spec, app, None))
    execution = bifrost.submit(factory.build_strategy(spec), at=1.0)
    population = factory.build_population(spec)
    if driver == "run":
        bifrost.run(factory.build_workload(spec, population), until=spec.run_until)
        return bifrost, execution
    if driver == "run_batches+spans":
        bifrost.collector.subscribe(lambda trace: None)
    generator = BatchWorkloadGenerator(
        population, entry=f"{spec.entry}.{factory.ENDPOINT}", seed=spec.seed + 2
    )
    arrivals = spec.arrivals
    batches = generator.poisson(arrivals.rate_per_second, arrivals.duration_seconds)
    bifrost.run_batches(batches, until=spec.run_until)
    return bifrost, execution


def observed(bifrost, execution):
    return (
        bifrost.runtime.requests_executed,
        bifrost.store.snapshot(),
        list(map(repr, execution.transitions)),
        execution.outcome,
        bifrost.resilience.events,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_a_default_retry_policy_runs_to_one_outcome_on_every_driver(seed):
    spec = retried_cascade(seed)
    bifrost, execution = drive(spec, "run")
    events = bifrost.resilience.events
    assert any(e.kind == RETRY for e in events)
    assert not any(e.service == spec.entry for e in events)
    for driver in ("run_batches", "run_batches+spans"):
        assert observed(*drive(spec, driver)) == observed(bifrost, execution), driver
    result = run_scenario(spec)
    assert result.outcome is execution.outcome
    assert result.requests == bifrost.runtime.requests_executed
    assert result.resilience_counters == bifrost.resilience.counters()

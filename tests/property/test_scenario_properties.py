"""Property tests for the scenario layer.

Two properties anchor the whole fuzzing pipeline:

1. **Round-trip identity** — every spec any archetype can sample
   survives ``to_dict`` → JSON → ``from_dict`` unchanged.  Without this
   the regression corpus could silently drift from what the fuzzer saw.
2. **Seed determinism** — identical specs produce identical run digests.
   Without this a corpus replay mismatch would be noise, not signal.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios.fuzzer import ARCHETYPES, ScenarioFuzzer
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import ScenarioSpec

NUM_ARCHETYPES = len(ARCHETYPES)


def sampled_spec(seed: int, index: int) -> ScenarioSpec:
    return ScenarioFuzzer(seed=seed).sample(index)[1]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    index=st.integers(min_value=0, max_value=NUM_ARCHETYPES * 3 - 1),
)
def test_every_sampled_spec_round_trips_losslessly(seed, index):
    spec = sampled_spec(seed, index)
    data = json.loads(json.dumps(spec.to_dict()))
    assert ScenarioSpec.from_dict(data) == spec


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    index=st.integers(min_value=0, max_value=NUM_ARCHETYPES * 2 - 1),
)
def test_sampling_is_deterministic_in_the_root_seed(seed, index):
    assert sampled_spec(seed, index) == sampled_spec(seed, index)


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    index=st.integers(min_value=0, max_value=NUM_ARCHETYPES - 1),
)
def test_identical_specs_yield_identical_run_digests(seed, index):
    spec = sampled_spec(seed, index)
    first = run_scenario(spec)
    second = run_scenario(spec)
    assert first.digest() == second.digest()


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_round_tripped_spec_runs_identically(seed):
    spec = sampled_spec(seed, 0)  # loose_gate: cheap single-run scenarios
    clone = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert run_scenario(clone).digest() == run_scenario(spec).digest()

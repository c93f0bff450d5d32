"""Scenario factory and adversarial scenario fuzzer.

``repro.scenarios`` turns the rest of the library into a test subject:
seeded, serializable :class:`~repro.scenarios.spec.ScenarioSpec` specs
compose heavy-tail traffic, flash crowds, cascading failures,
multi-region topologies, resource-capped nodes, and mid-experiment
deploys; the factory materializes them into runnable applications,
strategies, and fault campaigns; cross-layer invariants state what must
survive; and the fuzzer searches for — then shrinks — configurations
that falsify them, freezing survivors into the regression corpus.
"""

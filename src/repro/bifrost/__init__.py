"""Bifrost: automated enactment of multi-phase live testing (Chapter 4).

Bifrost is a middleware that executes *live testing strategies* —
experiments composed of multiple conditionally chained phases (e.g. a
canary release, then a dark launch, then an A/B test, then a gradual
rollout).  Strategies are written in a domain-specific language
("experimentation-as-code"), compiled to a state machine whose states
configure traffic routing and whose transitions are driven by periodic
health *checks* over runtime metrics; fallback transitions trigger
automated rollbacks when irregularities are spotted.

The durability layer (:mod:`repro.bifrost.journal`,
:mod:`repro.bifrost.recovery`) makes the engine itself crash-safe: every
durable decision is written ahead to a journal, folded into periodic
snapshots, and a supervisor recovers a killed engine so running
experiments survive their infrastructure.
"""

# benchmarks/e2e/workloads.py imports this name through the package.
from repro.bifrost.middleware import Bifrost

__all__ = ["Bifrost"]

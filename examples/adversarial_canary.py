"""Adversarial scenario fuzzing: hunting configs that betray their users.

The scenario layer turns the whole stack into a test subject.  This
example runs a short seeded fuzz campaign over the adversarial
archetypes (loose gates, cascading failures, heavy-tail traffic, flash
crowds, multi-region chains, mid-experiment deploys, engine crashes),
prints what falsified which cross-layer invariant, and shows one
counterexample shrunk to its essence — the same pipeline that feeds
``tests/regression_corpus/``.

Run with::

    python examples/adversarial_canary.py
"""

from repro.obs.observer import Observer
from repro.scenarios.fuzzer import ScenarioFuzzer
from repro.scenarios.runner import run_scenario

SEED = 2026


def fuzz_campaign() -> None:
    """A small all-archetype campaign with live observability."""
    observer = Observer()
    fuzzer = ScenarioFuzzer(seed=SEED, observer=observer)
    report = fuzzer.run(8)

    print("=== fuzz campaign ===")
    print(report.describe())
    print()
    print("events by kind:")
    for kind, count in sorted(observer.events.counts_by_kind().items()):
        print(f"  {kind:28s} {count}")
    print()


def shrink_showcase() -> None:
    """Find one loose-gate counterexample and show its shrunk form."""
    fuzzer = ScenarioFuzzer(seed=SEED, archetypes=["loose_gate"])
    report = fuzzer.run(2)
    if not report.violations:
        print("no violation found (unexpected for this seed)")
        return
    violation = report.violations[0]
    spec = violation.spec
    print("=== shrunk counterexample ===")
    print(f"invariant : {violation.invariant}")
    print(f"detail    : {violation.detail}")
    print(f"services  : {[s.name for s in spec.services]}")
    print(
        f"gate      : threshold={spec.experiment.check_threshold:.3f} vs "
        f"true error delta={spec.experiment.true_error_delta:.3f}"
    )
    result = run_scenario(spec)
    print(
        f"replay    : outcome={result.outcome.value}, "
        f"stable={result.stable_version}, "
        f"observed error rate={result.observed_error_rate:.3f}"
    )
    print()
    print("A gate looser than the damage it guards against promotes a")
    print("regressing variant every time — and the scenario above is now")
    print("small enough to read in one sitting.")


def main() -> None:
    fuzz_campaign()
    shrink_showcase()


if __name__ == "__main__":
    main()

"""Bounded adversarial fuzz campaign: the scenario layer as a gate.

A seeded all-archetype ``ScenarioFuzzer`` campaign runs against the
current tree and the outcome is pinned: the seeded known-bad region
(loose gates that promote ground-truth-regressing variants) must be
rediscovered, every violation's shrunk spec must still reproduce, and
the whole campaign must finish inside a hard wall-clock budget so it is
cheap enough to run on every commit.

``SCENARIO_FUZZ_SMOKE=1`` switches to the reduced CI configuration
(one draw of each archetype, same fixed seed); the full run draws each
archetype once or twice.
"""

import json
import os
import time

from _util import OUTPUT_DIR, emit, format_rows

from repro.scenarios.fuzzer import ARCHETYPES, ScenarioFuzzer
from repro.scenarios.invariants import check_invariant

SMOKE = os.environ.get("SCENARIO_FUZZ_SMOKE") == "1"
SEED = 2026
ITERATIONS = len(ARCHETYPES) if SMOKE else 16
MAX_WALL_SECONDS = 60.0


def test_fuzz_campaign_rediscovers_known_bads_within_budget():
    """Fixed-seed campaign: finds seeded known-bads, stays within budget."""
    fuzzer = ScenarioFuzzer(seed=SEED)
    started = time.perf_counter()
    report = fuzzer.run(ITERATIONS)
    wall = time.perf_counter() - started

    # The seeded known-bad region must be rediscovered every time.
    by_invariant = report.by_invariant()
    assert by_invariant.get("promotion_truth", 0) >= 1, (
        f"campaign found no promotion_truth violation: {by_invariant}"
    )
    # Every reported violation carries an already-shrunk spec that must
    # still reproduce — the same contract the regression corpus replays.
    for violation in report.violations:
        replayed = check_invariant(violation.invariant, violation.spec)
        assert replayed is not None, (
            f"shrunk spec for {violation.invariant} no longer reproduces"
        )
    assert wall <= MAX_WALL_SECONDS, (
        f"fuzz campaign took {wall:.1f}s, over the {MAX_WALL_SECONDS:.0f}s "
        f"budget — the per-commit gate must stay cheap"
    )

    rows = [
        {"metric": "iterations", "value": report.iterations},
        {"metric": "invariant checks", "value": report.checks},
        {"metric": "violations", "value": len(report.violations)},
        {"metric": "wall_s", "value": wall},
    ]
    for name, count in sorted(by_invariant.items()):
        rows.append({"metric": f"violations[{name}]", "value": count})
    emit("Adversarial scenario fuzz campaign", format_rows(rows))
    result = {
        "smoke": SMOKE,
        "seed": SEED,
        "iterations": report.iterations,
        "checks": report.checks,
        "violations": len(report.violations),
        "by_invariant": by_invariant,
        "wall_s": wall,
        "budget_s": MAX_WALL_SECONDS,
    }
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    with open(os.path.join(OUTPUT_DIR, "BENCH_scenario_fuzz.json"), "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)

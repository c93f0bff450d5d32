"""Million-user benchmark: the batch execution kernel vs the scalar path.

The ROADMAP's north-star scenario: a seven-day canary on a million-user
population, replayed in minutes.  This bench drives >=1M requests from a
1M-user population through a catalog canary strategy via
``Bifrost.run_batches`` (the vectorized batch kernel of
``repro.simulation.batch``), measures end-to-end requests/s including
workload generation, and compares against the scalar
``WorkloadGenerator`` + ``Bifrost.run`` path on an identical scenario.

The kernel's contract is bit-identical behaviour, so the speedup is pure
bookkeeping elimination: no per-request ``Request``/``Span``/``Trace``
objects, columnar metric flushes, memoized variant assignment.  The
bench asserts the ratio floor (>=10x full, >=3x smoke), that the canary
actually promoted, and internal consistency of the result counters.

``MILLION_USERS_SMOKE=1`` switches to a reduced configuration for CI:
~120k requests from a 100k-user population, same assertions at the
smoke floor.
"""

import json
import os
import time
import tracemalloc

from _util import OUTPUT_DIR, emit, format_rows

from repro.bifrost.middleware import Bifrost
from repro.bifrost.model import Check, Phase, PhaseType, Strategy
from repro.microservices.application import Application
from repro.microservices.service import (
    DownstreamCall,
    EndpointSpec,
    ServiceVersion,
)
from repro.simulation.latency import (
    ConstantLatency,
    LoadSensitiveLatency,
    LogNormalLatency,
)
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator
from repro.traffic.batch import BatchWorkloadGenerator

SMOKE = os.environ.get("MILLION_USERS_SMOKE") == "1"

POPULATION = 100_000 if SMOKE else 1_000_000
RATE_PER_SECOND = 2_000.0 if SMOKE else 10_000.0
DURATION_SECONDS = 60.0 if SMOKE else 120.0
SCALAR_SAMPLE_SECONDS = 3.0 if SMOKE else 6.0
MIN_REQUESTS = 100_000 if SMOKE else 1_000_000
MIN_SPEEDUP = 3.0 if SMOKE else 10.0


def build_app() -> Application:
    """Three-service chain: frontend -> catalog (canaried) -> inventory."""
    app = Application()
    app.deploy(
        ServiceVersion(
            "frontend",
            "1.0.0",
            {
                "index": EndpointSpec(
                    "index",
                    LoadSensitiveLatency(LogNormalLatency(20.0, 0.3)),
                    calls=(DownstreamCall("catalog", "search"),),
                )
            },
            capacity_rps=2.0 * RATE_PER_SECOND,
        )
    )
    app.deploy(
        ServiceVersion(
            "catalog",
            "1.0.0",
            {
                "search": EndpointSpec(
                    "search",
                    LogNormalLatency(15.0, 0.25),
                    calls=(DownstreamCall("inventory", "check"),),
                )
            },
            capacity_rps=2.0 * RATE_PER_SECOND,
        )
    )
    app.deploy(
        ServiceVersion(
            "catalog",
            "2.0.0",
            {
                "search": EndpointSpec(
                    "search",
                    LogNormalLatency(13.0, 0.25),
                    calls=(DownstreamCall("inventory", "check"),),
                )
            },
            capacity_rps=2.0 * RATE_PER_SECOND,
        )
    )
    app.deploy(
        ServiceVersion(
            "inventory",
            "1.0.0",
            {"check": EndpointSpec("check", ConstantLatency(4.0))},
            capacity_rps=4.0 * RATE_PER_SECOND,
        )
    )
    return app


def build_strategy() -> Strategy:
    return Strategy(
        name="catalog-canary",
        description="catalog 2.0.0 canary at 10% of traffic",
        phases=(
            Phase(
                name="canary",
                type=PhaseType.CANARY,
                service="catalog",
                stable_version="1.0.0",
                experimental_version="2.0.0",
                fraction=0.10,
                duration_seconds=DURATION_SECONDS - 10.0,
                check_interval_seconds=5.0,
                checks=(
                    Check(
                        name="error-rate",
                        service="catalog",
                        version="2.0.0",
                        metric="error",
                        aggregation="mean",
                        operator="<=",
                        threshold=0.05,
                        window_seconds=30.0,
                    ),
                    Check(
                        name="latency-vs-stable",
                        service="catalog",
                        version="2.0.0",
                        metric="response_time",
                        aggregation="mean",
                        operator="<=",
                        baseline_version="1.0.0",
                        tolerance=1.25,
                        window_seconds=30.0,
                    ),
                ),
            ),
        ),
    )


def test_million_users_batch_kernel() -> None:
    build_start = time.perf_counter()
    population = UserPopulation(POPULATION, DEFAULT_GROUPS, seed=1)
    population_build_s = time.perf_counter() - build_start

    # -- batch path: the full replay ------------------------------------
    bifrost = Bifrost(build_app(), seed=7)
    execution = bifrost.submit(build_strategy(), at=1.0)
    generator = BatchWorkloadGenerator(
        population, entry="frontend.index", seed=2
    )
    batch_start = time.perf_counter()
    result = bifrost.run_batches(
        generator.poisson(RATE_PER_SECOND, DURATION_SECONDS),
        until=DURATION_SECONDS + 10.0,
    )
    batch_elapsed = time.perf_counter() - batch_start
    batch_rps = result.requests / batch_elapsed

    # -- scalar baseline: identical scenario, shorter sample ------------
    scalar_bifrost = Bifrost(build_app(), seed=7)
    scalar_bifrost.submit(build_strategy(), at=1.0)
    # The twin population is built under tracemalloc: what it retains is
    # the population's footprint (timing comes from the untraced build).
    tracemalloc.start()
    scalar_population = UserPopulation(POPULATION, DEFAULT_GROUPS, seed=1)
    population_retained_mib = tracemalloc.get_traced_memory()[0] / 2**20
    tracemalloc.stop()
    scalar_generator = WorkloadGenerator(
        scalar_population, entry="frontend.index", seed=2
    )
    scalar_start = time.perf_counter()
    outcomes = scalar_bifrost.run(
        scalar_generator.poisson(RATE_PER_SECOND, SCALAR_SAMPLE_SECONDS)
    )
    scalar_elapsed = time.perf_counter() - scalar_start
    scalar_rps = len(outcomes) / scalar_elapsed

    speedup = batch_rps / scalar_rps

    # -- invariants ------------------------------------------------------
    assert result.requests >= MIN_REQUESTS, (
        f"expected >= {MIN_REQUESTS} requests, got {result.requests}"
    )
    assert result.requests == result.fast_requests + result.fallback_requests
    assert result.fallback_requests == 0, dict(result.fallback_reasons)
    assert bifrost.runtime.requests_executed == result.requests
    # Per-service throughput: every request produced exactly one frontend
    # span, so the frontend throughput series must match the request count.
    frontend_samples = len(
        bifrost.store.series("frontend", "1.0.0", "throughput")
    )
    assert frontend_samples == result.requests
    assert 0.0 <= result.error_rate < 0.05
    assert result.mean_duration_ms > 0.0
    # The canary must have actually run and promoted on live telemetry.
    assert execution.outcome.value == "completed", execution.outcome
    assert bifrost.application.stable_version("catalog") == "2.0.0"
    canary_assigned = bifrost.router.assigner(
        "catalog-canary"
    ).total_distinct_users()
    assert canary_assigned > 0

    rows = [
        {
            "path": "batch",
            "requests": result.requests,
            "wall_s": batch_elapsed,
            "us_per_req": batch_elapsed / result.requests * 1e6,
            "req_per_s": batch_rps,
        },
        {
            "path": "scalar",
            "requests": len(outcomes),
            "wall_s": scalar_elapsed,
            "us_per_req": scalar_elapsed / len(outcomes) * 1e6,
            "req_per_s": scalar_rps,
        },
    ]
    emit(
        "Million-user batch kernel vs scalar path",
        format_rows(rows)
        + f"\n\nspeedup: {speedup:.2f}x (floor {MIN_SPEEDUP:.0f}x, "
        f"{'smoke' if SMOKE else 'full'} mode)\n"
        f"canary outcome: {execution.outcome.value}; "
        f"distinct canary-assigned users: {canary_assigned:,}\n"
        f"fast slices: {result.fast_slices}; "
        f"fallback slices: {result.fallback_slices}\n"
        f"population: built in {population_build_s:.2f} s, "
        f"retains {population_retained_mib:.2f} MiB",
    )
    payload = {
        "mode": "smoke" if SMOKE else "full",
        "population": POPULATION,
        "rate_per_second": RATE_PER_SECOND,
        "duration_seconds": DURATION_SECONDS,
        "batch": rows[0],
        "scalar": rows[1],
        "speedup": speedup,
        "speedup_floor": MIN_SPEEDUP,
        "error_rate": result.error_rate,
        "mean_duration_ms": result.mean_duration_ms,
        "fast_slices": result.fast_slices,
        "fallback_slices": result.fallback_slices,
        "canary_outcome": execution.outcome.value,
        "canary_distinct_users": canary_assigned,
        "population_build_s": population_build_s,
        "population_retained_mib": population_retained_mib,
    }
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    with open(
        os.path.join(OUTPUT_DIR, "BENCH_million_users.json"), "w"
    ) as handle:
        json.dump(payload, handle, indent=2)

    assert speedup >= MIN_SPEEDUP, (
        f"batch path only {speedup:.2f}x faster than scalar "
        f"(floor {MIN_SPEEDUP}x): batch {batch_rps:,.0f} rps "
        f"vs scalar {scalar_rps:,.0f} rps"
    )

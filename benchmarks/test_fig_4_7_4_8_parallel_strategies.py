"""E7 — Figs 4.7 + 4.8: engine CPU utilization and check-evaluation delay
as the number of parallel strategies grows.

Reproduces the scaling study of Section 4.5.2: N strategies (each with a
handful of checks, one-second evaluation interval) run concurrently on
the single-threaded engine.  Expected shape: CPU utilization grows
roughly linearly with N; the delay between a check falling due and the
engine evaluating it stays small — "more than a hundred experiments in
parallel without introducing a significant performance degradation".
The engine load is its journal priced by ``engine_load`` (1 ms per tick,
0.4 ms per check, 2 ms per route update): a model, not a timing.
"""

from _util import emit, format_rows

from repro.bifrost.engine import BifrostEngine, engine_load
from repro.bifrost.journal import Journal
from repro.bifrost.model import Check, Phase, PhaseType, Strategy
from repro.microservices.application import Application
from repro.microservices.service import EndpointSpec, ServiceVersion
from repro.routing.proxy import VersionRouter
from repro.simulation.engine import SimulationEngine
from repro.simulation.latency import ConstantLatency
from repro.telemetry.store import MetricStore

STRATEGY_COUNTS = (1, 2, 4, 8, 16, 32, 64, 128)
CHECKS_PER_STRATEGY = 4
MEASURE_SECONDS = 120.0


def build_engine(num_services: int) -> tuple[BifrostEngine, Application]:
    app = Application("load-test")
    for index in range(num_services):
        for version in ("1.0.0", "2.0.0"):
            app.deploy(
                ServiceVersion(
                    f"svc{index:03d}",
                    version,
                    {"ep": EndpointSpec("ep", ConstantLatency(10.0))},
                )
            )
    engine = BifrostEngine(
        simulation=SimulationEngine(),
        application=app,
        router=VersionRouter(),
        store=MetricStore(),
        journal=Journal(),
    )
    return engine, app


def make_strategy(index: int, checks: int) -> Strategy:
    service = f"svc{index:03d}"
    check_tuple = tuple(
        Check(
            name=f"check{i}",
            service=service,
            version="2.0.0",
            metric="response_time",
            threshold=100.0,
            window_seconds=30.0,
        )
        for i in range(checks)
    )
    phase = Phase(
        name="canary",
        type=PhaseType.CANARY,
        service=service,
        stable_version="1.0.0",
        experimental_version="2.0.0",
        fraction=0.1,
        duration_seconds=10_000.0,  # stays in-phase for the whole window
        check_interval_seconds=1.0,
        checks=check_tuple,
    )
    return Strategy(f"strategy{index:03d}", (phase,))


def measure(num_strategies: int, checks: int) -> dict[str, float]:
    engine, _ = build_engine(num_strategies)
    for index in range(num_strategies):
        engine.submit(make_strategy(index, checks), at=0.0)
    engine.simulation.run_until(MEASURE_SECONDS)
    report = engine_load(engine.journal.records()).report()
    return {
        "strategies": num_strategies,
        "checks_each": checks,
        "engine_tasks": report.tasks,
        "cpu_utilization": report.utilization,
        "mean_delay_ms": report.delay_stats.mean * 1000.0,
        "p95_delay_ms": report.delay_stats.p95 * 1000.0,
        "max_delay_ms": report.delay_stats.maximum * 1000.0,
    }


def run_sweep():
    return [measure(n, CHECKS_PER_STRATEGY) for n in STRATEGY_COUNTS]


def test_fig_4_7_4_8(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    emit("Figs 4.7/4.8 engine CPU and delay vs parallel strategies", format_rows(rows))

    utilization = [row["cpu_utilization"] for row in rows]
    # CPU grows monotonically (roughly linearly) with the strategy count.
    assert all(b >= a - 1e-6 for a, b in zip(utilization, utilization[1:]))
    top = rows[-1]
    assert top["strategies"] == 128
    # Over a hundred parallel strategies without significant degradation:
    # the engine is not saturated and checks run well within one interval.
    assert top["cpu_utilization"] < 0.9
    assert top["mean_delay_ms"] < 1000.0
    # A single strategy is essentially free.
    assert rows[0]["cpu_utilization"] < 0.01

"""E6 — Fig 4.6 + Table 4.1: end-user overhead of Bifrost.

Runs the dissertation's four-phase strategy (canary → dark launch → A/B
test → gradual rollout) on the simulated case-study application, once
with and once without Bifrost's routing deployed, and compares end-user
response times per phase.

Expected shape (Section 4.5.1): a small constant overhead overall
(paper: ~8 ms on their testbed); the *lowest* overhead during the A/B
phase (traffic splitting load-balances the experimental service; paper:
~4 ms), and a visibly *higher* impact during the dark launch (traffic
duplication raises load on the downstream services the experimental
version calls — the cascading effect the paper cautions about).
"""

from _util import emit, format_rows, format_series

from repro.bifrost.middleware import Bifrost
from repro.microservices.application import Application
from repro.microservices.service import DownstreamCall, EndpointSpec, ServiceVersion
from repro.simulation.latency import LoadSensitiveLatency, LogNormalLatency
from repro.stats.descriptive import mean, summarize
from repro.stats.timeseries import TimeSeries
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator

STRATEGY = """
strategy four-phase
  phase canary
    type canary
    service recommend
    stable 1.0.0
    experimental 2.0.0
    fraction 0.05
    duration 100
    interval 10
    on_success dark
    on_failure rollback
  phase dark
    type dark_launch
    service recommend
    stable 1.0.0
    experimental 2.0.0
    duration 100
    interval 10
    on_success ab
    on_failure rollback
  phase ab
    type ab_test
    service recommend
    stable 1.0.0
    experimental 2.0.0
    second 2.1.0
    fraction 0.5
    duration 100
    interval 10
    on_success rollout
    on_failure rollback
  phase rollout
    type gradual_rollout
    service recommend
    stable 1.0.0
    experimental 2.0.0
    steps 0.25, 0.5, 1.0
    duration 100
    interval 10
    on_success complete
    on_failure rollback
"""

RATE = 60.0
DURATION = 420.0
PHASES = [
    ("canary", 5.0, 105.0),
    ("dark", 105.0, 205.0),
    ("ab", 205.0, 305.0),
    ("rollout", 305.0, 405.0),
]


def build_application() -> Application:
    """The case-study app: recommend runs near nominal capacity."""
    app = Application("case-study")

    def endpoint(name, median, calls=(), pressure=0.6):
        return EndpointSpec(
            name,
            LoadSensitiveLatency(LogNormalLatency(median, 0.2), pressure),
            0.0,
            calls,
        )

    app.deploy(
        ServiceVersion(
            "frontend",
            "1.0.0",
            {
                "index": endpoint(
                    "index",
                    10,
                    (
                        DownstreamCall("catalog", "list"),
                        DownstreamCall("recommend", "suggest"),
                    ),
                )
            },
            capacity_rps=300,
        ),
        stable=True,
    )
    app.deploy(
        ServiceVersion(
            "catalog",
            "1.0.0",
            {"list": endpoint("list", 15, pressure=2.5)},
            capacity_rps=100,
        ),
        stable=True,
    )
    for version in ("1.0.0", "2.0.0", "2.1.0"):
        app.deploy(
            ServiceVersion(
                "recommend",
                version,
                {
                    "suggest": endpoint(
                        "suggest",
                        20.0,
                        (DownstreamCall("catalog", "list", probability=0.5),),
                        pressure=2.5,
                    )
                },
                capacity_rps=55,
            ),
            stable=(version == "1.0.0"),
        )
    return app


def run_once(with_bifrost: bool):
    app = build_application()
    bifrost = Bifrost(app, seed=5, proxy_overhead_ms=6.0)
    execution = bifrost.submit(STRATEGY, at=5.0) if with_bifrost else None
    population = UserPopulation(800, DEFAULT_GROUPS, seed=6)
    workload = WorkloadGenerator(population, entry="frontend.index", seed=7)
    outcomes = bifrost.run(workload.poisson(RATE, DURATION), until=DURATION + 10)
    return outcomes, execution


def run_experiment():
    baseline, _ = run_once(with_bifrost=False)
    experimental, execution = run_once(with_bifrost=True)
    return baseline, experimental, execution


def _phase_mean(outcomes, start, end):
    return mean(
        o.duration_ms for o in outcomes if start <= o.request.timestamp < end
    )


def test_fig_4_6_table_4_1(benchmark):
    baseline, experimental, execution = benchmark.pedantic(
        run_experiment, rounds=1, iterations=1
    )
    assert execution is not None
    assert execution.outcome.value == "completed"

    rows = []
    overheads = {}
    for name, start, end in PHASES:
        base_mean = _phase_mean(baseline, start, end)
        exp_mean = _phase_mean(experimental, start, end)
        overheads[name] = exp_mean - base_mean
        rows.append(
            {
                "phase": name,
                "baseline_ms": base_mean,
                "bifrost_ms": exp_mean,
                "overhead_ms": exp_mean - base_mean,
            }
        )
    overall = _phase_mean(experimental, 5, 405) - _phase_mean(baseline, 5, 405)
    rows.append(
        {
            "phase": "overall",
            "baseline_ms": _phase_mean(baseline, 5, 405),
            "bifrost_ms": _phase_mean(experimental, 5, 405),
            "overhead_ms": overall,
        }
    )
    emit("Fig 4.6 per-phase end-user overhead", format_rows(rows))

    # Table 4.1: response-time summary statistics of both runs.
    stats_rows = []
    for label, outcomes in (("baseline", baseline), ("bifrost", experimental)):
        stats = summarize([o.duration_ms for o in outcomes]).as_row()
        stats["run"] = label
        stats_rows.append(stats)
    emit("Table 4.1 response time statistics (ms)", format_rows(stats_rows))

    # Fig 4.6's moving-average series (3-second buckets).
    series = TimeSeries("bifrost-rt")
    for outcome in experimental:
        series.append(outcome.request.timestamp, outcome.duration_ms)
    emit(
        "Fig 4.6 3s moving average of monitored response times (Bifrost run)",
        format_series(series.resample(3.0)[:60], "bucket_start_s  mean_rt_ms"),
    )

    # Shape assertions.
    assert 3.0 <= overall <= 15.0, "small constant overall overhead"
    assert overheads["ab"] < overheads["canary"], "A/B load-balancing effect"
    assert overheads["dark"] > overheads["canary"], "dark-launch duplication cost"
    assert overheads["dark"] == max(overheads.values())

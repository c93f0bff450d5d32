"""Glass-box observability over a crashing canary and a schedule search.

Every other example treats the experimentation machinery as a black box
and inspects its *outputs*.  This one attaches a
:class:`~repro.obs.observer.Observer` and watches the machinery itself:
the engine emits events for phase entries, check evaluations, and
transitions; the journal and supervisor emit durability events across
two injected engine crashes; Fenrir emits per-generation search
progress.  From the event log alone the experiment timeline is
reconstructed and verified — field by field — against the engine's own
execution record, then rendered as ASCII, exported as JSONL, and
summarized as Prometheus-style exposition text.

Run with::

    python examples/glass_box_canary.py
"""

import io

from repro.bifrost.journal import SnapshotPolicy
from repro.bifrost.middleware import Bifrost
from repro.bifrost.model import Check, Phase, PhaseType, Strategy
from repro.fenrir.model import ExperimentSpec
from repro.fenrir.scheduler import Fenrir
from repro.microservices.application import Application
from repro.microservices.faults import EngineCrash, FaultCampaign, FaultInjector
from repro.microservices.service import DownstreamCall, EndpointSpec, ServiceVersion
from repro.obs.dashboard import glass_box_panel
from repro.obs.events import load_jsonl
from repro.obs.exporters import JsonlEventSink, render_prometheus
from repro.obs.observer import Observer
from repro.obs.provenance import build_provenance
from repro.obs.timeline import diff_timeline_execution, render_ascii
from repro.simulation.latency import LogNormalLatency
from repro.traffic.profile import DEFAULT_GROUPS, UserGroup, flat_profile
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator

SEED = 37


def build_app() -> Application:
    """Frontend -> catalog shop with a catalog 2.0.0 canary candidate."""
    app = Application("shop")
    app.deploy(
        ServiceVersion(
            "frontend",
            "1.0.0",
            {
                "index": EndpointSpec(
                    "index",
                    LogNormalLatency(8.0, 0.2),
                    calls=(DownstreamCall("catalog", "list"),),
                )
            },
            capacity_rps=300.0,
        ),
        stable=True,
    )
    app.deploy(
        ServiceVersion(
            "catalog",
            "1.0.0",
            {"list": EndpointSpec("list", LogNormalLatency(18.0, 0.25))},
            capacity_rps=300.0,
        ),
        stable=True,
    )
    app.deploy(
        ServiceVersion(
            "catalog",
            "2.0.0",
            {"list": EndpointSpec("list", LogNormalLatency(16.0, 0.25))},
            capacity_rps=300.0,
        )
    )
    return app


def canary_strategy() -> Strategy:
    """A 120 s canary on catalog guarded by a user-facing error check."""
    return Strategy(
        "catalog-canary",
        (
            Phase(
                name="canary",
                type=PhaseType.CANARY,
                service="catalog",
                stable_version="1.0.0",
                experimental_version="2.0.0",
                fraction=0.3,
                duration_seconds=120.0,
                check_interval_seconds=10.0,
                deadline_seconds=500.0,
                checks=(
                    Check(
                        name="user-errors",
                        service="frontend",
                        version="1.0.0",
                        metric="error",
                        threshold=0.10,
                        window_seconds=25.0,
                    ),
                ),
            ),
        ),
    )


def run_canary(observer: Observer) -> Bifrost:
    """The durable canary under two engine crashes, fully instrumented."""
    app = build_app()
    bifrost = Bifrost(
        app,
        seed=SEED,
        durable=True,
        snapshot_policy=SnapshotPolicy(every_records=5, compact=True),
        observer=observer,
    )
    campaign = FaultCampaign(FaultInjector(app))
    campaign.add(EngineCrash(30.0, 45.0))
    campaign.add(EngineCrash(70.0, 85.0))
    bifrost.install_campaign(campaign)
    bifrost.submit(canary_strategy(), at=1.0)
    population = UserPopulation(300, DEFAULT_GROUPS, seed=SEED + 1)
    workload = WorkloadGenerator(population, entry="frontend.index", seed=SEED + 2)
    bifrost.run(workload.poisson(15.0, 160.0), until=260.0)
    return bifrost


def run_search(observer: Observer) -> None:
    """A small Fenrir search sharing the same observer."""
    profile = flat_profile(
        48, 1000.0, (UserGroup("eu", 0.6), UserGroup("na", 0.4))
    )
    specs = [
        ExperimentSpec(
            name=f"exp{i}",
            required_samples=600.0,
            min_duration_slots=2,
            max_duration_slots=10,
            min_traffic_fraction=0.01,
            max_traffic_fraction=0.5,
        )
        for i in range(4)
    ]
    Fenrir(observer=observer).schedule(profile, specs, budget=400, seed=3)


def main() -> None:
    """Run both subsystems under one observer and inspect the glass box."""
    observer = Observer(enabled=True)
    bifrost = run_canary(observer)
    run_search(observer)

    execution = bifrost.engine.executions[0]
    timeline = build_provenance(observer.events).strategy("catalog-canary")

    print("--- glass-box canary (two engine crashes) ---")
    print(f"strategy outcome: {execution.outcome.value}")
    print(f"engine restarts: {bifrost.supervisor.restarts}")
    print()
    print("--- timeline reconstructed from events alone ---")
    print(render_ascii(timeline))
    mismatches = diff_timeline_execution(timeline, execution)
    print(f"timeline matches engine record: {not mismatches}")
    print()

    buffer = io.StringIO()
    with JsonlEventSink(buffer) as sink:
        sink.attach(observer.events)
    exported = load_jsonl(buffer.getvalue().splitlines())
    print(f"events exported to JSONL: {len(exported)}")
    print()

    exposition = render_prometheus(observer.metrics, bifrost.store)
    prom_lines = [
        line
        for line in exposition.splitlines()
        if line.startswith(("repro_bifrost_checks_total", "repro_fenrir"))
    ]
    print("--- prometheus exposition (excerpt) ---")
    print("\n".join(prom_lines[:8]))
    print()
    print(glass_box_panel(observer, bifrost.store))


if __name__ == "__main__":
    main()

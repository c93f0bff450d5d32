"""Property: the columnar slice (the plain hop) is ``Bifrost.run`` bit for bit.

A plain slice runs as columns over one bulk draw per sub-block
(``repro.microservices.kernel.columns``); a slice its plan cannot express runs on
the general hop.  Either way ``run_batches`` must leave exactly the state
a ``Bifrost.run`` replay leaves: every metric sample and engine decision,
and also the runtime RNG's state, every load deque and the
trace-id counter.  The topologies mix every latency model the plan knows,
one it does not, fan-out and sequential calls, calls with probability < 1,
one non-load endpoint at two call sites, routed variants whose models
differ (at up to three call sites at once, in parameters or in draw
kind), an audience-filtered route, dark launches (each duplicate is one
more plan position, taken by the rows its route's audience admits) and
fault windows; a patched sub-block size splits slices into many
sub-blocks.
"""

import gc
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bifrost.middleware import Bifrost
from repro.errors import ConfigurationError, ExecutionError
from repro.microservices.application import Application
from repro.microservices.faults import (
    ErrorBurst,
    FaultCampaign,
    FaultInjector,
    LatencySpike,
)
from repro.microservices.service import DownstreamCall, EndpointSpec, ServiceVersion
from repro.routing.rules import AudienceFilter, ExperimentRoute, Variant
from repro.microservices.kernel import columns
from repro.microservices.kernel.core import RequestKernel
from repro.simulation.latency import (
    CompositeLatency,
    ConstantLatency,
    LatencyModel,
    LoadSensitiveLatency,
    LogNormalLatency,
    ParetoLatency,
)
from repro.traffic.batch import BatchWorkloadGenerator
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.users import UserPopulation
from repro.traffic.workload import WorkloadGenerator
from tests.property.test_batch_equivalence import assert_equivalent, build_strategy

RATE = 40.0
DURATION = 12.0
UNTIL = 20.0


class Jittered(LatencyModel):
    """A latency model without a recipe: its slices take the general hop."""

    def __init__(self, base_ms: float) -> None:
        self.base_ms = base_ms

    def sample(self, rng, load: float = 1.0) -> float:
        return self.base_ms * (0.5 + rng.random())


MODELS = {
    "constant": ConstantLatency,
    "lognormal": lambda ms: LogNormalLatency(ms, 0.3),
    "lognormal_flat": lambda ms: LogNormalLatency(ms, 0.0),
    "pareto": lambda ms: ParetoLatency.from_median(ms, 1.8),
    "load_lognormal": lambda ms: LoadSensitiveLatency(LogNormalLatency(ms, 0.3), 0.8),
    "load_constant": lambda ms: LoadSensitiveLatency(ConstantLatency(ms)),
    "load_pareto": lambda ms: LoadSensitiveLatency(ParetoLatency(ms, 2.5)),
    "load_load": lambda ms: LoadSensitiveLatency(
        LoadSensitiveLatency(LogNormalLatency(ms, 0.2), 0.3)
    ),
    "custom": Jittered,
}
RECIPE_MODELS = [name for name in MODELS if name != "custom"]


def endpoint(name, model, calls=(), error=0.0, parallel=False):
    return EndpointSpec(
        name, model, calls=calls, error_rate=error, parallel_calls=parallel
    )


def build_app(models: dict, call_probability: float, parallel: bool) -> Application:
    """frontend -> catalog (canary) -> inventory, frontend -> inventory
    (probabilistic) and frontend -> pricing (a coin flip, routed);
    inventory 1.1.0 only serves when ``build_bifrost`` routes inventory."""
    app = Application()
    app.deploy(
        ServiceVersion(
            "frontend",
            "1.0.0",
            {
                "index": endpoint(
                    "index",
                    models["frontend"],
                    calls=(
                        DownstreamCall("catalog", "search"),
                        DownstreamCall("inventory", "check", call_probability),
                        DownstreamCall("pricing", "quote", 0.5),
                    ),
                    parallel=parallel,
                )
            },
            capacity_rps=30.0,
        )
    )
    for version, model, error in (
        ("1.0.0", models["catalog_stable"], 0.02),
        ("2.0.0", models["catalog_canary"], 0.05),
    ):
        app.deploy(
            ServiceVersion(
                "catalog",
                version,
                {
                    "search": endpoint(
                        "search",
                        model,
                        calls=(DownstreamCall("inventory", "check"),),
                        error=error,
                    )
                },
                capacity_rps=25.0,
            )
        )
    for version, model in (
        ("1.0.0", models["inventory"]),
        ("1.1.0", models.get("inventory_variant", models["inventory"])),
    ):
        app.deploy(
            ServiceVersion(
                "inventory",
                version,
                {"check": endpoint("check", model, error=0.01)},
                capacity_rps=40.0,
            )
        )
    for version, model in (
        ("1.0.0", models["pricing"]),
        ("2.0.0", models["pricing_variant"]),
    ):
        app.deploy(
            ServiceVersion(
                "pricing",
                version,
                {"quote": endpoint("quote", model)},
                capacity_rps=30.0,
            )
        )
    return app


#: Routes for inventory, a second routed service every row reaches.  The
#: "audience" one lists the candidate first and admits one group, so rows
#: map the prefilled ``(*variants, stable)`` picks to the plan's versions.
INVENTORY_ROUTES = {
    True: dict(variants=(Variant("1.0.0", 0.6), Variant("1.1.0", 0.4))),
    "audience": dict(
        variants=(Variant("1.1.0", 0.4), Variant("1.0.0", 0.6)),
        audience=AudienceFilter(groups=frozenset({DEFAULT_GROUPS[1].name})),
    ),
    # Catalog's duplicates call inventory, whose own duplicate (1.1.0)
    # serves the other group only.
    "nested": dict(
        variants=(Variant("1.0.0", 1.0),),
        audience=AudienceFilter(groups=frozenset({DEFAULT_GROUPS[1].name})),
        shadow_versions=("1.1.0",),
    ),
}

#: Dark launches: catalog's (the strategy's first phase) for every user,
#: for one group, or for one group with inventory shadowed in turn behind
#: another; or pricing's, instead of its A/B test, for the other group.
SHADOWS = (None, "all", DEFAULT_GROUPS[0].name, "nested", "pricing")
#: pricing's A/B test behind a group audience, or (``True``) its dark
#: launch for the other group.
PRICING_ROUTES = {
    False: dict(
        variants=(Variant("1.0.0", 0.5), Variant("2.0.0", 0.5)),
        audience=AudienceFilter(groups=frozenset({DEFAULT_GROUPS[0].name})),
    ),
    True: dict(
        variants=(Variant("1.0.0", 1.0),),
        audience=AudienceFilter(groups=frozenset({DEFAULT_GROUPS[1].name})),
        shadow_versions=("2.0.0",),
    ),
}


def dark_launch(shadow):
    """The audience of the strategy's dark-launch phase, if it has one."""
    return {"nested": DEFAULT_GROUPS[0].name, "pricing": None}.get(shadow, shadow)


def build_bifrost(
    app: Application,
    fraction: float,
    faults: bool,
    route_inventory: bool | str = False,
    shadow: str | None = None,
) -> Bifrost:
    bifrost = Bifrost(app, seed=7)
    if shadow == "nested":
        route_inventory = "nested"
    if route_inventory:
        bifrost.router.install(
            ExperimentRoute(
                experiment="inventory-ab",
                service="inventory",
                **INVENTORY_ROUTES[route_inventory],
            )
        )
    bifrost.router.install(
        ExperimentRoute(
            experiment="pricing-ab",
            service="pricing",
            **PRICING_ROUTES[shadow == "pricing"],
        )
    )
    if faults:
        campaign = FaultCampaign(FaultInjector(bifrost.application))
        campaign.add(ErrorBurst("catalog", "1.0.0", "search", 0.3, start=4.0, end=8.0))
        campaign.add(LatencySpike("inventory", "1.0.0", "check", 3.0, start=6.0, end=10.0))
        campaign.add(LatencySpike("frontend", "1.0.0", "index", 1.5, start=2.0, end=5.0))
        bifrost.install_campaign(campaign)
    return bifrost


def run_both(
    app_factory,
    fraction=0.3,
    faults=False,
    seed=5,
    sub_block=None,
    route_inventory=False,
    shadow=None,
):
    """(scalar, batch) runs in the shape ``assert_equivalent`` takes."""
    population = UserPopulation(300, DEFAULT_GROUPS, seed=1)
    strategy = build_strategy(fraction, dark_launch(shadow))
    scalar_bifrost = build_bifrost(app_factory(), fraction, faults, route_inventory, shadow)
    scalar_execution = scalar_bifrost.submit(strategy, at=1.0)
    scalar_bifrost.run(
        WorkloadGenerator(population, entry="frontend.index", seed=seed).poisson(
            RATE, DURATION
        ),
        until=UNTIL,
    )
    batch_bifrost = build_bifrost(app_factory(), fraction, faults, route_inventory, shadow)
    batch_execution = batch_bifrost.submit(strategy, at=1.0)
    generator = BatchWorkloadGenerator(population, entry="frontend.index", seed=seed)
    size = sub_block or columns._SUB_BLOCK
    with mock.patch.object(columns, "_SUB_BLOCK", size):
        result = batch_bifrost.run_batches(generator.poisson(RATE, DURATION), until=UNTIL)
    return (scalar_bifrost, scalar_execution, []), (
        batch_bifrost,
        batch_execution,
        [],
        result,
    )


def assert_same_state(scalar, batch) -> None:
    """``assert_equivalent`` plus the runtime state the next slice reads."""
    assert_equivalent(scalar, batch)
    scalar_runtime, batch_runtime = scalar[0].runtime, batch[0].runtime
    assert batch_runtime.rng.raw.getstate() == scalar_runtime.rng.raw.getstate()
    assert {key: list(d) for key, d in batch_runtime.arrivals.items()} == {
        key: list(d) for key, d in scalar_runtime.arrivals.items()
    }
    assert batch_runtime.next_trace_id() == scalar_runtime.next_trace_id()


@pytest.fixture
def hops(monkeypatch):
    """Counts plain slices per hop: ``columns`` or, when the plan refuses
    the slice, ``rows`` (the general hop)."""
    seen = Counter()
    plan = columns.plan

    def counted(self, entry):
        positions = plan(self, entry)
        seen["rows" if positions is None else "columns"] += 1
        return positions

    monkeypatch.setattr(columns, "plan", counted)
    return seen


class TestColumnarSlice:
    @settings(max_examples=25, deadline=None)
    @given(
        models=st.fixed_dictionaries(
            {
                "frontend": st.sampled_from(RECIPE_MODELS),
                "catalog_stable": st.sampled_from(RECIPE_MODELS),
                "catalog_canary": st.sampled_from(list(MODELS)),
                "inventory": st.sampled_from(RECIPE_MODELS),
                "inventory_variant": st.sampled_from(RECIPE_MODELS),
                "pricing": st.sampled_from(RECIPE_MODELS),
                "pricing_variant": st.sampled_from(RECIPE_MODELS),
            }
        ),
        call_probability=st.sampled_from([1.0, 0.6, 0.05]),
        parallel=st.booleans(),
        fraction=st.sampled_from([0.1, 0.5]),
        faults=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
        sub_block=st.sampled_from([None, 7, 1]),
        route_inventory=st.sampled_from([False, True, "audience"]),
        shadow=st.sampled_from(SHADOWS),
    )
    def test_run_batches_matches_run(
        self,
        models,
        call_probability,
        parallel,
        fraction,
        faults,
        seed,
        sub_block,
        route_inventory,
        shadow,
    ):
        medians = dict(
            frontend=20.0,
            catalog_stable=15.0,
            catalog_canary=13.0,
            inventory=4.0,
            inventory_variant=3.0,
            pricing=6.0,
            pricing_variant=5.0,
        )

        def app():
            return build_app(
                {slot: MODELS[kind](medians[slot]) for slot, kind in models.items()},
                call_probability,
                parallel,
            )

        scalar, batch = run_both(
            app, fraction, faults, seed, sub_block, route_inventory, shadow
        )
        assert_same_state(scalar, batch)


def plain_app(call_probability=0.6, **overrides):
    """The property's topology with fixed models, for the hop tests."""
    models = dict(
        frontend=LoadSensitiveLatency(LogNormalLatency(20.0, 0.3)),
        catalog_stable=LogNormalLatency(15.0, 0.25),
        catalog_canary=LogNormalLatency(10.0, 0.4),
        inventory=ConstantLatency(4.0),
        pricing=LogNormalLatency(6.0, 0.2),
        pricing_variant=LogNormalLatency(5.0, 0.3),
    )
    models.update(overrides)
    return build_app(models, call_probability, False)


class TestHopSelection:
    """Each refusal rule sends the slice to the general hop, which stays
    equal to ``Bifrost.run``; everything else runs columnar."""

    def test_plain_topology_runs_columnar(self, hops):
        assert_same_state(*run_both(plain_app))
        assert hops["columns"] > 0 and hops["rows"] == 0

    def test_versions_with_one_draw_kind_run_columnar(self, hops):
        """catalog, and inventory at both of its call sites, each route rows
        to versions whose models differ in parameters only."""
        app = lambda: plain_app(1.0, inventory_variant=ConstantLatency(3.0))  # noqa: E731
        assert_same_state(*run_both(app, route_inventory=True, sub_block=50))
        assert hops["columns"] > 0 and hops["rows"] == 0

    def test_certain_route_with_an_audience_runs_columnar(self, hops):
        """inventory's candidate is listed first and one group is outside
        its audience: rows still read their prefilled versions columnar."""
        app = lambda: plain_app(1.0, inventory_variant=ConstantLatency(3.0))  # noqa: E731
        assert_same_state(*run_both(app, route_inventory="audience", sub_block=50))
        assert hops["columns"] > 0 and hops["rows"] == 0

    @pytest.mark.parametrize("sub_block", [None, 7, 1])
    @pytest.mark.parametrize("shadow", SHADOWS[1:])
    def test_dark_launches_run_columnar(self, hops, shadow, sub_block):
        """Every duplicate is a plan position: gated per row by its route's
        audience, nested under another duplicate, or on a second service."""
        app = lambda: plain_app(1.0, inventory_variant=LogNormalLatency(3.0, 0.2))  # noqa: E731
        scalar, batch = run_both(app, shadow=shadow, sub_block=sub_block)
        assert_same_state(scalar, batch)
        assert hops["columns"] > 0 and hops["rows"] == 0
        shadowed = {"pricing": ("pricing", "2.0.0"), "nested": ("inventory", "1.1.0")}
        service, version = shadowed.get(shadow, ("catalog", "2.0.0"))
        assert any(
            (key.service, key.version) == (service, version)
            for key in batch[0].store.keys()
        )

    def test_fault_windows_run_columnar(self, hops):
        """``_ScaledLatency`` over a constant plus an ``ErrorBurst``: the
        shape of ``hostile_canary``'s faults leg."""
        assert_same_state(*run_both(plain_app, faults=True))
        assert hops["columns"] > 0 and hops["rows"] == 0

    @pytest.mark.parametrize(
        "overrides",
        [
            pytest.param({"catalog_stable": Jittered(15.0)}, id="custom-model"),
            pytest.param(
                {"inventory": CompositeLatency(ConstantLatency(1.0))}, id="composite"
            ),
            # inventory is called from frontend and from catalog.
            pytest.param(
                {"inventory": LoadSensitiveLatency(ConstantLatency(4.0))},
                id="shared-load-deque",
            ),
            # pricing is reached with probability 0.5.
            pytest.param(
                {"pricing_variant": ParetoLatency(4.0, 2.0)}, id="uncertain-variants"
            ),
        ],
    )
    def test_refusals_take_the_general_hop(self, hops, overrides):
        assert_same_state(*run_both(lambda: plain_app(**overrides)))
        assert hops["rows"] > 0 and hops["columns"] == 0

    def test_certain_variants_that_draw_differently_take_the_general_hop(self, hops):
        """Every row reaches inventory, at both of its call sites, and its
        routed versions draw differently."""
        app = lambda: plain_app(1.0, inventory_variant=ParetoLatency(3.0, 2.0))  # noqa: E731
        assert_same_state(*run_both(app, route_inventory=True))
        assert hops["rows"] > 0 and hops["columns"] == 0

    def test_cycle_raises_the_general_hops_error(self, hops):
        def cyclic():
            app = plain_app()
            app.deploy(
                ServiceVersion(
                    "inventory",
                    "2.0.0",
                    {
                        "check": endpoint(
                            "check",
                            ConstantLatency(1.0),
                            calls=(DownstreamCall("catalog", "search"),),
                        )
                    },
                )
            )
            app.service("inventory").promote("2.0.0")
            return app

        population = UserPopulation(300, DEFAULT_GROUPS, seed=1)
        generator = BatchWorkloadGenerator(population, entry="frontend.index", seed=3)
        with pytest.raises(ExecutionError, match="call depth exceeded"):
            Bifrost(cyclic(), seed=7).run_batches(generator.poisson(RATE, 2.0))
        assert hops["rows"] == 1 and hops["columns"] == 0

    def test_reached_variant_without_the_endpoint_raises(self):
        def missing():
            app = plain_app()
            app.deploy(
                ServiceVersion(
                    "catalog", "3.0.0", {"other": endpoint("other", ConstantLatency(1.0))}
                )
            )
            return app

        population = UserPopulation(300, DEFAULT_GROUPS, seed=1)
        bifrost = Bifrost(missing(), seed=7)
        bifrost.router.install(
            ExperimentRoute(
                experiment="catalog-3",
                service="catalog",
                variants=(Variant("1.0.0", 0.5), Variant("3.0.0", 0.5)),
            )
        )
        generator = BatchWorkloadGenerator(population, entry="frontend.index", seed=3)
        with pytest.raises(ConfigurationError, match="catalog@3.0.0 has no endpoint"):
            bifrost.run_batches(generator.poisson(RATE, 2.0))

    def test_unreached_variant_without_the_endpoint_does_not_raise(self, hops):
        """A version no row reaches is never compiled.  The plan cannot
        tell a 0 % variant from a reached one (the last variant takes the
        buckets the fractions leave), so the general hop runs the slice."""

        def app():
            app = plain_app()
            app.deploy(
                ServiceVersion(
                    "catalog", "3.0.0", {"other": endpoint("other", ConstantLatency(1.0))}
                )
            )
            return app

        results = []
        for _ in range(2):
            bifrost = Bifrost(app(), seed=7)
            bifrost.router.install(
                ExperimentRoute(
                    experiment="catalog-3",
                    service="catalog",
                    variants=(Variant("1.0.0", 1.0), Variant("3.0.0", 0.0)),
                )
            )
            results.append(bifrost)
        population = UserPopulation(300, DEFAULT_GROUPS, seed=1)
        results[0].run(
            WorkloadGenerator(population, entry="frontend.index", seed=3).poisson(
                RATE, 4.0
            )
        )
        results[1].run_batches(
            BatchWorkloadGenerator(population, entry="frontend.index", seed=3).poisson(
                RATE, 4.0
            )
        )
        assert results[1].store.snapshot() == results[0].store.snapshot()
        assert hops["rows"] > 0 and hops["columns"] == 0


def test_a_plain_slice_leaves_no_reference_cycles():
    """The plan, the block, the column arrays and the kernel itself are
    freed by reference counting alone: no garbage for the cyclic
    collector."""
    population = UserPopulation(20_000, DEFAULT_GROUPS, seed=1)
    bifrost = build_bifrost(plain_app(), 0.1, faults=False)  # pricing is routed
    batch = next(
        BatchWorkloadGenerator(population, entry="frontend.index", seed=3).poisson(
            2_000.0, 8.0
        )
    )
    kernel = RequestKernel(bifrost.runtime, population)
    gc.collect()
    gc.disable()
    try:
        now, durations, _ = columns.run_slice(kernel, batch, 0, len(batch), 0.0)
        kernel.flush()
        del kernel
        assert len(durations) == len(batch) > columns._SUB_BLOCK
        assert gc.collect() == 0
    finally:
        gc.enable()

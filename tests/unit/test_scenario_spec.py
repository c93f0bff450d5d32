"""Unit tests for scenario specs, the factory, and invariant helpers."""

import json

import pytest

from repro.errors import ConfigurationError, ValidationError
from repro.scenarios import factory
from repro.scenarios.invariants import cascade_cap_of
from repro.scenarios.spec import (
    ArrivalSpec,
    ExperimentSpec,
    FaultSpec,
    FlashCrowdSpec,
    RegionSpec,
    ResilienceSpec,
    ScenarioSpec,
    ServiceSpec,
)
from repro.simulation.latency import (
    CompositeLatency,
    LoadSensitiveLatency,
    ParetoLatency,
)


def chain_spec(**overrides) -> ScenarioSpec:
    defaults = dict(
        name="unit",
        seed=7,
        services=(
            ServiceSpec("frontend", depends_on=("backend",)),
            ServiceSpec("backend"),
        ),
        experiment=ExperimentSpec(service="frontend", true_error_delta=0.2),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestSpecValidation:
    def test_dependency_must_point_forward(self):
        with pytest.raises(ConfigurationError):
            chain_spec(
                services=(
                    ServiceSpec("frontend"),
                    ServiceSpec("backend", depends_on=("frontend",)),
                )
            )

    def test_unknown_dependency_rejected(self):
        with pytest.raises(ConfigurationError):
            chain_spec(services=(ServiceSpec("frontend", depends_on=("ghost",)),))

    def test_duplicate_service_names_rejected(self):
        with pytest.raises(ConfigurationError):
            chain_spec(services=(ServiceSpec("a"), ServiceSpec("a")))

    def test_experiment_must_target_declared_service(self):
        with pytest.raises(ConfigurationError):
            chain_spec(experiment=ExperimentSpec(service="ghost"))

    def test_fault_must_target_declared_service(self):
        with pytest.raises(ConfigurationError):
            chain_spec(faults=(FaultSpec(kind="error_burst", service="ghost"),))

    def test_partition_needs_both_services_declared(self):
        with pytest.raises(ConfigurationError):
            chain_spec(
                faults=(
                    FaultSpec(kind="partition", service="frontend", service_b="ghost"),
                )
            )

    def test_region_must_be_declared(self):
        with pytest.raises(ConfigurationError):
            chain_spec(services=(ServiceSpec("frontend", region="mars"),))

    def test_fallback_must_be_declared(self):
        with pytest.raises(ConfigurationError):
            chain_spec(resilience=ResilienceSpec(fallback_service="ghost"))

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="meteor")

    def test_fault_window_ordering(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="error_burst", service="a", start=5.0, end=5.0)
        # Deploys fire once; end is ignored entirely.
        FaultSpec(kind="deploy", service="a", start=5.0, end=0.0)

    def test_check_metric_restricted(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(service="a", check_metric="vibes")

    def test_entry_and_index_helpers(self):
        spec = chain_spec()
        assert spec.entry == "frontend"
        assert spec.service_index("backend") == 1
        with pytest.raises(ConfigurationError):
            spec.service_index("ghost")


class TestSpecSerialization:
    def test_round_trip_through_json(self):
        spec = chain_spec(
            arrivals=ArrivalSpec(kind="pareto", alpha=1.3),
            flash_crowds=(FlashCrowdSpec(10.0, 5.0, 4.0),),
            regions=(RegionSpec("eu", 55.0),),
            services=(
                ServiceSpec("frontend", tail="pareto", depends_on=("backend",)),
                ServiceSpec("backend", region="eu", cpu_cap_rps=80.0),
            ),
            faults=(
                FaultSpec(kind="latency_spike", service="backend", magnitude=3.0),
                FaultSpec(kind="deploy", service="backend", version="3.0.0"),
            ),
            resilience=ResilienceSpec(retries=1, fallback_service="backend"),
        )
        data = json.loads(json.dumps(spec.to_dict()))
        assert ScenarioSpec.from_dict(data) == spec

    def test_unknown_fields_rejected(self):
        data = chain_spec().to_dict()
        data["services"][0]["flux_capacitor"] = True
        with pytest.raises(ValidationError):
            ScenarioSpec.from_dict(data)

    def test_unsupported_format_rejected(self):
        data = chain_spec().to_dict()
        data["format"] = 99
        with pytest.raises(ValidationError):
            ScenarioSpec.from_dict(data)

    def test_missing_field_rejected(self):
        data = chain_spec().to_dict()
        del data["experiment"]
        with pytest.raises(ValidationError):
            ScenarioSpec.from_dict(data)


class TestFactory:
    def test_application_shape(self):
        app = factory.build_application(chain_spec())
        assert app.stable_version("frontend") == "1.0.0"
        assert app.stable_version("backend") == "1.0.0"
        # The experimental version exists only on the experiment target.
        assert app.resolve("frontend", "2.0.0") is not None
        with pytest.raises(Exception):
            app.resolve("backend", "2.0.0")

    def test_experimental_version_carries_ground_truth(self):
        spec = chain_spec(
            experiment=ExperimentSpec(service="frontend", true_error_delta=0.25)
        )
        app = factory.build_application(spec)
        assert app.resolve("frontend", "2.0.0").endpoint("ep").error_rate == pytest.approx(0.25)
        assert app.resolve("frontend", "1.0.0").endpoint("ep").error_rate == 0.0

    def test_pareto_tail_selected(self):
        spec = chain_spec(
            services=(ServiceSpec("frontend", tail="pareto", tail_alpha=1.4),)
        )
        app = factory.build_application(spec)
        assert isinstance(
            app.resolve("frontend").endpoint("ep").latency, ParetoLatency
        )

    def test_cpu_cap_wraps_load_sensitivity(self):
        spec = chain_spec(services=(ServiceSpec("frontend", cpu_cap_rps=50.0),))
        app = factory.build_application(spec)
        version = app.resolve("frontend")
        assert isinstance(version.endpoint("ep").latency, LoadSensitiveLatency)
        assert version.capacity_rps == pytest.approx(50.0)

    def test_cross_region_latency_prepended(self):
        spec = chain_spec(
            regions=(RegionSpec("us", 0.0), RegionSpec("eu", 40.0)),
            services=(
                ServiceSpec("frontend", region="us", depends_on=("backend",)),
                ServiceSpec("backend", region="eu"),
            ),
        )
        app = factory.build_application(spec)
        assert isinstance(
            app.resolve("backend").endpoint("ep").latency, CompositeLatency
        )
        # The entry's own region never pays the penalty.
        assert not isinstance(
            app.resolve("frontend").endpoint("ep").latency, CompositeLatency
        )

    def test_strategy_gates_experimental_version(self):
        strategy = factory.build_strategy(chain_spec())
        [phase] = strategy.phases
        assert phase.experimental_version == "2.0.0"
        [check] = phase.checks
        assert check.version == "2.0.0"
        assert check.metric == "error"

    def test_resilience_none_when_unconfigured(self):
        assert factory.build_resilience(chain_spec()) is None

    def test_fallback_policy_scoped_to_service(self):
        spec = chain_spec(
            resilience=ResilienceSpec(retries=1, fallback_service="backend")
        )
        layer = factory.build_resilience(spec)
        policy = layer.policy_for("backend", "ep")
        assert policy.fallback and policy.max_retries == 1

    def test_deploy_plan_ordered_and_filtered(self):
        spec = chain_spec(
            faults=(
                FaultSpec(kind="deploy", service="backend", start=40.0),
                FaultSpec(kind="error_burst", service="backend", start=5.0, end=15.0),
                FaultSpec(kind="deploy", service="frontend", start=20.0),
            )
        )
        plan = factory.deploy_plan(spec)
        assert [(f.service, f.start) for f in plan] == [
            ("frontend", 20.0),
            ("backend", 40.0),
        ]

    def test_apply_deploy_promotes_new_stable(self):
        spec = chain_spec(
            faults=(
                FaultSpec(
                    kind="deploy", service="backend", version="3.0.0", magnitude=2.0
                ),
            )
        )
        app = factory.build_application(spec)
        factory.apply_deploy(spec, app, factory.deploy_plan(spec)[0])
        assert app.stable_version("backend") == "3.0.0"

    def test_workload_respects_flash_crowd_segments(self):
        spec = chain_spec(
            arrivals=ArrivalSpec(rate_per_second=6.0, duration_seconds=60.0),
            flash_crowds=(FlashCrowdSpec(start=20.0, duration=10.0, magnitude=6.0),),
        )
        requests = list(factory.build_workload(spec))
        inside = [r for r in requests if 20.0 <= r.timestamp < 30.0]
        outside = [r for r in requests if r.timestamp < 20.0 or r.timestamp >= 30.0]
        inside_rate = len(inside) / 10.0
        outside_rate = len(outside) / 50.0
        assert inside_rate > 3.0 * outside_rate

    def test_needs_flags(self):
        assert not factory.needs_network(chain_spec())
        assert factory.needs_network(
            chain_spec(
                faults=(
                    FaultSpec(
                        kind="partition", service="frontend", service_b="backend"
                    ),
                )
            )
        )
        assert factory.needs_durability(
            chain_spec(faults=(FaultSpec(kind="engine_crash"),))
        )


class TestCascadeCap:
    def test_no_sources_means_zero(self):
        spec = chain_spec(
            experiment=ExperimentSpec(service="frontend", true_error_delta=0.0)
        )
        assert cascade_cap_of(spec) == 0

    def test_unbounded_with_ambient_errors(self):
        spec = chain_spec(
            services=(ServiceSpec("frontend", error_rate=0.01),),
            experiment=ExperimentSpec(service="frontend"),
        )
        assert cascade_cap_of(spec) is None

    def test_fallback_absorbs_deep_source(self):
        spec = chain_spec(
            services=(
                ServiceSpec("a", depends_on=("b",)),
                ServiceSpec("b", depends_on=("c",)),
                ServiceSpec("c"),
            ),
            experiment=ExperimentSpec(service="a"),
            faults=(
                FaultSpec(kind="error_burst", service="c", version="1.0.0",
                          magnitude=1.0, start=5.0, end=20.0),
            ),
            resilience=ResilienceSpec(fallback_service="b"),
        )
        # Source at index 2, fallback at index 1: chain spans [1, 2].
        assert cascade_cap_of(spec) == 2

    def test_without_fallback_reaches_entry(self):
        spec = chain_spec(
            services=(
                ServiceSpec("a", depends_on=("b",)),
                ServiceSpec("b", depends_on=("c",)),
                ServiceSpec("c"),
            ),
            experiment=ExperimentSpec(service="a"),
            faults=(
                FaultSpec(kind="error_burst", service="c", version="1.0.0",
                          magnitude=1.0, start=5.0, end=20.0),
            ),
        )
        assert cascade_cap_of(spec) == 3

"""Unit tests for the microservice substrate."""

import pytest

from repro.errors import ConfigurationError, ExecutionError
from repro.microservices.application import Application
from repro.bifrost.middleware import Bifrost
from repro.microservices.faults import FaultCampaign, FaultInjector, LatencySpike
from repro.microservices.resilience import CallPolicy
from repro.microservices.runtime import Runtime
from repro.routing.proxy import RoutingDecision
from repro.microservices.service import (
    DownstreamCall,
    EndpointSpec,
    Service,
    ServiceVersion,
)
from repro.routing.proxy import VersionRouter
from repro.routing.rules import ExperimentRoute, Variant
from repro.simulation.latency import ConstantLatency, LoadSensitiveLatency
from repro.topology.scenarios import sample_application
from repro.traffic.workload import Request
from tests.conftest import constant_endpoint


def make_request(entry="frontend.home", user="u1", group="eu", t=0.0) -> Request:
    return Request(
        request_id="r1",
        timestamp=t,
        user_id=user,
        group=group,
        entry=entry,
        headers={"user-id": user},
    )


class TestServiceModel:
    def test_downstream_call_target(self):
        call = DownstreamCall("catalog", "list")
        assert call.target == "catalog.list"

    def test_invalid_probability(self):
        with pytest.raises(ConfigurationError):
            DownstreamCall("a", "b", probability=0.0)

    def test_endpoint_error_rate_bounds(self):
        with pytest.raises(ConfigurationError):
            EndpointSpec("e", error_rate=1.5)

    def test_version_requires_endpoints(self):
        with pytest.raises(ConfigurationError):
            ServiceVersion("svc", "1.0", {})

    def test_endpoint_key_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            ServiceVersion("svc", "1.0", {"x": constant_endpoint("y")})


class TestService:
    def test_first_deploy_becomes_stable(self):
        service = Service("svc")
        service.deploy(ServiceVersion("svc", "1.0", {"e": constant_endpoint("e")}))
        assert service.stable_version == "1.0"

    def test_promote(self):
        service = Service("svc")
        service.deploy(ServiceVersion("svc", "1.0", {"e": constant_endpoint("e")}))
        service.deploy(ServiceVersion("svc", "2.0", {"e": constant_endpoint("e")}))
        service.promote("2.0")
        assert service.stable_version == "2.0"

    def test_promote_unknown_rejected(self):
        service = Service("svc")
        service.deploy(ServiceVersion("svc", "1.0", {"e": constant_endpoint("e")}))
        with pytest.raises(ConfigurationError):
            service.promote("9.9")

    def test_foreign_version_rejected(self):
        service = Service("svc")
        with pytest.raises(ConfigurationError):
            service.deploy(ServiceVersion("other", "1.0", {"e": constant_endpoint("e")}))


class TestApplication:
    def test_wiring_validation_passes(self, tiny_app):
        assert tiny_app.validate_wiring() == []

    def test_wiring_detects_missing_service(self):
        app = Application()
        app.deploy(
            ServiceVersion(
                "frontend",
                "1.0",
                {"home": constant_endpoint("home", 10, (DownstreamCall("ghost", "x"),))},
            )
        )
        problems = app.validate_wiring()
        assert len(problems) == 1
        assert "ghost" in problems[0]

    def test_wiring_detects_missing_endpoint(self, tiny_app):
        version = tiny_app.resolve("frontend")
        bad = constant_endpoint("bad", 1, (DownstreamCall("backend", "nope"),))
        tiny_app.deploy(
            ServiceVersion(version.service, version.version, {**version.endpoints, "bad": bad})
        )
        assert any("nope" in p for p in tiny_app.validate_wiring())

    def test_resolve_defaults_to_stable(self, canary_app):
        assert canary_app.resolve("backend").version == "1.0.0"
        assert canary_app.resolve("backend", "2.0.0").version == "2.0.0"

    def test_unknown_service(self, tiny_app):
        with pytest.raises(ConfigurationError):
            tiny_app.service("nope")


def loaded_runtime() -> Runtime:
    """One service, two versions of 10 ms base latency that doubles per
    unit of load above 1, each able to take one request every two seconds
    (five per 10 s load window)."""
    app = Application()
    for version in ("1.0", "2.0"):
        app.deploy(
            ServiceVersion(
                "svc",
                version,
                {"ep": EndpointSpec("ep", LoadSensitiveLatency(ConstantLatency(10.0), 1.0))},
                capacity_rps=0.5,
            )
        )
    return Runtime(app, seed=1)


class TestLoadTracker:
    """The sliding load window, observed through the latency it inflates."""

    def test_rate_computation(self):
        runtime = loaded_runtime()
        for t in range(10):
            outcome = runtime.execute(make_request(entry="svc.ep", t=float(t)))
        # Ten arrivals in ten seconds on 0.5 rps of capacity: load 2.
        assert outcome.duration_ms == pytest.approx(20.0)

    def test_window_expiry(self):
        """An arrival exactly one window old still counts; older ones leave."""
        runtime = loaded_runtime()
        for _ in range(10):
            runtime.execute(make_request(entry="svc.ep", t=0.0))
        edge = runtime.execute(make_request(entry="svc.ep", t=10.0))
        assert edge.duration_ms == pytest.approx(10.0 * (1.0 + 1.2))
        late = runtime.execute(make_request(entry="svc.ep", t=10.5))
        assert late.duration_ms == pytest.approx(10.0)
        assert list(runtime.arrivals[("svc", "1.0")]) == [10.0, 10.5]

    def test_versions_tracked_separately(self):
        runtime = loaded_runtime()
        for _ in range(20):
            runtime.execute(make_request(entry="svc.ep", t=0.0))
        runtime.application.service("svc").promote("2.0")
        outcome = runtime.execute(make_request(entry="svc.ep", t=0.0))
        assert outcome.trace.root.version == "2.0"
        assert outcome.duration_ms == pytest.approx(10.0)


class TestRuntime:
    def test_deterministic_latency_sums(self, tiny_app):
        runtime = Runtime(tiny_app, seed=1)
        outcome = runtime.execute(make_request())
        # frontend 10ms + backend 20ms, no proxies.
        assert outcome.duration_ms == pytest.approx(30.0)

    def test_trace_structure(self, tiny_app):
        runtime = Runtime(tiny_app, seed=1)
        outcome = runtime.execute(make_request())
        trace = outcome.trace
        assert trace.root.service == "frontend"
        children = trace.children(trace.root.span_id)
        assert [c.service for c in children] == ["backend"]

    def test_metrics_recorded(self, tiny_app):
        runtime = Runtime(tiny_app, seed=1)
        runtime.execute(make_request())
        assert runtime.store.aggregate("backend", "1.0.0", "throughput", "count", 0, 1) == 1.0

    def test_clock_advances_to_request_time(self, tiny_app):
        runtime = Runtime(tiny_app, seed=1)
        runtime.execute(make_request(t=42.0))
        assert runtime.clock.now == 42.0

    def test_bad_entry_format(self, tiny_app):
        runtime = Runtime(tiny_app, seed=1)
        with pytest.raises(ExecutionError):
            runtime.execute(make_request(entry="frontendhome"))

    def test_error_propagates_to_root(self, tiny_app):
        backend = tiny_app.resolve("backend")
        backend.endpoints["api"] = EndpointSpec(
            "api", ConstantLatency(20.0), error_rate=1.0
        )
        runtime = Runtime(tiny_app, seed=1)
        outcome = runtime.execute(make_request())
        assert outcome.error
        assert outcome.trace.root.error

    def test_forced_router_decision(self, canary_app):
        class ToCanary:
            def route(self, request, service):
                if service == "backend":
                    return RoutingDecision(version="2.0.0", proxy_hops=1)
                return RoutingDecision()

        runtime = Runtime(canary_app, router=ToCanary(), seed=1, proxy_overhead_ms=2.0)
        outcome = runtime.execute(make_request())
        # frontend 10 + backend-canary 30 + 1 proxy hop 2ms.
        assert outcome.duration_ms == pytest.approx(42.0)
        assert ("backend", "2.0.0") in outcome.version_path

    def test_shadow_versions_traced_but_not_timed(self, canary_app):
        class WithShadow:
            def route(self, request, service):
                if service == "backend":
                    return RoutingDecision(shadow_versions=("2.0.0",))
                return RoutingDecision()

        runtime = Runtime(canary_app, router=WithShadow(), seed=1)
        outcome = runtime.execute(make_request())
        assert outcome.duration_ms == pytest.approx(30.0)  # shadow free
        shadow_spans = [
            s for s in outcome.trace.spans if s.tags.get("shadow") == "true"
        ]
        assert len(shadow_spans) == 1
        assert shadow_spans[0].version == "2.0.0"

    def test_cycle_detection(self):
        app = Application()
        app.deploy(
            ServiceVersion(
                "a", "1.0",
                {"x": constant_endpoint("x", 1.0, (DownstreamCall("a", "x"),))},
            )
        )
        runtime = Runtime(app, seed=1)
        with pytest.raises(ExecutionError):
            runtime.execute(make_request(entry="a.x"))


def _install_canary_route(bifrost):
    bifrost.router.install(
        ExperimentRoute("exp", "backend", variants=(Variant("2.0.0", 1.0),))
    )


def _install_latency_spike(bifrost):
    campaign = FaultCampaign(FaultInjector(bifrost.application))
    campaign.add(LatencySpike("backend", "1.0.0", "api", 3.0, start=0.5, end=9.0))
    bifrost.install_campaign(campaign)


def _schedule(callback):
    def arm(bifrost):
        bifrost.simulation.schedule_at(0.5, lambda: callback(bifrost))

    return arm


def _fail_backend_then_retry(bifrost):
    bifrost.application.resolve("backend").endpoint("api").error_rate = 1.0
    _schedule(
        lambda bifrost: bifrost.resilience.set_policy(
            CallPolicy(max_retries=1, backoff_base_ms=5.0), "backend"
        )
    )(bifrost)


class TestKernelValidity:
    """A compiled request kernel lives until the next engine event in
    ``Bifrost.run`` and for exactly one call in a bare ``Runtime.execute``."""

    @pytest.mark.parametrize(
        "arm, expected_ms",
        [
            # backend 2.0.0 takes 30 ms behind one 2 ms proxy.
            (_schedule(_install_canary_route), 10.0 + 30.0 + 2.0),
            # The campaign's own engine event triples backend's 20 ms.
            (_install_latency_spike, 10.0 + 60.0),
            # A failed 20 ms attempt, 5 ms of backoff, a second attempt.
            (_fail_backend_then_retry, 10.0 + 20.0 + 5.0 + 20.0),
        ],
        ids=["route", "endpoint-spec", "call-policy"],
    )
    def test_engine_event_between_two_requests_is_seen(
        self, canary_app, arm, expected_ms
    ):
        bifrost = Bifrost(canary_app, seed=1)
        arm(bifrost)
        first, second = bifrost.run([make_request(t=0.0), make_request(t=1.0)])
        assert first.duration_ms == pytest.approx(30.0)
        assert second.duration_ms == pytest.approx(expected_ms)

    def test_bare_execute_sees_direct_mutation_between_calls(self, canary_app):
        router = VersionRouter()
        runtime = Runtime(canary_app, router=router, seed=1)
        assert runtime.execute(make_request()).duration_ms == pytest.approx(30.0)

        router.install(
            ExperimentRoute("exp", "backend", variants=(Variant("2.0.0", 1.0),))
        )
        routed = runtime.execute(make_request())
        assert routed.duration_ms == pytest.approx(42.0)
        router.uninstall("backend")

        canary_app.resolve("backend").endpoint("api").error_rate = 1.0
        assert runtime.execute(make_request()).error

        canary_app.service("backend").promote("2.0.0")
        promoted = runtime.execute(make_request())
        assert not promoted.error
        assert promoted.version_path == (("frontend", "1.0.0"), ("backend", "2.0.0"))


class TestFaultInjector:
    def test_latency_degradation(self, tiny_app):
        injector = FaultInjector(tiny_app)
        injector.degrade("backend", "1.0.0", "api", latency_factor=3.0)
        runtime = Runtime(tiny_app, seed=1)
        outcome = runtime.execute(make_request())
        assert outcome.duration_ms == pytest.approx(10.0 + 60.0)

    def test_error_injection(self, tiny_app):
        injector = FaultInjector(tiny_app)
        injector.degrade("backend", "1.0.0", "api", added_error_rate=1.0)
        runtime = Runtime(tiny_app, seed=1)
        assert runtime.execute(make_request()).error

    def test_invalid_factor(self, tiny_app):
        with pytest.raises(ConfigurationError):
            FaultInjector(tiny_app).degrade("backend", "1.0.0", "api", latency_factor=0.0)


class TestGenerator:
    def test_acyclic_execution(self):
        runtime = Runtime(sample_application(), seed=5)
        outcome = runtime.execute(make_request(entry="frontend.index"))
        assert outcome.duration_ms > 0

"""Unit tests for the resilience layer: policies, breakers, runtime wiring."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bifrost.middleware import Bifrost
from repro.errors import ConfigurationError
from repro.microservices.application import Application
from repro.microservices.faults import NetworkState
from repro.microservices.resilience import (
    HALF_OPEN_MAX_CALLS,
    HALF_OPEN_SUCCESSES,
    BreakerConfig,
    BreakerState,
    CallPolicy,
    CircuitBreaker,
    ResilienceLayer,
    ResilienceSummary,
)
from repro.microservices.runtime import Runtime
from repro.routing.proxy import RoutingDecision
from repro.microservices.service import DownstreamCall, EndpointSpec, ServiceVersion
from repro.simulation.latency import ConstantLatency
from repro.traffic.batch import BatchWorkloadGenerator
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.users import UserPopulation
from repro.traffic.workload import Request, WorkloadGenerator
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


class TestCallPolicy:
    def test_defaults_are_noop(self):
        policy = CallPolicy()
        assert policy.max_retries == 0
        assert not policy.fallback

    def test_backoff_grows_exponentially(self):
        policy = CallPolicy(max_retries=3, backoff_base_ms=10.0, backoff_multiplier=2.0)
        assert policy.backoff_ms(1) == 10.0
        assert policy.backoff_ms(2) == 20.0
        assert policy.backoff_ms(3) == 40.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"backoff_base_ms": -1.0},
            {"backoff_multiplier": 0.5},
            {"jitter_ms": -1.0},
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            CallPolicy(**kwargs)


class TestCircuitBreaker:
    def config(self, **overrides):
        defaults = dict(
            failure_threshold=0.5,
            window_size=10,
            min_calls=4,
            open_seconds=30.0,
        )
        defaults.update(overrides)
        return BreakerConfig(**defaults)

    def test_starts_closed_and_allows(self):
        breaker = CircuitBreaker("svc", "1.0", self.config())
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow(0.0)

    def test_opens_at_failure_threshold(self):
        breaker = CircuitBreaker("svc", "1.0", self.config())
        for t in range(4):
            breaker.record(float(t), success=False)
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow(4.0)
        assert breaker.rejected_calls == 1

    def test_needs_min_calls_before_tripping(self):
        breaker = CircuitBreaker("svc", "1.0", self.config(min_calls=6))
        for t in range(5):
            breaker.record(float(t), success=False)
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_after_cooldown_then_closes(self):
        breaker = CircuitBreaker("svc", "1.0", self.config())
        for t in range(4):
            breaker.record(float(t), success=False)
        assert breaker.state is BreakerState.OPEN
        # Cooldown elapsed: first allow() transitions to half-open.
        assert breaker.allow(40.0)
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record(40.1, success=True)
        for n in range(1, HALF_OPEN_SUCCESSES):
            assert breaker.state is BreakerState.HALF_OPEN
            assert breaker.allow(40.0 + n)
            breaker.record(40.1 + n, success=True)
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker("svc", "1.0", self.config())
        for t in range(4):
            breaker.record(float(t), success=False)
        assert breaker.allow(40.0)
        breaker.record(40.1, success=False)
        assert breaker.state is BreakerState.OPEN
        # The cooldown restarts from the reopening.
        assert not breaker.allow(50.0)
        assert breaker.allow(75.0)

    def test_half_open_bounds_probe_calls(self):
        breaker = CircuitBreaker("svc", "1.0", self.config())
        for t in range(4):
            breaker.record(float(t), success=False)
        assert all(breaker.allow(40.0 + 0.1 * n) for n in range(HALF_OPEN_MAX_CALLS))
        assert not breaker.allow(40.9)

    def test_transitions_recorded_with_times(self):
        breaker = CircuitBreaker("svc", "1.0", self.config())
        for t in range(4):
            breaker.record(float(t), success=False)
        assert [
            (t.source, t.target) for t in breaker.transitions
        ] == [(BreakerState.CLOSED, BreakerState.OPEN)]
        assert breaker.transitions[0].time == 3.0

    def replay(self, window_size: int, steps) -> CircuitBreaker:
        """Feed *steps* — ``(success, pause)`` pairs; a pause outlasts the
        cooldown — through ``allow``/``record``, holding ``failure_rate()``
        equal to a recount of the window after every step."""
        breaker = CircuitBreaker(
            "svc",
            "1.0",
            self.config(window_size=window_size, min_calls=1, open_seconds=1.5),
        )
        now = 0.0
        for success, pause in steps:
            now += 2.0 if pause else 1.0
            if breaker.allow(now):
                breaker.record(now, success)
            window = breaker._window
            recount = sum(1 for ok in window if not ok) / len(window) if window else 0.0
            assert breaker.failure_rate() == recount
        return breaker

    @settings(max_examples=60, deadline=None)
    @given(
        window_size=st.integers(1, 6),
        steps=st.lists(st.tuples(st.booleans(), st.booleans()), max_size=60),
    )
    def test_failure_rate_equals_a_recount(self, window_size, steps):
        self.replay(window_size, steps)

    def test_failure_count_survives_wrap_and_half_open_close(self):
        """The window wraps past a failure, trips, closes from half-open
        (which clears it) and fills again."""
        steps = [(True, False)] * 2 + [(False, False)] + [(True, False)] * 3
        steps += [(False, False)] * 2 + [(True, True)]
        steps += [(True, False)] * (HALF_OPEN_SUCCESSES - 1) + [(False, False)]
        breaker = self.replay(3, steps)
        assert [(t.source, t.target) for t in breaker.transitions] == [
            (BreakerState.CLOSED, BreakerState.OPEN),
            (BreakerState.OPEN, BreakerState.HALF_OPEN),
            (BreakerState.HALF_OPEN, BreakerState.CLOSED),
            (BreakerState.CLOSED, BreakerState.OPEN),
        ]

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            BreakerConfig(failure_threshold=0.0)


class TestResilienceLayer:
    def test_policy_scoping_most_specific_wins(self):
        layer = ResilienceLayer()
        default = CallPolicy(max_retries=1)
        service = CallPolicy(max_retries=2)
        endpoint = CallPolicy(max_retries=3)
        layer.set_policy(default)
        layer.set_policy(service, service="backend")
        layer.set_policy(endpoint, service="backend", endpoint="api")
        assert layer.policy_for("backend", "api") is endpoint
        assert layer.policy_for("backend", "other") is service
        assert layer.policy_for("frontend", "home") is default

    def test_no_policy_returns_none(self):
        layer = ResilienceLayer()
        assert layer.policy_for("backend", "api") is None

    def test_endpoint_policy_requires_service(self):
        layer = ResilienceLayer()
        with pytest.raises(ConfigurationError):
            layer.set_policy(CallPolicy(), endpoint="api")

    def test_breakers_disabled_without_config(self):
        layer = ResilienceLayer()
        assert layer.breaker("svc", "1.0") is None
        assert layer.admit("svc", "1.0", 0.0)

    def test_breaker_transitions_emitted_as_events(self):
        layer = ResilienceLayer(
            breaker_config=BreakerConfig(min_calls=2, window_size=4)
        )
        layer.observe("svc", "1.0", 0.0, success=False)
        layer.observe("svc", "1.0", 1.0, success=False)
        assert layer.counters() == {"breaker_open": 1}
        assert not layer.admit("svc", "1.0", 2.0)

    def test_summary(self):
        layer = ResilienceLayer(
            breaker_config=BreakerConfig(min_calls=2, window_size=4)
        )
        layer.observe("svc", "2.0", 0.0, success=False)
        layer.observe("svc", "2.0", 1.0, success=False)
        summary = ResilienceSummary.of(layer)
        assert summary.open_breakers == [("svc", "2.0")]
        assert summary.events["breaker_open"] == 1


class TestRuntimeResilience:
    def failing_app(self, latency_ms=20.0, error_rate=1.0) -> Application:
        app = Application("resil")
        app.deploy(
            ServiceVersion(
                "frontend",
                "1.0.0",
                {
                    "home": constant_endpoint(
                        "home", 10.0, (DownstreamCall("backend", "api"),)
                    )
                },
            ),
            stable=True,
        )
        app.deploy(
            ServiceVersion(
                "backend",
                "1.0.0",
                {"api": EndpointSpec("api", ConstantLatency(latency_ms), error_rate)},
            ),
            stable=True,
        )
        return app

    def test_retries_charged_to_duration(self):
        app = self.failing_app()
        layer = ResilienceLayer()
        layer.set_policy(
            CallPolicy(max_retries=2, backoff_base_ms=10.0, backoff_multiplier=2.0),
            service="backend",
        )
        runtime = Runtime(app, seed=1, resilience=layer)
        outcome = runtime.execute(make_request())
        # 3 backend attempts (20 ms each) + backoffs 10 + 20, + frontend 10.
        assert outcome.duration_ms == pytest.approx(10.0 + 20 * 3 + 10 + 20)
        assert outcome.error
        retries = [e for e in layer.events if e.kind == "retry"]
        assert len(retries) == 2
        attempts = [
            s for s in outcome.trace.spans if s.service == "backend"
        ]
        assert len(attempts) == 3
        assert attempts[1].tags["retry_attempt"] == "1"
        assert attempts[2].tags["retry_attempt"] == "2"

    def test_fallback_masks_error(self):
        app = self.failing_app()
        layer = ResilienceLayer()
        layer.set_policy(
            CallPolicy(max_retries=1, backoff_base_ms=5.0, fallback=True),
            service="backend",
        )
        runtime = Runtime(app, seed=1, resilience=layer)
        outcome = runtime.execute(make_request())
        assert not outcome.error
        assert outcome.duration_ms == pytest.approx(10.0 + 20 * 2 + 5)
        assert [e.kind for e in layer.events] == ["retry", "fallback"]
        # The fallback shows up as a metric sample for trace analysis.
        assert runtime.store.aggregate(
            "backend", "1.0.0", "resilience.fallback", "count", 0.0, 1.0
        ) == 1.0

    def test_healthy_call_unaffected_by_policy(self):
        app = self.failing_app(error_rate=0.0)
        layer = ResilienceLayer()
        layer.set_policy(
            CallPolicy(max_retries=3, fallback=True),
            service="backend",
        )
        runtime = Runtime(app, seed=1, resilience=layer)
        outcome = runtime.execute(make_request())
        assert outcome.duration_ms == pytest.approx(30.0)
        assert not outcome.error
        assert layer.events == []

    def test_jitter_draws_from_runtime_rng(self):
        app = self.failing_app()
        outcomes = []
        for _ in range(2):
            layer = ResilienceLayer()
            layer.set_policy(
                CallPolicy(max_retries=2, backoff_base_ms=5.0, jitter_ms=10.0),
                service="backend",
            )
            runtime = Runtime(app, seed=7, resilience=layer)
            outcomes.append(runtime.execute(make_request()).duration_ms)
        assert outcomes[0] == pytest.approx(outcomes[1])
        # Jitter actually added something beyond the deterministic base.
        assert outcomes[0] > 10.0 + 60.0 + 5.0 + 5.0

    def test_breaker_opens_and_rejects_in_runtime(self):
        app = self.failing_app()
        layer = ResilienceLayer(
            breaker_config=BreakerConfig(
                failure_threshold=0.5, window_size=6, min_calls=3, open_seconds=60.0
            )
        )
        runtime = Runtime(app, seed=1, resilience=layer)
        for i in range(3):
            runtime.execute(make_request(t=float(i)))
        breaker = layer.breaker("backend", "1.0.0")
        assert breaker.state is BreakerState.OPEN
        outcome = runtime.execute(make_request(t=5.0))
        assert outcome.error
        rejected = [
            s for s in outcome.trace.spans if s.tags.get("breaker") == "open"
        ]
        assert len(rejected) == 1
        assert rejected[0].duration_ms == 0.0
        assert layer.counters()["breaker_reject"] == 1

    def test_partition_fails_edge(self):
        app = self.failing_app(error_rate=0.0)
        network = NetworkState()
        network.partition("frontend", "backend")
        runtime = Runtime(app, seed=1, network=network)
        outcome = runtime.execute(make_request())
        assert outcome.error
        faulted = [s for s in outcome.trace.spans if s.tags.get("fault") == "partition"]
        assert len(faulted) == 1
        network.heal("frontend", "backend")
        assert not runtime.execute(make_request(t=1.0)).error

    @pytest.mark.parametrize("refusal", ["partition", "breaker"])
    @pytest.mark.parametrize("driver", ["run", "run_batches"])
    def test_refused_call_to_an_undefined_endpoint_is_a_wiring_error(
        self, refusal, driver
    ):
        """The callee's endpoint is looked up before the refusal, so a
        dangling call is reported (as ``Application.validate_wiring``
        would) even while the link is cut or the breaker open."""
        app = self.failing_app(error_rate=0.0)
        app.resolve("frontend").endpoint("home").calls = (
            DownstreamCall("backend", "gone"),
        )
        network = layer = None
        if refusal == "partition":
            network = NetworkState()
            network.partition("frontend", "backend")
        else:
            layer = ResilienceLayer(BreakerConfig(min_calls=1, window_size=1))
            layer.observe("backend", "1.0.0", 0.0, success=False)
            assert layer.breaker("backend", "1.0.0").state is BreakerState.OPEN
        bifrost = Bifrost(app, seed=1, resilience=layer, network=network)
        population = UserPopulation(5, DEFAULT_GROUPS, seed=1)
        with pytest.raises(ConfigurationError, match="no endpoint 'gone'"):
            if driver == "run":
                bifrost.run(
                    WorkloadGenerator(population, "frontend.home", seed=1).constant(1.0, 2)
                )
            else:
                bifrost.run_batches(
                    BatchWorkloadGenerator(population, "frontend.home", seed=1).constant(1.0, 2)
                )

    def test_shadow_hops_excluded_from_version_path(self, canary_app):
        class WithShadow:
            def route(self, request, service):
                if service == "backend":
                    return RoutingDecision(shadow_versions=("2.0.0",))
                return RoutingDecision()

        runtime = Runtime(canary_app, router=WithShadow(), seed=1)
        outcome = runtime.execute(make_request())
        assert ("backend", "2.0.0") not in outcome.version_path
        assert outcome.version_path == (
            ("frontend", "1.0.0"),
            ("backend", "1.0.0"),
        )
        # The shadow hop is still traced (tagged), just not user-visible.
        shadow = [s for s in outcome.trace.spans if s.tags.get("shadow") == "true"]
        assert len(shadow) == 1

        # Call order with every hook at once: backend fails and is retried
        # (each attempt shadowed), then cache is refused by its open breaker.
        canary_app.resolve("backend").endpoint("api").error_rate = 1.0
        canary_app.deploy(
            ServiceVersion("cache", "1.0.0", {"get": constant_endpoint("get", 1.0)})
        )
        canary_app.resolve("frontend").endpoint("home").calls += (
            DownstreamCall("cache", "get"),
        )
        layer = ResilienceLayer(BreakerConfig(min_calls=3, window_size=6))
        layer.set_policy(CallPolicy(max_retries=1), service="backend")
        for _ in range(3):
            layer.observe("cache", "1.0.0", 0.0, success=False)
        runtime = Runtime(canary_app, router=WithShadow(), seed=1, resilience=layer)
        outcome = runtime.execute(make_request())
        assert outcome.version_path == (
            ("frontend", "1.0.0"),
            ("backend", "1.0.0"),
            ("backend", "1.0.0"),
            ("cache", "1.0.0"),
        )
        tags = [
            (s.service, s.version, {k: v for k, v in s.tags.items() if k not in ("group", "user")})
            for s in sorted(outcome.trace.spans, key=lambda s: s.span_id)
        ]
        assert tags == [
            ("frontend", "1.0.0", {}),
            ("backend", "1.0.0", {}),
            ("backend", "2.0.0", {"shadow": "true"}),
            ("backend", "1.0.0", {"retry_attempt": "1"}),
            ("backend", "2.0.0", {"shadow": "true"}),
            ("cache", "1.0.0", {"breaker": "open"}),
        ]

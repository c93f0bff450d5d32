"""Unit tests for fault composition, single-fault reversal, and campaigns."""

import pytest

from repro.errors import ConfigurationError
from repro.microservices.faults import (
    EngineCrash,
    ErrorBurst,
    FaultCampaign,
    FaultInjector,
    LatencySpike,
    NetworkState,
    Partition,
    VersionCrash,
    _ScaledLatency,
)
from repro.simulation.engine import SimulationEngine
from repro.simulation.latency import ConstantLatency


class TestInjectorComposition:
    def test_double_degrade_composes_factors(self, tiny_app):
        injector = FaultInjector(tiny_app)
        injector.degrade("backend", "1.0.0", "api", latency_factor=2.0)
        injector.degrade("backend", "1.0.0", "api", latency_factor=3.0)
        spec = tiny_app.resolve("backend").endpoint("api")
        # One wrapper around the pristine model, never wrapper-on-wrapper.
        assert isinstance(spec.latency, _ScaledLatency)
        assert isinstance(spec.latency.base, ConstantLatency)
        assert spec.latency.factor == pytest.approx(6.0)

    def test_double_degrade_sums_error_rates(self, tiny_app):
        injector = FaultInjector(tiny_app)
        injector.degrade("backend", "1.0.0", "api", added_error_rate=0.4)
        injector.degrade("backend", "1.0.0", "api", added_error_rate=0.8)
        spec = tiny_app.resolve("backend").endpoint("api")
        assert spec.error_rate == pytest.approx(1.0)  # clamped

    def test_restore_single_fault(self, tiny_app):
        injector = FaultInjector(tiny_app)
        first = injector.degrade("backend", "1.0.0", "api", latency_factor=2.0)
        injector.degrade("backend", "1.0.0", "api", latency_factor=3.0)
        injector.restore(first)
        spec = tiny_app.resolve("backend").endpoint("api")
        assert spec.latency.factor == pytest.approx(3.0)
        assert len(injector.faults) == 1

    def test_restore_last_fault_recovers_pristine_spec(self, tiny_app):
        pristine = tiny_app.resolve("backend").endpoint("api")
        injector = FaultInjector(tiny_app)
        fault = injector.degrade("backend", "1.0.0", "api", latency_factor=5.0)
        injector.restore(fault)
        assert tiny_app.resolve("backend").endpoint("api") is pristine

    def test_restore_unknown_fault_rejected(self, tiny_app):
        injector = FaultInjector(tiny_app)
        fault = injector.degrade("backend", "1.0.0", "api", latency_factor=2.0)
        injector.restore(fault)
        with pytest.raises(ConfigurationError):
            injector.restore(fault)

    def test_degrade_preserves_parallel_calls_flag(self, tiny_app):
        version = tiny_app.resolve("frontend")
        spec = version.endpoint("home")
        version.endpoints["home"] = type(spec)(
            name=spec.name,
            latency=spec.latency,
            error_rate=spec.error_rate,
            calls=spec.calls,
            parallel_calls=True,
        )
        injector = FaultInjector(tiny_app)
        injector.degrade("frontend", "1.0.0", "home", latency_factor=2.0)
        assert tiny_app.resolve("frontend").endpoint("home").parallel_calls


class TestNetworkState:
    def test_partition_is_symmetric(self):
        network = NetworkState()
        network.partition("a", "b")
        assert network.is_partitioned("a", "b")
        assert network.is_partitioned("b", "a")
        assert not network.is_partitioned("a", "c")

    def test_heal(self):
        network = NetworkState()
        network.partition("a", "b")
        network.heal("b", "a")
        assert not network.is_partitioned("a", "b")

    def test_self_partition_rejected(self):
        with pytest.raises(ConfigurationError):
            NetworkState().partition("a", "a")

    def test_partitions_listing(self):
        network = NetworkState()
        network.partition("b", "a")
        network.partition("c", "d")
        assert network.partitions == [("a", "b"), ("c", "d")]


class TestFaultCampaign:
    def test_window_validation(self, tiny_app):
        campaign = FaultCampaign(FaultInjector(tiny_app))
        with pytest.raises(ConfigurationError):
            campaign.add(ErrorBurst("backend", "1.0.0", "api", 0.5, 10.0, 10.0))
        with pytest.raises(ConfigurationError):
            campaign.add(ErrorBurst("backend", "1.0.0", "api", 0.5, -1.0, 10.0))

    def test_partition_requires_network(self, tiny_app):
        campaign = FaultCampaign(FaultInjector(tiny_app))
        with pytest.raises(ConfigurationError):
            campaign.add(Partition("frontend", "backend", 0.0, 10.0))

    def test_error_burst_window(self, tiny_app):
        simulation = SimulationEngine()
        injector = FaultInjector(tiny_app)
        campaign = FaultCampaign(injector)
        campaign.add(ErrorBurst("backend", "1.0.0", "api", 0.5, 10.0, 20.0))
        assert campaign.install(simulation) == 2

        simulation.run_until(5.0)
        assert tiny_app.resolve("backend").endpoint("api").error_rate == 0.0
        simulation.run_until(15.0)
        assert tiny_app.resolve("backend").endpoint("api").error_rate == pytest.approx(0.5)
        simulation.run_until(25.0)
        assert tiny_app.resolve("backend").endpoint("api").error_rate == 0.0
        assert [e.action for e in campaign.log] == ["activate", "revert"]
        assert [e.time for e in campaign.log] == [10.0, 20.0]

    def test_latency_spike_window(self, tiny_app):
        simulation = SimulationEngine()
        campaign = FaultCampaign(FaultInjector(tiny_app))
        campaign.add(LatencySpike("backend", "1.0.0", "api", 4.0, 5.0, 8.0))
        campaign.install(simulation)
        simulation.run_until(6.0)
        assert tiny_app.resolve("backend").endpoint("api").latency.factor == 4.0
        simulation.run_until(9.0)
        assert isinstance(
            tiny_app.resolve("backend").endpoint("api").latency, ConstantLatency
        )

    def test_version_crash_hits_all_endpoints(self, canary_app):
        simulation = SimulationEngine()
        campaign = FaultCampaign(FaultInjector(canary_app))
        campaign.add(VersionCrash("backend", "2.0.0", 1.0, 3.0))
        campaign.install(simulation)
        simulation.run_until(2.0)
        assert canary_app.resolve("backend", "2.0.0").endpoint("api").error_rate == 1.0
        # The stable version is untouched.
        assert canary_app.resolve("backend", "1.0.0").endpoint("api").error_rate == 0.0
        simulation.run_until(4.0)
        assert canary_app.resolve("backend", "2.0.0").endpoint("api").error_rate == 0.0

    def test_partition_window(self, tiny_app):
        simulation = SimulationEngine()
        network = NetworkState()
        campaign = FaultCampaign(FaultInjector(tiny_app), network=network)
        campaign.add(Partition("frontend", "backend", 2.0, 4.0))
        campaign.install(simulation)
        simulation.run_until(3.0)
        assert network.is_partitioned("frontend", "backend")
        simulation.run_until(5.0)
        assert not network.is_partitioned("frontend", "backend")

    def test_overlapping_faults_compose(self, tiny_app):
        simulation = SimulationEngine()
        campaign = FaultCampaign(FaultInjector(tiny_app))
        campaign.add(LatencySpike("backend", "1.0.0", "api", 2.0, 0.0, 10.0))
        campaign.add(LatencySpike("backend", "1.0.0", "api", 3.0, 5.0, 15.0))
        campaign.install(simulation)
        simulation.run_until(7.0)
        assert tiny_app.resolve("backend").endpoint("api").latency.factor == pytest.approx(6.0)
        simulation.run_until(12.0)
        assert tiny_app.resolve("backend").endpoint("api").latency.factor == pytest.approx(3.0)
        simulation.run_until(20.0)
        assert isinstance(
            tiny_app.resolve("backend").endpoint("api").latency, ConstantLatency
        )

    def test_active_at(self, tiny_app):
        campaign = FaultCampaign(FaultInjector(tiny_app))
        burst = campaign.add(ErrorBurst("backend", "1.0.0", "api", 0.5, 10.0, 20.0))
        assert campaign.active_at(15.0) == [burst]
        assert campaign.active_at(25.0) == []

    def test_install_twice_rejected(self, tiny_app):
        simulation = SimulationEngine()
        campaign = FaultCampaign(FaultInjector(tiny_app))
        campaign.add(ErrorBurst("backend", "1.0.0", "api", 0.5, 1.0, 2.0))
        campaign.install(simulation)
        with pytest.raises(ConfigurationError):
            campaign.install(simulation)
        with pytest.raises(ConfigurationError):
            campaign.add(ErrorBurst("backend", "1.0.0", "api", 0.5, 3.0, 4.0))


class TestOverlappingFaultComposition:
    """Regression tests: nested windows, equal faults, LIFO unwinding."""

    def test_spike_inside_burst_unwinds_cleanly(self, tiny_app):
        # A latency spike nested entirely inside an error burst: the
        # spike's revert must peel off only the spike, and the burst's
        # revert must recover the pristine spec (object identity).
        pristine = tiny_app.resolve("backend").endpoint("api")
        simulation = SimulationEngine()
        campaign = FaultCampaign(FaultInjector(tiny_app))
        campaign.add(ErrorBurst("backend", "1.0.0", "api", 0.5, 5.0, 30.0))
        campaign.add(LatencySpike("backend", "1.0.0", "api", 4.0, 10.0, 20.0))
        campaign.install(simulation)

        simulation.run_until(15.0)
        spec = tiny_app.resolve("backend").endpoint("api")
        assert spec.error_rate == pytest.approx(0.5)
        assert spec.latency.factor == pytest.approx(4.0)

        simulation.run_until(25.0)
        spec = tiny_app.resolve("backend").endpoint("api")
        assert spec.error_rate == pytest.approx(0.5)
        assert isinstance(spec.latency, ConstantLatency)

        simulation.run_until(35.0)
        assert tiny_app.resolve("backend").endpoint("api") is pristine

    def test_equal_overlapping_spikes_restore_independently(self, tiny_app):
        # Two spikes with identical magnitude but staggered windows
        # produce *equal* fault records; each revert must remove its own
        # application, not whichever equal record sits first.
        simulation = SimulationEngine()
        campaign = FaultCampaign(FaultInjector(tiny_app))
        campaign.add(LatencySpike("backend", "1.0.0", "api", 3.0, 0.0, 10.0))
        campaign.add(LatencySpike("backend", "1.0.0", "api", 3.0, 5.0, 15.0))
        campaign.install(simulation)
        simulation.run_until(7.0)
        assert tiny_app.resolve("backend").endpoint("api").latency.factor == pytest.approx(9.0)
        simulation.run_until(12.0)
        assert tiny_app.resolve("backend").endpoint("api").latency.factor == pytest.approx(3.0)
        simulation.run_until(17.0)
        assert isinstance(
            tiny_app.resolve("backend").endpoint("api").latency, ConstantLatency
        )

    def test_equal_degrades_restore_by_identity(self, tiny_app):
        injector = FaultInjector(tiny_app)
        first = injector.degrade("backend", "1.0.0", "api", latency_factor=3.0)
        second = injector.degrade("backend", "1.0.0", "api", latency_factor=3.0)
        assert first == second and first is not second
        injector.restore(first)
        assert tiny_app.resolve("backend").endpoint("api").latency.factor == pytest.approx(3.0)
        injector.restore(second)
        assert isinstance(
            tiny_app.resolve("backend").endpoint("api").latency, ConstantLatency
        )
        with pytest.raises(ConfigurationError):
            injector.restore(second)

    def test_redeploy_after_restore_is_recaptured(self, tiny_app):
        # Once all faults on an endpoint are restored the injector must
        # forget its cached pristine spec: a mid-experiment deploy may
        # replace the endpoint, and the *new* spec becomes the baseline
        # for later fault cycles.
        injector = FaultInjector(tiny_app)
        fault = injector.degrade("backend", "1.0.0", "api", latency_factor=2.0)
        injector.restore(fault)

        version = tiny_app.resolve("backend")
        redeployed = type(version.endpoint("api"))(
            name="api",
            latency=ConstantLatency(99.0),
            error_rate=0.0,
            calls=version.endpoint("api").calls,
        )
        version.endpoints["api"] = redeployed

        fault = injector.degrade("backend", "1.0.0", "api", latency_factor=3.0)
        assert version.endpoint("api").latency.base is redeployed.latency
        injector.restore(fault)
        assert version.endpoint("api") is redeployed


class _RecordingCrashTarget:
    """Minimal CrashTarget double recording the calls it receives."""

    def __init__(self):
        self.calls = []

    def crash(self, now):
        self.calls.append(("crash", now))

    def restart(self, now):
        self.calls.append(("restart", now))


class TestEngineCrashFault:
    def test_crash_and_restart_fire_on_window_bounds(self, tiny_app):
        simulation = SimulationEngine()
        target = _RecordingCrashTarget()
        campaign = FaultCampaign(FaultInjector(tiny_app), engine=target)
        campaign.add(EngineCrash(5.0, 9.0))
        campaign.install(simulation)
        simulation.run_until(6.0)
        assert target.calls == [("crash", 5.0)]
        simulation.run_until(10.0)
        assert target.calls == [("crash", 5.0), ("restart", 9.0)]

    def test_engine_crash_without_target_rejected_at_install(self, tiny_app):
        simulation = SimulationEngine()
        campaign = FaultCampaign(FaultInjector(tiny_app))
        campaign.add(EngineCrash(1.0, 2.0))  # add() accepts; wiring comes later
        with pytest.raises(ConfigurationError):
            campaign.install(simulation)

    def test_target_wired_after_add_is_accepted(self, tiny_app):
        simulation = SimulationEngine()
        campaign = FaultCampaign(FaultInjector(tiny_app))
        campaign.add(EngineCrash(1.0, 2.0))
        campaign.engine = _RecordingCrashTarget()
        assert campaign.install(simulation) == 2

    def test_window_validation_applies(self, tiny_app):
        campaign = FaultCampaign(FaultInjector(tiny_app))
        with pytest.raises(ConfigurationError):
            campaign.add(EngineCrash(5.0, 5.0))
        with pytest.raises(ConfigurationError):
            campaign.add(EngineCrash(-1.0, 5.0))

    def test_logged_like_other_faults(self, tiny_app):
        simulation = SimulationEngine()
        campaign = FaultCampaign(FaultInjector(tiny_app), engine=_RecordingCrashTarget())
        crash = campaign.add(EngineCrash(1.0, 2.0))
        campaign.install(simulation)
        simulation.run_until(3.0)
        assert [(e.action, e.fault) for e in campaign.log] == [
            ("activate", crash),
            ("revert", crash),
        ]
        assert campaign.active_at(1.5) == [crash]

"""Unit tests for the simulation kernel: clock, engine, rng, latency."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.simulation.clock import SimulationClock
from repro.simulation.engine import SimulationEngine
from repro.simulation.latency import (
    CompositeLatency,
    ConstantLatency,
    LoadSensitiveLatency,
    LogNormalLatency,
)
from repro.simulation.rng import SeededRng


class TestClock:
    def test_starts_at_zero(self):
        assert SimulationClock().now == 0.0

    def test_advance(self):
        clock = SimulationClock()
        assert clock.advance(1.5) == 1.5
        assert clock.now == 1.5

    def test_advance_to(self):
        clock = SimulationClock()
        clock.advance_to(10.0)
        assert clock.now == 10.0

    def test_no_backwards_travel(self):
        clock = SimulationClock()
        clock.advance(5.0)
        with pytest.raises(SimulationError):
            clock.advance(-1.0)
        with pytest.raises(SimulationError):
            clock.advance_to(1.0)


class TestEngine:
    def test_events_run_in_time_order(self):
        engine = SimulationEngine()
        order = []
        engine.schedule_at(2.0, lambda: order.append("b"))
        engine.schedule_at(1.0, lambda: order.append("a"))
        engine.run()
        assert order == ["a", "b"]

    def test_same_time_fifo(self):
        engine = SimulationEngine()
        order = []
        engine.schedule_at(1.0, lambda: order.append(1))
        engine.schedule_at(1.0, lambda: order.append(2))
        engine.run()
        assert order == [1, 2]

    def test_clock_advances_with_events(self):
        engine = SimulationEngine()
        seen = []
        engine.schedule_at(3.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [3.0]

    def test_run_until_stops_at_horizon(self):
        engine = SimulationEngine()
        ran = []
        engine.schedule_at(1.0, lambda: ran.append(1))
        engine.schedule_at(10.0, lambda: ran.append(10))
        engine.run_until(5.0)
        assert ran == [1]
        assert engine.now == 5.0

    def test_run_until_advances_clock_even_without_events(self):
        engine = SimulationEngine()
        engine.run_until(7.0)
        assert engine.now == 7.0

    def test_callbacks_can_reschedule(self):
        engine = SimulationEngine()
        ticks = []

        def tick():
            ticks.append(engine.now)
            if len(ticks) < 3:
                engine.schedule_at(engine.now + 1.0, tick)

        engine.schedule_at(0.0, tick)
        engine.run()
        assert ticks == [0.0, 1.0, 2.0]

    def test_cancelled_events_skipped(self):
        engine = SimulationEngine()
        ran = []
        event = engine.schedule_at(1.0, lambda: ran.append(1))
        event.cancel()
        engine.run()
        assert ran == []

    def test_no_scheduling_in_past(self):
        engine = SimulationEngine()
        engine.clock.advance(5.0)
        with pytest.raises(SimulationError):
            engine.schedule_at(1.0, lambda: None)


class TestRng:
    def test_same_seed_same_stream(self):
        a, b = SeededRng(7), SeededRng(7)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_seeds_differ(self):
        assert SeededRng(1).random() != SeededRng(2).random()

    def test_fork_is_deterministic(self):
        a = SeededRng(7).fork("traffic")
        b = SeededRng(7).fork("traffic")
        assert a.random() == b.random()

    def test_forks_with_different_labels_differ(self):
        root = SeededRng(7)
        assert root.fork("x").random() != root.fork("y").random()


class TestLatencyModels:
    def test_constant(self):
        model = ConstantLatency(5.0)
        assert model.sample(SeededRng(1)) == 5.0

    def test_constant_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            ConstantLatency(-1.0)

    def test_lognormal_positive(self):
        model = LogNormalLatency(20.0, 0.3)
        rng = SeededRng(2)
        assert all(model.sample(rng) > 0 for _ in range(100))

    def test_lognormal_median_approx(self):
        model = LogNormalLatency(20.0, 0.3)
        rng = SeededRng(3)
        samples = sorted(model.sample(rng) for _ in range(4001))
        assert samples[2000] == pytest.approx(20.0, rel=0.1)

    def test_lognormal_zero_sigma_degenerate(self):
        model = LogNormalLatency(15.0, 0.0)
        assert model.sample(SeededRng(1)) == 15.0

    def test_lognormal_rejects_bad_median(self):
        with pytest.raises(ConfigurationError):
            LogNormalLatency(0.0)

    def test_load_sensitive_inflates_over_capacity(self):
        base = ConstantLatency(10.0)
        model = LoadSensitiveLatency(base, pressure=0.5)
        rng = SeededRng(1)
        assert model.sample(rng, load=1.0) == 10.0
        assert model.sample(rng, load=3.0) == pytest.approx(20.0)

    def test_load_sensitive_no_deflation_below_capacity(self):
        model = LoadSensitiveLatency(ConstantLatency(10.0))
        assert model.sample(SeededRng(1), load=0.1) == 10.0

    def test_composite_sums(self):
        model = CompositeLatency(ConstantLatency(3.0), ConstantLatency(4.0))
        assert model.sample(SeededRng(1)) == 7.0

    def test_composite_requires_components(self):
        with pytest.raises(ConfigurationError):
            CompositeLatency()

"""Unit tests for the simulated single-threaded executor."""

import pytest

from repro.errors import SimulationError
from repro.simulation.executor import SimulatedExecutor


class TestSubmit:
    def test_idle_worker_starts_immediately(self):
        executor = SimulatedExecutor()
        record = executor.submit(1.0, 0.5)
        assert record.start == 1.0
        assert record.finish == 1.5
        assert record.delay == 0.0

    def test_busy_worker_queues(self):
        executor = SimulatedExecutor()
        executor.submit(0.0, 1.0)
        record = executor.submit(0.1, 1.0)
        assert record.start == 1.0
        assert record.delay == pytest.approx(0.9)

    def test_gap_resets_queue(self):
        executor = SimulatedExecutor()
        executor.submit(0.0, 0.5)
        record = executor.submit(10.0, 0.5)
        assert record.delay == 0.0

    def test_burst_delay_grows_linearly(self):
        executor = SimulatedExecutor()
        delays = [executor.submit(0.0, 0.1).delay for _ in range(5)]
        assert delays == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4])

    def test_rejects_negative_cost(self):
        with pytest.raises(SimulationError):
            SimulatedExecutor().submit(0.0, -1.0)

    def test_rejects_time_travel(self):
        executor = SimulatedExecutor()
        executor.submit(5.0, 0.1)
        with pytest.raises(SimulationError):
            executor.submit(4.0, 0.1)


class TestReporting:
    def test_report_counts(self):
        executor = SimulatedExecutor()
        for i in range(4):
            executor.submit(float(i), 0.25)
        report = executor.report()
        assert report.tasks == 4
        assert report.busy_time == pytest.approx(1.0)
        assert 0.0 < report.utilization <= 1.0

    def test_report_requires_tasks(self):
        with pytest.raises(SimulationError):
            SimulatedExecutor().report()

    def test_saturated_utilization_is_one(self):
        executor = SimulatedExecutor()
        for i in range(10):
            executor.submit(float(i), 1.0)
        report = executor.report()
        assert report.utilization == pytest.approx(1.0)

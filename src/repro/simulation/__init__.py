"""Deterministic simulation kernel.

The dissertation's evaluations ran on public-cloud VMs; this repo replaces
that testbed with a discrete-event simulation so every experiment is
reproducible on a laptop.  The kernel provides:

- :class:`SimulationClock` — the single source of simulated time,
- :class:`EventQueue` / :class:`SimulationEngine` — a discrete-event loop,
- :class:`SimulatedExecutor` — a single-threaded executor with explicit
  per-task costs, onto which :func:`repro.bifrost.engine.engine_load`
  folds journaled engine work for the "CPU utilization" and
  check-evaluation delay of Figs 4.7–4.10,
- latency models for simulated service handlers.
"""

from repro.simulation.clock import SimulationClock
from repro.simulation.engine import EventQueue, ScheduledEvent, SimulationEngine
from repro.simulation.executor import ExecutorReport, SimulatedExecutor
from repro.simulation.latency import (
    CompositeLatency,
    ConstantLatency,
    LatencyModel,
    LoadSensitiveLatency,
    LogNormalLatency,
)
from repro.simulation.rng import SeededRng

__all__ = [
    "SimulationClock",
    "EventQueue",
    "ScheduledEvent",
    "SimulationEngine",
    "ExecutorReport",
    "SimulatedExecutor",
    "LatencyModel",
    "ConstantLatency",
    "LogNormalLatency",
    "LoadSensitiveLatency",
    "CompositeLatency",
    "SeededRng",
]

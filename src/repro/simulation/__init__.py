"""Deterministic simulation kernel.

The dissertation's evaluations ran on public-cloud VMs; this repo replaces
that testbed with a discrete-event simulation so every experiment is
reproducible on a laptop.  The kernel provides:

- :class:`~repro.simulation.clock.SimulationClock` — the single source of
  simulated time,
- :class:`~repro.simulation.engine.EventQueue` /
  :class:`~repro.simulation.engine.SimulationEngine` — a discrete-event
  loop,
- :class:`~repro.simulation.executor.SimulatedExecutor` — a single-threaded
  executor with explicit per-task costs, onto which
  :func:`repro.bifrost.engine.engine_load` folds journaled engine work for
  the "CPU utilization" and check-evaluation delay of Figs 4.7–4.10,
- latency models for simulated service handlers.
"""

"""Fenrir: search-based scheduling of continuous experiments (Chapter 3).

Scheduling is formulated as an optimization problem over a discrete time
horizon and an expected traffic profile: each experiment needs a start
slot, a duration, a traffic fraction, and a set of user groups, such that
every experiment collects its required sample size, experiments never
oversubscribe a user group's traffic (no overlapping experiments), and
the schedule maximizes a fitness combining short durations, early starts,
and preferred-group coverage.

Four solvers are provided, mirroring the paper's comparison: a genetic
algorithm (Fenrir proper), random sampling, local search, and simulated
annealing — all driven by an equal fitness-evaluation budget in which
every evaluation is charged.
"""

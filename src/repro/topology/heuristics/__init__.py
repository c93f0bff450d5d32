"""Ranking heuristics (Sections 5.5.3–5.5.5).

Three families, six evaluated variants — mirroring the paper's setup:

- ``SC`` / ``SC-plain``: subtree complexity, with and without
  uncertainty weighting,
- ``RT-abs`` / ``RT-rel``: response-time analysis with absolute and
  relative degradation deltas,
- ``HY-abs`` / ``HY-rel``: hybrids combining subtree complexity with
  either response-time variant.

:func:`~repro.topology.heuristics.hybrid.all_heuristic_variants` builds
all six.
"""

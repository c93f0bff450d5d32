"""Runtime traffic routing.

The study (Chapter 2) identified runtime traffic routing as the
implementation technique that escapes feature-toggle technical debt:
experimentation logic moves from source code to the network level, and
services stay black boxes.  Bifrost builds on exactly this mechanism.

This package provides the routing rules (audience filters + sticky variant
splits + shadow duplication) and
:class:`~repro.routing.proxy.VersionRouter`, the router the simulated
runtime consults on every service call.
"""

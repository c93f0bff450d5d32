"""repro — Continuous Experimentation for Software Developers.

A from-scratch reproduction of Gerald Schermann's dissertation
(Middleware 2017 doctoral symposium / University of Zurich, 2019):

- :mod:`repro.fenrir` — search-based scheduling of experiments,
- :mod:`repro.bifrost` — automated enactment of multi-phase live
  testing strategies,
- :mod:`repro.topology` — topology-aware experiment health assessment,
- :mod:`repro.core` — the conceptual framework tying the life-cycle
  phases together,
- plus the substrates everything runs on: a simulated microservice
  application (:mod:`repro.microservices`), runtime traffic routing
  (:mod:`repro.routing`), distributed tracing (:mod:`repro.tracing`),
  telemetry (:mod:`repro.telemetry`), traffic/workload generation
  (:mod:`repro.traffic`), a deterministic simulation kernel
  (:mod:`repro.simulation`), a statistics toolkit (:mod:`repro.stats`),
  and the Chapter 2 study data (:mod:`repro.study`).

Quickstart::

    from repro.core.framework import ExperimentationFramework
    from repro.topology.scenarios import sample_application

    framework = ExperimentationFramework(sample_application())
"""

"""The request kernel: the one per-hop algorithm of the repo.

``Runtime.execute`` runs a :class:`~repro.traffic.workload.Request` through
its general hop (:mod:`.core`);
:func:`~repro.microservices.kernel.columns.run_slice` runs the rows of a
:class:`~repro.traffic.batch.RequestBatch` as columns (:mod:`.plan`,
:mod:`.columns`) or on the general hop.  Either way the runtime's RNG
stream, load deques, float operations and metric samples are the same, in
the same order, so every engine decision is bit-identical
(``tests/property/test_batch_equivalence.py``); docs/PERF_KERNEL.md
describes both hops.
"""

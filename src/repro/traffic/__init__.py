"""Traffic profiles, user populations, and workload generation.

Fenrir schedules experiments against an expected *traffic profile* (requests
per time slot and user group — Fig 3.3 shows the real-world profile the
paper used; we synthesize an equivalent diurnal/weekly shape). Bifrost and
the topology evaluation drive a simulated application with request
*workloads* at a configured arrival rate.  One draw loop,
:class:`~repro.traffic.batch.BatchWorkloadGenerator`, produces them as
columnar :class:`~repro.traffic.batch.RequestBatch` chunks for
million-request replays through the batch execution kernel;
:class:`~repro.traffic.workload.WorkloadGenerator` yields the same streams'
rows one request object at a time.
"""

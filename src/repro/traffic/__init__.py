"""Traffic profiles, user populations, and workload generation.

Fenrir schedules experiments against an expected *traffic profile*
(requests per time slot and user group — Fig 3.3 shows the real-world
profile the paper used; we synthesize an equivalent diurnal/weekly shape).
Bifrost and the topology evaluation drive a simulated application with
request *workloads* at a configured arrival rate.  One draw loop,
:class:`BatchWorkloadGenerator`, produces them as columnar
:class:`RequestBatch` chunks for million-request replays through the
batch execution kernel; :class:`WorkloadGenerator` yields the same
streams' rows one request object at a time.
"""

from repro.traffic.batch import BatchWorkloadGenerator, RequestBatch
from repro.traffic.profile import TrafficProfile, UserGroup, diurnal_profile
from repro.traffic.users import UserPopulation, bucket_user
from repro.traffic.workload import Request, WorkloadGenerator

__all__ = [
    "TrafficProfile",
    "UserGroup",
    "diurnal_profile",
    "UserPopulation",
    "bucket_user",
    "Request",
    "WorkloadGenerator",
    "BatchWorkloadGenerator",
    "RequestBatch",
]

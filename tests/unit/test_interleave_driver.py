"""The interleave contract of the SIM and REPLAY substrates.

One driver, ``repro.simulation.batch.drive``, runs rows between engine
events for three sources: columnar batch rows (``run_batches``), a
``Request`` list (``Bifrost.run``) and a recording
(``ReplayBackend.execute``).  Every engine event due at or before a row's
time runs before that row, and it reads a store that holds every earlier
row's samples and none of that row's.
"""

import json

import numpy as np
import pytest

from repro.bifrost.middleware import Bifrost
from repro.exec.replay import ReplayBackend
from repro.exec.router import ExecutionRouter
from repro.microservices.application import Application
from repro.microservices.service import DownstreamCall, ServiceVersion
from repro.simulation.engine import SimulationEngine
from repro.telemetry.store import MetricStore
from repro.traffic.batch import RequestBatch
from repro.traffic.profile import DEFAULT_GROUPS
from repro.traffic.users import UserPopulation
from repro.traffic.workload import Request
from tests.conftest import constant_endpoint
from tests.property.test_record_chain_equivalence import reference_tap
from tests.property.test_write_path_equivalence import reference_replay
from tests.unit.test_exec_modes import canary_strategy

SEED = 3


def build_app() -> Application:
    """frontend -> backend, with a backend 2.0.0 canary candidate."""
    app = Application("tiny")
    app.deploy(
        ServiceVersion(
            "frontend",
            "1.0.0",
            {"home": constant_endpoint("home", 10.0, (DownstreamCall("backend", "api"),))},
        ),
        stable=True,
    )
    app.deploy(
        ServiceVersion("backend", "1.0.0", {"api": constant_endpoint("api", 20.0)}),
        stable=True,
    )
    app.deploy(ServiceVersion("backend", "2.0.0", {"api": constant_endpoint("api", 30.0)}))
    return app


def requests(times):
    return [
        Request(f"r{i}", t, f"u{i}", "eu", "frontend.home", {"user-id": f"u{i}"})
        for i, t in enumerate(times)
    ]


def batch_of(times) -> RequestBatch:
    population = UserPopulation(50, DEFAULT_GROUPS, seed=1)
    return RequestBatch(
        0, np.array(times, dtype=np.float64), np.arange(len(times)),
        "frontend.home", population,
    )


def frontend_samples(store) -> int:
    return len(store.series("frontend", "1.0.0", "throughput"))


# -- the three sources: each runs rows at *times* with a probe event at each
# -- of *probes* that appends what it reads to *seen*, and returns the store.


def batch_rows(times, probes, seen):
    bifrost = Bifrost(build_app(), seed=SEED)
    for at in probes:
        bifrost.simulation.schedule_at(
            at, lambda: seen.append(frontend_samples(bifrost.store)), "probe"
        )
    assert bifrost.run_batches([batch_of(times)]).requests == len(times)
    return bifrost.store


def request_list(times, probes, seen):
    bifrost = Bifrost(build_app(), seed=SEED)
    for at in probes:
        bifrost.simulation.schedule_at(
            at, lambda: seen.append(frontend_samples(bifrost.store)), "probe"
        )
    assert len(bifrost.run(requests(times))) == len(times)
    return bifrost.store


def recording(times, probes, seen):
    report = ExecutionRouter(build_app, seed=SEED).run(
        canary_strategy(), workload=requests(times), record=True
    )
    stores = []

    class CapturedStore(MetricStore):
        def __init__(self):
            super().__init__()
            stores.append(self)

    class ProbedEngine(SimulationEngine):
        def __init__(self, clock=None):
            super().__init__(clock)
            for at in probes:
                self.schedule_at(
                    at, lambda: seen.append(frontend_samples(stores[-1])), "probe"
                )

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.microservices.runtime.MetricStore", CapturedStore)
        patch.setattr("repro.bifrost.middleware.SimulationEngine", ProbedEngine)
        result = ReplayBackend(build_app).execute(report.recording)
    assert result.requests == len(times)
    return result.middleware.store


SOURCES = [batch_rows, request_list, recording]


class TestInterleaveContract:
    @pytest.mark.parametrize("source", SOURCES, ids=lambda f: f.__name__)
    def test_an_event_at_a_row_timestamp_runs_before_that_row(self, source):
        seen = []
        store = source([0.0, 1.0, 2.0, 3.0], [0.0, 2.0, 2.5], seen)
        # At 0.0 and 2.0 the row at that time has not run; at 2.5 it has.
        assert seen == [0, 2, 3]
        assert frontend_samples(store) == 4

    @pytest.mark.parametrize(
        "run",
        [
            lambda bifrost, times: bifrost.run_batches([batch_of(times)]),
            lambda bifrost, times: bifrost.run(requests(times)),
        ],
        ids=["batch_rows", "request_list"],
    )
    def test_an_event_the_clock_already_passed_runs_before_the_next_row(self, run):
        bifrost = Bifrost(build_app(), seed=SEED)
        seen = []
        bifrost.simulation.schedule_at(
            1.8, lambda: seen.append(frontend_samples(bifrost.store)), "probe"
        )
        bifrost.runtime.execute(requests([2.0])[0])  # the clock moves to 2.0
        run(bifrost, [1.5])  # runs at 2.0, so after the event at 1.8
        assert seen == [1]
        assert frontend_samples(bifrost.store) == 2

    def test_an_out_of_order_request_list_equals_the_reference(self):
        times = [0.0, 5.0, 3.0, 6.0]
        runs = []
        for run in (
            lambda bifrost: bifrost.run(requests(times)),
            lambda bifrost: list(
                reference_replay(bifrost.runtime, bifrost.simulation, requests(times))
            ),
        ):
            bifrost = Bifrost(build_app(), seed=SEED)
            bifrost.submit(canary_strategy(), at=0.0)
            seen = []
            for at in (3.0, 5.0, 5.5):
                bifrost.simulation.schedule_at(
                    at,
                    lambda b=bifrost: seen.append((b.simulation.now, b.store.snapshot())),
                    "probe",
                )
            outcomes = [
                (o.request, o.trace.trace_id, o.duration_ms, o.error, o.version_path)
                for o in run(bifrost)
            ]
            runs.append((bifrost.store.snapshot(), outcomes, seen))
        assert runs[0] == runs[1]
        # The row stamped 3.0 arrives after the one at 5.0, so it runs at 5.0.
        assert [o[0].timestamp for o in runs[0][1]] == times
        assert [now for now, _ in runs[0][2]] == [3.0, 5.0, 5.5]

    def test_an_out_of_order_recording_replays_digest_equal(self):
        times = [0.0, 5.0, 3.0, 6.0]
        router = ExecutionRouter(build_app, seed=SEED)
        recorded = router.run(
            canary_strategy(), workload=requests(times), until=40.0, record=True,
        )
        replayed = router.run(recording=recorded.recording)
        assert replayed.replay.digest_match
        assert replayed.replay.identical, replayed.replay.describe()
        # SIM packs the hand-built requests ("u0", out of order) into rows;
        # its request lines are those of the same requests through Bifrost.run.
        oracle = Bifrost(build_app(), seed=SEED)
        oracle.engine.submit(canary_strategy(), at=0.0)
        outcomes = oracle.run(requests(times), until=40.0)
        lines = list(recorded.recording.requests.jsonl_lines())
        assert lines == list(reference_tap(outcomes).jsonl_lines())
        assert [json.loads(line)["t"] for line in lines] == times

    def test_a_recording_without_requests_replays_digest_equal(self):
        router = ExecutionRouter(build_app, seed=SEED)
        recorded = router.run(canary_strategy(), workload=[], until=40.0, record=True)
        assert len(recorded.recording.requests) == 0
        replayed = router.run(recording=recorded.recording)
        assert replayed.replay.digest_match
        assert replayed.replay.identical, replayed.replay.describe()

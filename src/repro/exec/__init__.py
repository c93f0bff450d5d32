"""Mode-aware execution backends: one DSL strategy, three substrates.

The execution router makes the paper's portability claim concrete: a
Bifrost strategy (the DSL artifact teams version next to their code)
runs unmodified against

- **SIM** — the in-process discrete-event simulator,
- **REPLAY** — a recorded run re-driven at original logical timestamps
  and diffed outcome-by-outcome (:func:`diff_replay`),
- **LIVE** — a real asyncio/HTTP microservice testbed on loopback
  sockets, routed by the same proxy layer the engine installs
  experiment routes into.

All three run the engine on a :class:`~repro.bifrost.middleware.Bifrost`
facade and return one :class:`RunResult`; the router turns it into one
:class:`ExecutionReport`.

See ``docs/EXECUTION_MODES.md`` for the mode matrix and workflows.
"""

from repro.exec.live import LiveBackend, LiveCluster, LiveOptions
from repro.exec.recording import (
    RecordedRequest,
    RecordedRequests,
    RecordedSpan,
    Recording,
    run_digest,
)
from repro.exec.replay import ReplayBackend, ReplayDiff, diff_replay
from repro.exec.router import ExecutionMode, ExecutionReport, ExecutionRouter
from repro.exec.sim import RunResult, SimBackend

__all__ = [
    "ExecutionMode",
    "ExecutionReport",
    "ExecutionRouter",
    "LiveBackend",
    "LiveCluster",
    "LiveOptions",
    "RecordedRequest",
    "RecordedRequests",
    "RecordedSpan",
    "Recording",
    "ReplayBackend",
    "ReplayDiff",
    "RunResult",
    "SimBackend",
    "diff_replay",
    "run_digest",
]

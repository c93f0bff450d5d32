"""SIM backend, and the run result every backend returns.

Thin composition over the :class:`~repro.bifrost.middleware.Bifrost`
facade, so everything the simulator supports (fault campaigns,
durability, resilience policies and breakers) stays available.  The
``Request`` stream is packed into rows over its own users
(:func:`~repro.traffic.batch.pack_requests`) and runs on the request
kernel's batch driver (:meth:`Bifrost.run_batches`), the one SIM
execution path.  When asked to record, a lossless event subscription and
the column-fed :class:`~repro.exec.recording.RecordingTap` produce a
:class:`~repro.exec.recording.Recording` the REPLAY backend can re-drive:
the identity columns come from the ``Request`` objects, the results
(durations, errors, spans) from the kernel's columns.

REPLAY and LIVE build the same facade, so one :class:`RunResult` carries
what any of the three substrates produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.bifrost.middleware import Bifrost
from repro.bifrost.model import Strategy
from repro.exec.recording import RecordedRequests, Recording, RecordingTap, run_digest
from repro.microservices.application import Application
from repro.obs.events import Event
from repro.obs.observer import Observer
from repro.traffic.batch import pack_requests
from repro.traffic.workload import Request


@dataclass
class RunResult:
    """What one execution produced, whatever the substrate.

    ``recording`` comes from SIM, ``digest`` from REPLAY,
    ``wall_seconds`` and ``ports`` from LIVE.
    """

    middleware: Bifrost
    strategy: Strategy
    requests: int
    errors: int
    recording: Recording | None = None
    digest: str | None = None
    wall_seconds: float | None = None
    ports: dict[str, int] = field(default_factory=dict)

    @property
    def executions(self):
        return self.middleware.engine.executions

    @property
    def provenance(self):
        """The engine-side decision-provenance graph (None when the run
        was dark or the observer's provenance fold was disabled)."""
        tracker = self.middleware.observer.provenance
        return None if tracker is None else tracker.graph()


class SimBackend:
    """Runs a strategy against a fresh simulated application."""

    def __init__(
        self,
        application_factory: Callable[[], Application],
        seed: int = 42,
        middleware_kwargs: dict | None = None,
    ) -> None:
        self.application_factory = application_factory
        self.seed = seed
        self.middleware_kwargs = dict(middleware_kwargs or {})

    def execute(
        self,
        strategy: Strategy,
        workload: Iterable[Request],
        until: float | None = None,
        submit_at: float = 0.0,
        record: bool = False,
    ) -> RunResult:
        """Submit *strategy*, replay *workload*, optionally record.

        Recording attaches a lossless subscriber to the observer's event
        ring *before* anything runs, so the recording's event stream is
        complete even when the bounded ring later evicts its prefix, and
        the recording tap to the trace collector.
        """
        kwargs = dict(self.middleware_kwargs)
        captured: list[Event] = []
        observer = kwargs.pop("observer", None)
        if record and observer is None:
            observer = Observer(enabled=True)
        middleware = Bifrost(
            self.application_factory(),
            seed=self.seed,
            observer=observer,
            **kwargs,
        )
        requests = list(workload)
        if record:
            middleware.observer.events.subscribe(captured.append)
            tap = RecordingTap(RecordedRequests())
            middleware.collector.subscribe(tap.on_trace, tap.on_columns)
        # Submit through the engine, not the facade: the router resolved
        # the mode deliberately (an explicit mode= argument overrides the
        # strategy's DSL pin), so the facade's mode guard must not veto.
        middleware.engine.submit(strategy, at=submit_at)
        result = middleware.run_batches(pack_requests(requests), until=until)
        recording: Recording | None = None
        if record:
            from repro.bifrost.dsl import strategy_to_dsl
            from repro.bifrost.model import strategy_to_dict

            tap.requests.add_identity(requests)
            recording = Recording(
                strategy_doc=strategy_to_dict(strategy),
                strategy_dsl=strategy_to_dsl(strategy),
                seed=self.seed,
                submit_at=submit_at,
                end_time=middleware.simulation.now,
                events=captured,
                requests=tap.requests,
                digest=run_digest(middleware.store, middleware.engine.executions),
                outcomes={
                    e.strategy.name: e.outcome.value
                    for e in middleware.engine.executions
                },
                mode="sim",
            )
        return RunResult(
            middleware=middleware,
            strategy=strategy,
            requests=result.requests,
            errors=result.errors,
            recording=recording,
        )

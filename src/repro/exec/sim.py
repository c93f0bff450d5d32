"""SIM backend, and the run result every backend returns.

Thin composition over the :class:`~repro.bifrost.middleware.Bifrost`
facade (so everything the simulator supports — fault campaigns,
durability, the batch kernel — stays available) plus the recording
tap: when asked to record, a lossless event subscription and per-request
span extraction produce a :class:`~repro.exec.recording.Recording` the
REPLAY backend can re-drive.

REPLAY and LIVE build the same facade, so one :class:`RunResult` carries
what any of the three substrates produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.bifrost.middleware import Bifrost
from repro.bifrost.model import Strategy
from repro.exec.recording import RecordedRequests, Recording, run_digest
from repro.microservices.application import Application
from repro.microservices.runtime import RequestOutcome
from repro.obs.events import Event
from repro.obs.observer import Observer
from repro.traffic.workload import Request


@dataclass
class RunResult:
    """What one execution produced, whatever the substrate.

    ``outcomes`` and ``recording`` come from SIM, ``digest`` from REPLAY,
    ``wall_seconds`` and ``ports`` from LIVE.
    """

    middleware: Bifrost
    strategy: Strategy
    requests: int
    errors: int
    outcomes: list[RequestOutcome] | None = None
    recording: Recording | None = None
    digest: str | None = None
    wall_seconds: float | None = None
    ports: dict[str, int] = field(default_factory=dict)

    @property
    def engine(self):
        return self.middleware.engine

    @property
    def executions(self):
        return self.middleware.engine.executions

    @property
    def store(self):
        return self.middleware.store

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
        complete even when the bounded ring later evicts its prefix.
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
        if record:
            middleware.observer.events.subscribe(captured.append)
        # Submit through the engine, not the facade: the router resolved
        # the mode deliberately (an explicit mode= argument overrides the
        # strategy's DSL pin), so the facade's mode guard must not veto.
        middleware.engine.submit(strategy, at=submit_at)
        outcomes = middleware.run(workload, until=until)
        recording: Recording | None = None
        if record:
            from repro.bifrost.dsl import strategy_to_dsl
            from repro.bifrost.model import strategy_to_dict

            requests = RecordedRequests()
            requests.add_requests(
                [outcome.request for outcome in outcomes],
                outcomes,
                [outcome.trace for outcome in outcomes],
            )
            recording = Recording(
                strategy_doc=strategy_to_dict(strategy),
                strategy_dsl=strategy_to_dsl(strategy),
                seed=self.seed,
                submit_at=submit_at,
                end_time=middleware.simulation.now,
                events=captured,
                requests=requests,
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
            requests=len(outcomes),
            errors=sum(1 for outcome in outcomes if outcome.error),
            outcomes=outcomes,
            recording=recording,
        )

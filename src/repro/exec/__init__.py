"""Mode-aware execution backends: one DSL strategy, three substrates.

The execution router makes the paper's portability claim concrete: a
Bifrost strategy (the DSL artifact teams version next to their code)
runs unmodified against

- **SIM** — the in-process discrete-event simulator,
- **REPLAY** — a recorded run re-driven at original logical timestamps
  and diffed outcome-by-outcome (:func:`~repro.exec.replay.diff_replay`),
- **LIVE** — a real asyncio/HTTP microservice testbed on loopback
  sockets, routed by the same proxy layer the engine installs
  experiment routes into.

All three run the engine on a :class:`~repro.bifrost.middleware.Bifrost`
facade and return one :class:`~repro.exec.sim.RunResult`; the router turns
it into one :class:`~repro.exec.router.ExecutionReport`.

See ``docs/EXECUTION_MODES.md`` for the mode matrix and workflows.
"""

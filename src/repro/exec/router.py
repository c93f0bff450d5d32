"""The execution router: one strategy artifact, three substrates.

The paper's portability claim made executable: the *same* DSL strategy
file runs unmodified against

- **SIM** — the in-process simulator (:class:`~repro.exec.sim.SimBackend`),
- **REPLAY** — a recorded run re-driven and diffed
  (:class:`~repro.exec.replay.ReplayBackend` + :func:`~repro.exec.replay.diff_replay`),
- **LIVE** — real asyncio HTTP servers on loopback sockets
  (:class:`~repro.exec.live.LiveBackend`).

Every backend runs its engine on a :class:`~repro.bifrost.middleware.Bifrost`
facade and returns one :class:`~repro.exec.sim.RunResult`, from which the
router builds one :class:`ExecutionReport`.

Mode selection is layered: an explicit ``mode=`` argument wins, then the
strategy's own ``mode sim|replay|live`` DSL declaration, then SIM.  The
router never mutates the strategy — backends receive it verbatim, which
is the whole point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

from repro.bifrost.dsl import parse_strategy
from repro.bifrost.model import Strategy, StrategyOutcome
from repro.errors import ConfigurationError
from repro.exec.recording import Recording
from repro.exec.replay import ReplayBackend, ReplayDiff, diff_replay
from repro.exec.sim import RunResult, SimBackend
from repro.microservices.application import Application
from repro.traffic.workload import Request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.live import LiveBackend, LiveOptions


class ExecutionMode(enum.Enum):
    """The three substrates a strategy can run against."""

    SIM = "sim"
    REPLAY = "replay"
    LIVE = "live"

    @classmethod
    def coerce(cls, value: "ExecutionMode | str") -> "ExecutionMode":
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value))
        except ValueError:
            raise ConfigurationError(
                f"unknown execution mode {value!r} "
                f"(expected one of {[m.value for m in cls]})"
            ) from None


@dataclass
class ExecutionReport:
    """Uniform result of one routed execution, whatever the substrate."""

    mode: ExecutionMode
    strategy: str
    outcome: StrategyOutcome
    state: str
    winner: str | None = None
    stable_after: dict[str, str] = field(default_factory=dict)
    requests: int = 0
    errors: int = 0
    sim_seconds: float = 0.0
    wall_seconds: float | None = None
    recording: Recording | None = None
    replay: ReplayDiff | None = None
    details: object = None

    def describe(self) -> str:
        line = (
            f"[{self.mode.value}] {self.strategy}: {self.outcome.value} "
            f"({self.requests} requests, {self.errors} errors, "
            f"t={self.sim_seconds:.1f}s logical"
        )
        if self.wall_seconds is not None:
            line += f", {self.wall_seconds:.2f}s wall"
        line += ")"
        if self.winner:
            line += f" winner={self.winner}"
        return line


class ExecutionRouter:
    """Routes a strategy to its execution backend.

    Args:
        application: the application under experiment — either an
            :class:`Application` *factory* (preferred: every run gets a
            fresh world, so promotes don't leak between runs) or a
            single instance (reused verbatim; fine for one-shot use).
        seed: substrate seed, shared by all backends.
        sim_kwargs: extra keyword arguments for the SIM middleware
            (``durable=``, ``resilience=``, ``observer=``, ...).
        live_options: socket/timing knobs of the LIVE testbed, which is
            built on the first LIVE run: a SIM or REPLAY run never loads
            its asyncio/socket stack.
    """

    def __init__(
        self,
        application: Application | Callable[[], Application],
        seed: int = 42,
        sim_kwargs: dict | None = None,
        live_options: LiveOptions | None = None,
    ) -> None:
        if isinstance(application, Application):
            self._factory: Callable[[], Application] = lambda: application
        else:
            self._factory = application
        self.seed = seed
        self.sim = SimBackend(self._factory, seed=seed, middleware_kwargs=sim_kwargs)
        self.replay = ReplayBackend(self._factory)
        self.live_options = live_options
        self.live: LiveBackend | None = None

    def resolve_mode(
        self,
        strategy: Strategy | None,
        mode: ExecutionMode | str | None,
        recording: Recording | None,
    ) -> ExecutionMode:
        """Explicit argument > strategy's DSL ``mode`` > recording > SIM."""
        if mode is not None:
            return ExecutionMode.coerce(mode)
        if strategy is not None and strategy.execution_mode != "sim":
            return ExecutionMode.coerce(strategy.execution_mode)
        if recording is not None:
            return ExecutionMode.REPLAY
        return ExecutionMode.SIM

    def run(
        self,
        strategy: Strategy | str | None = None,
        *,
        workload: Iterable[Request] | None = None,
        until: float | None = None,
        mode: ExecutionMode | str | None = None,
        submit_at: float = 0.0,
        record: bool = False,
        recording: Recording | None = None,
    ) -> ExecutionReport:
        """Execute *strategy* on the selected substrate.

        SIM and LIVE need a *workload*; REPLAY needs a *recording* (its
        strategy defaults to the recorded one — pass a strategy too for
        a what-if replay).  ``record=True`` on SIM attaches the lossless
        recording tap and returns the :class:`Recording` on the report.
        """
        if isinstance(strategy, str):
            strategy = parse_strategy(strategy)
        resolved = self.resolve_mode(strategy, mode, recording)
        if record and resolved is not ExecutionMode.SIM:
            raise ConfigurationError(
                "recording is currently a SIM-mode feature; run the "
                "strategy under mode='sim' with record=True"
            )
        if resolved is ExecutionMode.REPLAY:
            if recording is None:
                raise ConfigurationError("replay mode needs a recording")
            result = self.replay.execute(recording, strategy=strategy)
            return self._report(resolved, result, diff_replay(recording, result))
        if strategy is None:
            raise ConfigurationError(f"{resolved.value} mode needs a strategy")
        if workload is None:
            raise ConfigurationError(f"{resolved.value} mode needs a workload")
        if resolved is ExecutionMode.SIM:
            result = self.sim.execute(
                strategy, workload, until=until, submit_at=submit_at, record=record
            )
        else:
            if self.live is None:
                from repro.exec.live import LiveBackend

                self.live = LiveBackend(self._factory, seed=self.seed, options=self.live_options)
            result = self.live.execute(strategy, workload, until=until, submit_at=submit_at)
        return self._report(resolved, result)

    def _report(
        self, mode: ExecutionMode, result: RunResult, replay: ReplayDiff | None = None
    ) -> ExecutionReport:
        strategy = result.strategy
        for execution in result.executions:
            if execution.strategy.name == strategy.name:
                break
        else:
            raise ConfigurationError(
                f"no execution found for strategy {strategy.name!r}"
            )
        application = result.middleware.application
        return ExecutionReport(
            mode=mode,
            strategy=strategy.name,
            outcome=execution.outcome,
            state=execution.state,
            winner=execution.winner,
            stable_after={
                service: application.service(service).stable_version
                for service in sorted(strategy.services)
            },
            requests=result.requests,
            errors=result.errors,
            sim_seconds=result.middleware.simulation.now,
            wall_seconds=result.wall_seconds,
            recording=result.recording,
            replay=replay,
            details=result,
        )

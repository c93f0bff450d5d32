"""Resilience policies for the request path.

The Bifrost evaluation hinges on experiments that *fail realistically*:
canaries that absorb transient faults via retries, and sustained faults
that trip circuit breakers and trigger rollbacks.  This module provides
the self-adaptive failure handling SEAByTE-style artifacts implement in
the request path:

- :class:`CallPolicy` — bounded retries with exponential backoff and
  *seeded* jitter, and an optional fallback response served when every
  attempt failed (graceful degradation).
- :class:`CircuitBreaker` — a per-(service, version) closed → open →
  half-open state machine tripped by the failure rate over a sliding
  window of recent outcomes.
- :class:`ResilienceLayer` — the registry the
  :class:`~repro.microservices.runtime.Runtime` consults on every hop;
  it records :class:`ResilienceEvent` occurrences (retries, fallbacks,
  breaker transitions) and forwards them to subscribers such
  as the runtime's metric store, so Chapter-5 trace analysis sees them.

Everything is driven by the shared simulated clock and the runtime's
:class:`~repro.simulation.rng.SeededRng`, so two runs with the same seed
produce identical retry counts, breaker transitions, and durations.
"""

from __future__ import annotations

import enum
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulation.rng import SeededRng


class BreakerState(enum.Enum):
    """The circuit breaker's three classic states."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


#: Probe calls a half-open breaker admits, and the probe successes that
#: close it again.
HALF_OPEN_MAX_CALLS = 3
HALF_OPEN_SUCCESSES = 2


@dataclass(frozen=True)
class CallPolicy:
    """The caller's failure handling for calls to one endpoint (or service).

    Attributes:
        max_retries: additional attempts after the first failure.
        backoff_base_ms: backoff before the first retry.
        backoff_multiplier: exponential growth factor per further retry.
        jitter_ms: upper bound of the uniform jitter added to each
            backoff, sampled from the runtime's seeded RNG.
        fallback: when True and every attempt failed, a degraded fallback
            response is served instead of an error (the request succeeds
            from the user's point of view, tagged so telemetry can count
            it).
    """

    max_retries: int = 0
    backoff_base_ms: float = 10.0
    backoff_multiplier: float = 2.0
    jitter_ms: float = 0.0
    fallback: bool = False

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.backoff_base_ms < 0:
            raise ConfigurationError("backoff_base_ms must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ConfigurationError("backoff_multiplier must be >= 1")
        if self.jitter_ms < 0:
            raise ConfigurationError("jitter_ms must be >= 0")

    def backoff_ms(self, attempt: int) -> float:
        """Deterministic backoff component before retry *attempt* (1-based)."""
        if attempt < 1:
            raise ConfigurationError("backoff applies from attempt 1 on")
        return self.backoff_base_ms * self.backoff_multiplier ** (attempt - 1)


@dataclass(frozen=True)
class BreakerConfig:
    """Tuning of one circuit breaker.

    Attributes:
        failure_threshold: failure rate over the sliding window that
            trips the breaker.
        window_size: number of recent call outcomes considered.
        min_calls: outcomes required before the rate is meaningful.
        open_seconds: how long the breaker rejects calls before probing.
    """

    failure_threshold: float = 0.5
    window_size: int = 20
    min_calls: int = 10
    open_seconds: float = 30.0

    def __post_init__(self) -> None:
        if not 0.0 < self.failure_threshold <= 1.0:
            raise ConfigurationError("failure_threshold must be in (0, 1]")
        if self.window_size < 1:
            raise ConfigurationError("window_size must be >= 1")
        if self.min_calls < 1:
            raise ConfigurationError("min_calls must be >= 1")
        if self.open_seconds <= 0:
            raise ConfigurationError("open_seconds must be > 0")


@dataclass(frozen=True)
class BreakerTransition:
    """One state change of one breaker, on the simulated clock."""

    time: float
    service: str
    version: str
    source: BreakerState
    target: BreakerState


class CircuitBreaker:
    """Failure-rate breaker for one (service, version) pair.

    Closed: all calls pass; outcomes feed a sliding window.  When the
    window holds at least ``min_calls`` outcomes and the failure rate
    reaches ``failure_threshold``, the breaker opens.  Open: calls are
    rejected without reaching the version until ``open_seconds`` of
    simulated time elapsed, then the breaker half-opens.  Half-open: up
    to :data:`HALF_OPEN_MAX_CALLS` probe calls are admitted;
    :data:`HALF_OPEN_SUCCESSES` successes close the breaker, any failure
    reopens it.
    """

    def __init__(
        self, service: str, version: str, config: BreakerConfig | None = None
    ) -> None:
        self.service = service
        self.version = version
        self.config = config or BreakerConfig()
        self.state = BreakerState.CLOSED
        self.transitions: list[BreakerTransition] = []
        self._window: deque[bool] = deque(maxlen=self.config.window_size)
        self._failures = 0  # failed outcomes in ``_window``
        self._opened_at = 0.0
        self._probes_admitted = 0
        self._probe_successes = 0
        self.rejected_calls = 0

    def _move(self, now: float, target: BreakerState) -> None:
        self.transitions.append(
            BreakerTransition(now, self.service, self.version, self.state, target)
        )
        self.state = target

    def failure_rate(self) -> float:
        """Failure rate over the current window (0.0 when empty)."""
        if not self._window:
            return 0.0
        return self._failures / len(self._window)

    def allow(self, now: float) -> bool:
        """Whether a call may proceed at simulated time *now*."""
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if now - self._opened_at >= self.config.open_seconds:
                self._move(now, BreakerState.HALF_OPEN)
                self._probes_admitted = 1
                self._probe_successes = 0
                return True
            self.rejected_calls += 1
            return False
        # HALF_OPEN: admit a bounded number of probes.
        if self._probes_admitted < HALF_OPEN_MAX_CALLS:
            self._probes_admitted += 1
            return True
        self.rejected_calls += 1
        return False

    def record(self, now: float, success: bool) -> None:
        """Feed one call outcome observed at simulated time *now*."""
        if self.state is BreakerState.HALF_OPEN:
            if success:
                self._probe_successes += 1
                if self._probe_successes >= HALF_OPEN_SUCCESSES:
                    self._window.clear()
                    self._failures = 0
                    self._move(now, BreakerState.CLOSED)
            else:
                self._opened_at = now
                self._move(now, BreakerState.OPEN)
            return
        if self.state is BreakerState.OPEN:
            # A call that was already in flight when the breaker opened;
            # its outcome no longer matters.
            return
        window = self._window
        if len(window) == window.maxlen and not window[0]:
            self._failures -= 1  # the append evicts the oldest outcome
        window.append(success)
        if not success:
            self._failures += 1
        if (
            len(window) >= self.config.min_calls
            and self.failure_rate() >= self.config.failure_threshold
        ):
            self._opened_at = now
            self._move(now, BreakerState.OPEN)

    def opens_at(self, failed: np.ndarray) -> int:
        """Index of the first of *failed* (outcomes in record order, True
        a failure) whose :meth:`record` would open this closed breaker,
        else ``len(failed)``: the window's rolling count, int/int rate."""
        window = self._window
        past = np.logical_not(np.fromiter(window, bool, len(window)))
        counts = np.concatenate(((0,), np.cumsum(np.concatenate((past, failed)))))
        ends = np.arange(len(window) + 1, len(counts))
        sizes = np.minimum(ends, window.maxlen)
        rates = (counts[ends] - counts[ends - sizes]) / sizes
        opens = (sizes >= self.config.min_calls) & (rates >= self.config.failure_threshold)
        return int(opens.argmax()) if opens.any() else len(failed)

    def absorb(self, failed: np.ndarray) -> None:
        """:meth:`record` every one of *failed*, none of which opens it."""
        self._window.extend(np.logical_not(failed[-self._window.maxlen :]).tolist())
        self._failures = self._window.count(False)


#: Event kinds a :class:`ResilienceEvent` may carry.
RETRY = "retry"
FALLBACK = "fallback"
BREAKER_REJECT = "breaker_reject"
BREAKER_OPEN = "breaker_open"
BREAKER_HALF_OPEN = "breaker_half_open"
BREAKER_CLOSE = "breaker_close"

_BREAKER_EVENT_KIND = {
    BreakerState.OPEN: BREAKER_OPEN,
    BreakerState.HALF_OPEN: BREAKER_HALF_OPEN,
    BreakerState.CLOSED: BREAKER_CLOSE,
}


@dataclass(frozen=True)
class ResilienceEvent:
    """One resilience occurrence on the simulated clock."""

    kind: str
    time: float
    service: str
    version: str = ""
    endpoint: str = ""
    attempt: int = 0
    detail: str = ""


class ResilienceLayer:
    """Per-call policies plus per-(service, version) breakers.

    The runtime consults :meth:`policy_for` on every hop and the breaker
    methods around every attempt.  Policies can be registered for one
    endpoint, a whole service, or as the default for every call; the
    most specific match wins.  Breakers are created lazily, but only
    when a :class:`BreakerConfig` was supplied — a layer without one
    never interferes with call admission.
    """

    def __init__(self, breaker_config: BreakerConfig | None = None) -> None:
        self.breaker_config = breaker_config
        self._default_policy: CallPolicy | None = None
        self._service_policies: dict[str, CallPolicy] = {}
        self._endpoint_policies: dict[tuple[str, str], CallPolicy] = {}
        self._breakers: dict[tuple[str, str], CircuitBreaker] = {}
        self.events: list[ResilienceEvent] = []
        self._subscribers: list[Callable[[ResilienceEvent], None]] = []

    # -- policy registry ---------------------------------------------------

    def set_policy(
        self,
        policy: CallPolicy,
        service: str | None = None,
        endpoint: str | None = None,
    ) -> None:
        """Register *policy*; scope it by *service* and/or *endpoint*.

        With neither, the policy becomes the default for every call.
        """
        if endpoint is not None:
            if service is None:
                raise ConfigurationError(
                    "an endpoint-scoped policy needs a service"
                )
            self._endpoint_policies[(service, endpoint)] = policy
        elif service is not None:
            self._service_policies[service] = policy
        else:
            self._default_policy = policy

    def policy_for(self, service: str, endpoint: str) -> CallPolicy | None:
        """Most specific policy for a call, or None when unmanaged."""
        policy = self._endpoint_policies.get((service, endpoint))
        if policy is not None:
            return policy
        policy = self._service_policies.get(service)
        if policy is not None:
            return policy
        return self._default_policy

    # -- breakers ----------------------------------------------------------

    def breaker(self, service: str, version: str) -> CircuitBreaker | None:
        """The breaker guarding (service, version); None when disabled."""
        if self.breaker_config is None:
            return None
        key = (service, version)
        breaker = self._breakers.get(key)
        if breaker is None:
            breaker = CircuitBreaker(service, version, self.breaker_config)
            self._breakers[key] = breaker
        return breaker

    def breakers(self) -> list[CircuitBreaker]:
        """All breakers created so far, in deterministic key order."""
        return [self._breakers[key] for key in sorted(self._breakers)]

    def breaker_transitions(self) -> list[BreakerTransition]:
        """Every breaker transition so far, ordered by time."""
        transitions = [
            t for breaker in self.breakers() for t in breaker.transitions
        ]
        transitions.sort(key=lambda t: (t.time, t.service, t.version))
        return transitions

    def tripped(self) -> bool:
        """Whether a breaker is open or half-open: only then may
        :meth:`admit` refuse a call or move a breaker."""
        return any(b.state is not BreakerState.CLOSED for b in self._breakers.values())

    def opens_at(self, service: str, version: str, failed: np.ndarray) -> int:
        """:meth:`CircuitBreaker.opens_at` of (service, version)'s breaker,
        or of a fresh one while it has none (none is created)."""
        breaker = self._breakers.get((service, version)) or CircuitBreaker(
            service, version, self.breaker_config
        )
        return breaker.opens_at(failed)

    def admit(
        self,
        service: str,
        version: str,
        now: float,
        endpoint: str = "",
        attempt: int = 0,
    ) -> bool:
        """Breaker admission check for one call attempt.

        Emits transition events as they occur and, when the breaker
        refuses the call, a ``BREAKER_REJECT`` event for it.
        """
        breaker = self.breaker(service, version)
        if breaker is None:
            return True
        before = len(breaker.transitions)
        allowed = breaker.allow(now)
        self._emit_transitions(breaker, before)
        if not allowed:
            self.emit(
                ResilienceEvent(
                    BREAKER_REJECT, now, service, version, endpoint, attempt
                )
            )
        return allowed

    def observe(self, service: str, version: str, now: float, success: bool) -> None:
        """Feed one call outcome into the breaker (if any)."""
        breaker = self.breaker(service, version)
        if breaker is None:
            return
        before = len(breaker.transitions)
        breaker.record(now, success)
        self._emit_transitions(breaker, before)

    def _emit_transitions(self, breaker: CircuitBreaker, since: int) -> None:
        for transition in breaker.transitions[since:]:
            self.emit(
                ResilienceEvent(
                    kind=_BREAKER_EVENT_KIND[transition.target],
                    time=transition.time,
                    service=transition.service,
                    version=transition.version,
                    detail=f"{transition.source.value}->{transition.target.value}",
                )
            )

    # -- the per-hop attempt loop -------------------------------------------

    def call_with_policy(
        self,
        policy: CallPolicy,
        service: str,
        endpoint: str,
        start: float,
        rng: "SeededRng",
        attempt: Callable[[float, int], tuple[float, bool, str]],
    ) -> tuple[float, bool]:
        """Run one hop under *policy*; returns (observed duration ms, error).

        ``attempt(attempt_start, n)`` executes attempt *n* and returns its
        ``(duration_ms, error, version)``.  The loop retries failures with
        exponential backoff plus jitter drawn from *rng* (only when
        ``jitter_ms > 0``); all attempt durations and backoff pauses are
        charged to the observed duration.  When every attempt failed and
        the policy allows it, a fallback response is served instead of an
        error.  The general hop runs this loop; the columnar slice's
        ``_site`` replays its float operations column-wise, so both give
        bit-equal durations and the same events.
        """
        elapsed_ms = 0.0
        attempts = policy.max_retries + 1
        version = ""
        for n in range(attempts):
            duration, error, version = attempt(start + elapsed_ms / 1000.0, n)
            elapsed_ms += duration
            if not error:
                return elapsed_ms, False
            if n + 1 < attempts:
                backoff = policy.backoff_ms(n + 1)
                if policy.jitter_ms > 0:
                    backoff += rng.uniform(0.0, policy.jitter_ms)
                elapsed_ms += backoff
                self.emit(
                    ResilienceEvent(
                        RETRY,
                        start + elapsed_ms / 1000.0,
                        service,
                        version,
                        endpoint,
                        n + 1,
                        detail=f"backoff={backoff:.1f}ms",
                    )
                )
        if policy.fallback:
            self.emit(
                ResilienceEvent(
                    FALLBACK,
                    start + elapsed_ms / 1000.0,
                    service,
                    version,
                    endpoint,
                    attempts - 1,
                )
            )
            return elapsed_ms, False
        return elapsed_ms, True

    # -- events ------------------------------------------------------------

    def subscribe(self, listener: Callable[[ResilienceEvent], None]) -> None:
        """Register a callback invoked for every emitted event."""
        self._subscribers.append(listener)

    def emit(self, event: ResilienceEvent) -> None:
        """Record *event* and notify subscribers."""
        self.events.append(event)
        for listener in self._subscribers:
            listener(event)

    def counters(self) -> dict[str, int]:
        """Event counts per kind (stable insertion order by kind name)."""
        counts = Counter(event.kind for event in self.events)
        return dict(sorted(counts.items()))


@dataclass
class ResilienceSummary:
    """Aggregate view of a layer's activity (reporting convenience)."""

    events: dict[str, int] = field(default_factory=dict)
    open_breakers: list[tuple[str, str]] = field(default_factory=list)

    @classmethod
    def of(cls, layer: ResilienceLayer) -> "ResilienceSummary":
        """Summarize *layer* right now."""
        return cls(
            events=layer.counters(),
            open_breakers=[
                (b.service, b.version)
                for b in layer.breakers()
                if b.state is not BreakerState.CLOSED
            ],
        )

    def describe(self) -> str:
        """Human-readable one-paragraph report."""
        if self.events:
            counts = ", ".join(
                f"{kind}={count}" for kind, count in sorted(self.events.items())
            )
        else:
            counts = "no resilience events"
        if self.open_breakers:
            breakers = ", ".join(f"{s}/{v}" for s, v in self.open_breakers)
            breakers = f"non-closed breakers: {breakers}"
        else:
            breakers = "all breakers closed"
        return f"resilience: {counts}; {breakers}"

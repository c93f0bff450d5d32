"""Deterministic shared-traffic synthesis for fleet slots.

Every admitted experiment observes a slice of the shared traffic: the
samples a slot contributes are ``fraction × slot_volume × group_share``
of the profile (Section 3.4's capacity model), scaled down and capped so
hundred-experiment fleets stay fast.  The feed is a *pure function* of
``(seed, experiment, slot)`` — it writes the identical samples no matter
when it is called — which is what makes fleet recovery work: a rebuilt
orchestrator re-feeds the committed slots into fresh metric stores and
lands in exactly the state the crashed process had.
"""

from __future__ import annotations

from math import cos, log, sin, sqrt, tau

from repro.fenrir.model import SchedulingProblem
from repro.simulation.rng import SeededRng
from repro.telemetry.monitor import SpanSampleBuffer
from repro.telemetry.store import MetricStore

#: The stable version's mean latency; an experimental version scales it.
BASE_LATENCY_MS = 100.0
#: Samples per unit of slot volume, and their floor and cap per slot.
SAMPLES_PER_VOLUME = 0.01
MIN_SAMPLES = 4
MAX_SAMPLES = 24


class SlotTrafficFeed:
    """Feeds one slot of synthetic samples into an experiment's store."""

    def __init__(
        self,
        problem: SchedulingProblem,
        seed: int,
        slot_seconds: float,
        base_error: float = 0.02,
    ) -> None:
        self.problem = problem
        self.seed = seed
        self._rng = SeededRng(seed)
        self.slot_seconds = float(slot_seconds)
        self.base_error = base_error

    def sample_count(self, slot: int, fraction: float, groups: tuple[str, ...]) -> int:
        """Samples one slot yields an experiment holding *fraction*."""
        profile = self.problem.profile
        if not 0 <= slot < profile.num_slots:
            return 0
        volume = profile.volume(slot)
        share = self.problem.group_share(groups)
        raw = volume * share * fraction * SAMPLES_PER_VOLUME
        return max(MIN_SAMPLES, min(MAX_SAMPLES, int(raw)))

    def feed(
        self,
        store: MetricStore,
        name: str,
        slot: int,
        fraction: float,
        groups: tuple[str, ...],
        service: str,
        stable: str,
        experimental: str,
        error_delta: float = 0.0,
        latency_factor: float = 1.0,
    ) -> int:
        """Write slot *slot*'s samples for one experiment; returns count.

        The stable version always observes baseline behaviour; the
        experimental version carries the world's ground-truth deltas, so
        the per-experiment check gate has a real signal to act on.
        """
        count = self.sample_count(slot, fraction, groups)
        if count == 0:
            return 0
        random = self._rng.fork(f"feed:{name}:{slot}").raw.random
        t0 = slot * self.slot_seconds
        step = self.slot_seconds / count
        base_error, base_latency = self.base_error, BASE_LATENCY_MS
        exp_error = min(1.0, base_error + error_delta)
        exp_latency = base_latency * latency_factor
        base_sigma, exp_sigma = base_latency * 0.1, exp_latency * 0.1
        samples = SpanSampleBuffer()
        base_starts, base_durations, base_errors = samples.columns(service, stable)
        exp_starts, exp_durations, exp_errors = samples.columns(service, experimental)
        # The draws of uniform(0, 1) and gauss per lane, four per sample:
        # stable error; a Box-Muller pair (cosine: stable latency, sine,
        # gauss's cached value: experimental); experimental error.  The
        # latency floor ``x if x > 1.0 else 1.0`` is ``max(1.0, x)``.
        for i in range(count):
            at = t0 + (i + 0.5) * step
            base_errors.append(1.0 if random() < base_error else 0.0)
            x2pi = random() * tau
            g2rad = sqrt(-2.0 * log(1.0 - random()))
            latency = base_latency + cos(x2pi) * g2rad * base_sigma
            base_durations.append(latency if latency > 1.0 else 1.0)
            exp_errors.append(1.0 if random() < exp_error else 0.0)
            latency = exp_latency + sin(x2pi) * g2rad * exp_sigma
            exp_durations.append(latency if latency > 1.0 else 1.0)
            base_starts.append(at)
            exp_starts.append(at)
        samples.flush(store)
        return count

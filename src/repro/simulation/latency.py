"""Latency models for simulated service handlers.

Response times of web services are famously right-skewed; we default to a
log-normal body plus optional load sensitivity.  Load sensitivity is the
mechanism behind two effects the Bifrost evaluation observed (Section
4.5.1): dark launches *duplicate* traffic and push latencies up in the
backend, while A/B tests *split* traffic and produce a load-balancing
effect that lowers per-instance latency.
"""

from __future__ import annotations

import abc
import math
from repro.errors import ConfigurationError
from repro.simulation.rng import SeededRng


class LatencyModel(abc.ABC):
    """Produces a service time in **milliseconds** for one request."""

    @abc.abstractmethod
    def sample(self, rng: SeededRng, load: float = 1.0) -> float:
        """Draw one latency.

        Args:
            rng: the random stream to draw from.
            load: the instance's current relative load where 1.0 is the
                nominal design load; models may ignore it.
        """


class ConstantLatency(LatencyModel):
    """A fixed latency — useful for proxies and deterministic tests."""

    def __init__(self, value_ms: float) -> None:
        if value_ms < 0:
            raise ConfigurationError(f"latency must be >= 0, got {value_ms}")
        self.value_ms = float(value_ms)

    def sample(self, rng: SeededRng, load: float = 1.0) -> float:
        return self.value_ms


class LogNormalLatency(LatencyModel):
    """Log-normal latency parameterized by its median and spread.

    Args:
        median_ms: the distribution's median in milliseconds.
        sigma: the shape parameter of the underlying normal; 0.25–0.5 is
            typical for well-behaved services.
    """

    def __init__(self, median_ms: float, sigma: float = 0.3) -> None:
        if median_ms <= 0:
            raise ConfigurationError(f"median must be positive, got {median_ms}")
        if sigma < 0:
            raise ConfigurationError(f"sigma must be >= 0, got {sigma}")
        self.median_ms = float(median_ms)
        self.sigma = float(sigma)
        self._mu = math.log(self.median_ms)

    def sample(self, rng: SeededRng, load: float = 1.0) -> float:
        if self.sigma == 0:
            return self.median_ms
        return rng.lognormvariate(self._mu, self.sigma)


class ParetoLatency(LatencyModel):
    """Heavy-tailed (Pareto) latency for adversarial scenarios.

    Classic Pareto with minimum *scale_ms* and shape *alpha*: small
    alphas (1.1–2) give the "p999 is 100× the median" tails production
    systems exhibit under contention; the mean is infinite for
    ``alpha <= 1`` so the model requires ``alpha > 1``.

    Args:
        scale_ms: the distribution's minimum (x_m) in milliseconds.
        alpha: the tail index; smaller means heavier tails.
    """

    def __init__(self, scale_ms: float, alpha: float = 1.5) -> None:
        if scale_ms <= 0:
            raise ConfigurationError(f"scale must be positive, got {scale_ms}")
        if alpha <= 1.0:
            raise ConfigurationError(
                f"alpha must be > 1 for a finite mean, got {alpha}"
            )
        self.scale_ms = float(scale_ms)
        self.alpha = float(alpha)

    @classmethod
    def from_median(cls, median_ms: float, alpha: float = 1.5) -> "ParetoLatency":
        """Build from the median instead of the minimum.

        The Pareto median is ``x_m * 2**(1/alpha)``; parameterizing by
        median lets scenario specs swap tail families while holding the
        body of the distribution fixed.
        """
        if median_ms <= 0:
            raise ConfigurationError(f"median must be positive, got {median_ms}")
        if alpha <= 1.0:
            raise ConfigurationError(
                f"alpha must be > 1 for a finite mean, got {alpha}"
            )
        return cls(median_ms / 2.0 ** (1.0 / alpha), alpha)

    def sample(self, rng: SeededRng, load: float = 1.0) -> float:
        return self.scale_ms * rng.raw.paretovariate(self.alpha)


class LoadSensitiveLatency(LatencyModel):
    """Wraps a base model and inflates latency as load exceeds nominal.

    We use an M/M/1-flavoured inflation: at relative load ``u`` the base
    sample is multiplied by ``1 + pressure * max(0, u - 1)``, a smooth,
    bounded stand-in for queueing growth that keeps the simulation stable
    even when overdriven.
    """

    def __init__(self, base: LatencyModel, pressure: float = 0.6) -> None:
        if pressure < 0:
            raise ConfigurationError(f"pressure must be >= 0, got {pressure}")
        self.base = base
        self.pressure = float(pressure)

    def sample(self, rng: SeededRng, load: float = 1.0) -> float:
        inflation = 1.0 + self.pressure * max(0.0, load - 1.0)
        return self.base.sample(rng, load) * inflation


class CompositeLatency(LatencyModel):
    """Sum of several latency components (e.g. compute + serialization)."""

    def __init__(self, *components: LatencyModel) -> None:
        if not components:
            raise ConfigurationError("CompositeLatency needs at least one component")
        self.components = components

    def sample(self, rng: SeededRng, load: float = 1.0) -> float:
        return sum(component.sample(rng, load) for component in self.components)

"""Seeded randomness helpers.

Every stochastic component in the library draws from a :class:`SeededRng`
that is explicitly passed in, never from the global :mod:`random` state.
This keeps benches and tests reproducible and lets independent subsystems
fork uncorrelated child streams from one root seed.
"""

from __future__ import annotations

import random
import zlib
from itertools import accumulate
from math import isfinite
from typing import Iterable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")


def cumulative_weights(weights: Iterable[float]) -> tuple[list[float], float]:
    """Left-to-right accumulated *weights* and their float total, built and
    checked as :meth:`random.Random.choices` does — bulk draws that bisect
    ``random() * total`` over all but the last boundary replay it exactly."""
    cum = list(accumulate(weights))
    total = cum[-1] + 0.0
    if total <= 0.0:
        raise ValueError("Total of weights must be greater than zero")
    if not isfinite(total):
        raise ValueError("Total of weights must be finite")
    return cum, total


def random_block(raw: random.Random, n: int) -> np.ndarray:
    """*n* successive ``raw.random()`` values as a float64 array, bit for bit.

    One ``getrandbits(64 * n)`` call draws the same 2 *n* Mersenne-Twister
    words, least significant first, that *n* ``random()`` calls would, and
    leaves *raw* in the same state; each pair becomes
    ``(a >> 5, b >> 6)`` scaled exactly as ``random()`` scales it.  To keep
    only the first *k* values, restore the state from before the call and
    call ``raw.getrandbits(64 * k)``.  ``gauss`` keeps its cached variate.
    """
    words = np.frombuffer(raw.getrandbits(64 * n).to_bytes(8 * n, "little"), "<u4")
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (
        1.0 / 9007199254740992.0
    )


class SeededRng:
    """A :class:`random.Random` wrapper with stream forking.

    ``fork(label)`` derives a child RNG whose seed depends on both the
    parent seed and the label, so two subsystems forked with different
    labels see uncorrelated streams, and re-running with the same root
    seed reproduces both.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._random = random.Random(self.seed)

    def fork(self, label: str) -> "SeededRng":
        """Derive an independent child stream identified by *label*.

        The derivation hashes with CRC32 rather than :func:`hash` —
        string hashing is salted per process, which would make forked
        streams (and anything replayed from a stored seed, like the
        scenario regression corpus) differ from one run to the next.
        """
        child_seed = zlib.crc32(f"{self.seed}:{label}".encode()) & 0x7FFFFFFF
        return SeededRng(child_seed)

    # -- thin delegation ---------------------------------------------------

    @property
    def raw(self) -> random.Random:
        """The wrapped :class:`random.Random`.

        Hot loops (the batch execution kernel) bind its methods directly
        to skip the delegation layer; the stream is the same object, so
        interleaving raw and wrapped draws stays deterministic.
        """
        return self._random

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high]."""
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        return self._random.randint(low, high)

    def choice(self, seq: Sequence[T]) -> T:
        """Uniformly choose one element of *seq*."""
        return self._random.choice(seq)

    def randrange(self, stop: int) -> int:
        """Uniform integer in ``[0, stop)``.

        The user draw of every request stream, which
        ``BatchWorkloadGenerator`` inlines, and of ``UserPopulation.sample``.
        Consumes exactly the underlying draws of ``choice`` on a
        *stop*-element sequence, which is what ``UserPopulation.sample``
        relies on.
        """
        return self._random.randrange(stop)

    def sample(self, seq: Sequence[T], k: int) -> list[T]:
        """Sample *k* distinct elements of *seq*."""
        return self._random.sample(seq, k)

    def shuffle(self, seq: list[T]) -> None:
        """Shuffle *seq* in place."""
        self._random.shuffle(seq)

    def lognormvariate(self, mu: float, sigma: float) -> float:
        """Log-normal variate with underlying normal (mu, sigma)."""
        return self._random.lognormvariate(mu, sigma)

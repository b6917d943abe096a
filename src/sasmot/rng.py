"""Deterministic random numbers for scenario generation.

The generator is SplitMix64: a 64-bit counter-based mixer that is trivial to
reimplement bit-for-bit in any language, which is what makes simulated
scenarios reproducible across platforms. Output k of a stream seeded with s
is mix(s + k * gamma mod 2**64), so outputs need not be computed one at a
time: the stream keeps a buffer of upcoming outputs and refills it in chunks
of ``_CHUNK``, running the mixer once over a numpy ``uint64`` array (array
arithmetic wraps exactly mod 2**64). A refill starts at the current stream
position, so the values are the sequential stream's whatever the mix of
calls that reads them.

Uniforms map the raw 64-bit output to [0, 1] as value / 2**64. The interval
is closed: an output at or above 2**64 - 2**10 rounds to exactly 1.0, so
``uniform() < p`` with p = 1.0 fails with probability 2**-54, and
``miss_prob_*``, ``turn_prob`` or ``rotation_event_prob`` = 1.0 in a scenario
config mean "all but 2**-54". Gaussian variates use the Box-Muller cosine
branch and always consume exactly two outputs, so the draw sequence of a
simulation depends only on its configuration. Box-Muller and every
int-to-float step run in Python ``math`` on the buffered ints: ``np.log``
differs from ``math.log`` in the last bit on some inputs, a ``uint64``
``value + 1`` wraps at 2**64 - 1, and ``float(value) + 1.0`` rounds twice.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_CHUNK = 4096  # outputs per refill


def _mix(z: np.ndarray) -> List[int]:
    """SplitMix64 finalizer over a uint64 array of counters, as Python ints."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return (z ^ (z >> np.uint64(31))).tolist()


class SplitMix64:
    """Sequential SplitMix64 stream with uniform and gaussian draws."""

    __slots__ = ("_base", "_buf", "_pos")

    def __init__(self, seed: int):
        # _buf[j] is the output at counter _base + (j + 1) * gamma; the
        # first _pos of them have been consumed.
        self._base = seed & MASK64
        self._buf: List[int] = []
        self._pos = 0

    @property
    def state(self) -> int:
        """Stream position: seed + consumed * gamma, mod 2**64."""
        return (self._base + self._pos * _GAMMA) & MASK64

    def _take(self, k: int) -> List[int]:
        """The next k outputs, refilling from the current position when short."""
        pos = self._pos
        if pos + k > len(self._buf):
            self._base = self.state
            steps = np.arange(1, max(k, _CHUNK) + 1, dtype=np.uint64)
            self._buf = _mix(steps * np.uint64(_GAMMA) + np.uint64(self._base))
            pos = 0
        self._pos = pos + k
        return self._buf[pos : pos + k]

    def next_u64(self) -> int:
        """Advance the stream by one step and return the 64-bit output."""
        return self._take(1)[0]

    def uniform(self) -> float:
        """Uniform float in [0, 1]: raw value / 2**64 (1.0 with probability 2**-54)."""
        return self.next_u64() / 2.0**64

    def gauss(self) -> float:
        """Standard normal via Box-Muller (cosine branch, two outputs)."""
        return self.gauss_block(1)[0]

    def gauss_block(self, n: int) -> List[float]:
        """n standard normals, equal element for element to n ``gauss()`` calls."""
        values = iter(self._take(2 * n))
        log, sqrt, cos, two_pi = math.log, math.sqrt, math.cos, 2.0 * math.pi
        # (value + 1) / 2**64 lies in (0, 1], keeping the log finite.
        return [
            sqrt(-2.0 * log((v1 + 1) / 2.0**64)) * cos(two_pi * (v2 / 2.0**64))
            for v1, v2 in zip(values, values)
        ]

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
simulation depends only on its configuration.

``box_muller`` transforms a whole block of raw outputs at once, and
``gauss_block`` and the simulator share it. numpy runs only the steps that
IEEE 754 rounds correctly, and so gives the same bits as scalar Python: the
``uint64`` to float casts, the divisions by 2**64, the products and the
square root. ``log`` and ``cos`` run in Python ``math``, mapped over the
block: neither is correctly rounded, and numpy's SIMD versions round some
inputs differently (``np.log`` differs from ``math.log`` in the last bit on
about 3,500 of 10**6 uniforms on an AVX-512 x86-64 CPU with numpy 2.4). The
``uint64`` sum ``v1 + 1`` wraps to 0 at 2**64 - 1, and that one value is set
back to 2**64; ``float(v1) + 1.0`` would round twice.
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


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over a uint64 array of counters."""
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def box_muller(raw: np.ndarray) -> np.ndarray:
    """One standard normal per pair (v1, v2) of a uint64 block of raw outputs.

    Element j equals ``sqrt(-2 log((v1 + 1) / 2**64)) * cos(2 pi v2 / 2**64)``
    computed in Python ``math`` on ints, bit for bit.
    """
    v1, v2 = raw[0::2], raw[1::2]
    # (v1 + 1) / 2**64 lies in (0, 1], keeping the log finite; the sum wraps
    # to 0 only at v1 = 2**64 - 1.
    u1 = (v1 + np.uint64(1)).astype(float)
    u1[u1 == 0.0] = 2.0**64
    u1 /= 2.0**64
    angle = (2.0 * math.pi) * (v2.astype(float) / 2.0**64)
    n = len(u1)
    log_u1 = np.fromiter(map(math.log, u1.tolist()), float, n)
    cos = np.fromiter(map(math.cos, angle.tolist()), float, n)
    return np.sqrt(-2.0 * log_u1) * cos


class SplitMix64:
    """Sequential SplitMix64 stream with uniform and gaussian draws."""

    __slots__ = ("_base", "_raw", "_buf", "_pos")

    def __init__(self, seed: int):
        # _raw[j] is the output at counter _base + (j + 1) * gamma, and _buf
        # holds the same values as ints; the first _pos have been consumed.
        self._base = seed & MASK64
        self._raw = np.zeros(0, dtype=np.uint64)
        self._buf: List[int] = []
        self._pos = 0

    @property
    def state(self) -> int:
        """Stream position: seed + consumed * gamma, mod 2**64."""
        return (self._base + self._pos * _GAMMA) & MASK64

    def _advance(self, k: int) -> int:
        """Consume k outputs, refilling from the current position when short.

        Returns the buffer index of the first of them.
        """
        pos = self._pos
        if pos + k > len(self._buf):
            self._base = self.state
            steps = np.arange(1, max(k, _CHUNK) + 1, dtype=np.uint64)
            self._raw = _mix(steps * np.uint64(_GAMMA) + np.uint64(self._base))
            self._raw.flags.writeable = False
            self._buf = self._raw.tolist()
            pos = 0
        self._pos = pos + k
        return pos

    def next_u64(self) -> int:
        """Advance the stream by one step and return the 64-bit output."""
        pos = self._advance(1)  # before reading _buf, which a refill replaces
        return self._buf[pos]

    def raw_block(self, k: int) -> np.ndarray:
        """The next k outputs as a read-only uint64 array."""
        if k < 0:
            raise ValueError(f"raw_block count must be >= 0, got {k}")
        pos = self._advance(k)
        return self._raw[pos : pos + k]

    def uniform(self) -> float:
        """Uniform float in [0, 1]: raw value / 2**64 (1.0 with probability 2**-54)."""
        return self.next_u64() / 2.0**64

    def gauss(self) -> float:
        """Standard normal via Box-Muller (cosine branch, two outputs)."""
        return self.gauss_block(1)[0]

    def gauss_block(self, n: int) -> List[float]:
        """n standard normals, equal element for element to n ``gauss()`` calls."""
        if n < 0:
            raise ValueError(f"gauss_block count must be >= 0, got {n}")
        return box_muller(self.raw_block(2 * n)).tolist()

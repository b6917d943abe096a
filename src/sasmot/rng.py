"""Deterministic random numbers for scenario generation.

The generator is SplitMix64: a 64-bit counter-based mixer that is trivial to
reimplement bit-for-bit in any language, which is what makes simulated
scenarios reproducible across platforms. Uniforms map the raw 64-bit output
to [0, 1) as value / 2**64; gaussian variates use the Box-Muller cosine
branch and always consume exactly two uniforms, so the draw sequence of a
simulation depends only on its configuration.
"""

from __future__ import annotations

import math

MASK64 = 0xFFFFFFFFFFFFFFFF

_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Sequential SplitMix64 stream with uniform and gaussian draws."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        """Advance the state by one step and return the 64-bit output."""
        self.state = z = (self.state + _GAMMA) & MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform float in [0, 1): raw value / 2**64."""
        return self.next_u64() / 2.0**64

    def gauss(self) -> float:
        """Standard normal via Box-Muller (cosine branch, two uniforms)."""
        # (value + 1) / 2**64 lies in (0, 1], keeping the log finite.
        u1 = (self.next_u64() + 1) / 2.0**64
        u2 = self.next_u64() / 2.0**64
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

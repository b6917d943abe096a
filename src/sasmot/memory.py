"""Per-track sparse appearance memory.

A track's memory decides, frame by frame, whether the current appearance
embedding is worth keeping. The core policy is motion-gated: displacement of
the box center accumulates per frame, and only when the accumulated travel
exceeds a threshold does the memory commit a feature. Stored features span a
long window of genuinely different poses instead of near-duplicates of the
current frame, and the track's matching query is a weighted blend of the
current embedding with the memory mean.

Policies:

* ``NONE`` — memory disabled; the query is always the raw current embedding.
* ``SPARSE`` — motion-gated commits; the committed feature is whatever the
  object looked like on the frame the gate fired.
* ``SPARSE_OFS`` — motion-gated commits, but the committed feature is taken
  from the least-overlapped frame since the previous commit, so features
  contaminated by nearby objects are skipped.
* ``DENSE`` — commit every observed frame (capacity-capped); a recency-biased
  baseline.
* ``DELAYING`` — motion-gated, but the commit waits until a frame whose
  overlap is at or below ``delay_overlap_threshold`` comes along.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Deque, Optional, Tuple

import numpy as np

from .geometry import Box2D

__all__ = [
    "MemoryPolicy",
    "MemoryConfig",
    "MemoryEntry",
    "TrackMemory",
]


class MemoryPolicy(Enum):
    """Feature storage strategies. Values double as CLI policy names."""

    NONE = "none"
    SPARSE = "sparse"
    SPARSE_OFS = "sparse+ofs"
    DENSE = "dense"
    DELAYING = "delaying"


@dataclass
class MemoryConfig:
    """Knobs shared by every memory policy.

    Attributes:
        epsilon: accumulated center displacement (normalized image units)
            that must be exceeded before a commit fires.
        m_max: feature capacity per track; oldest entries are evicted first.
        alpha: fusion weight on the current embedding; the remaining
            1 - alpha is spread uniformly over stored entries.
        delay_overlap_threshold: overlap gate used only by the DELAYING
            policy; a pending commit waits for a frame at or below it.
    """

    epsilon: float = 0.1
    m_max: int = 10
    alpha: float = 0.5
    delay_overlap_threshold: float = 0.2

    def __post_init__(self):
        if math.isnan(self.epsilon) or self.epsilon < 0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.m_max < 1:
            raise ValueError(f"m_max must be >= 1, got {self.m_max}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not 0.0 <= self.delay_overlap_threshold <= 1.0:
            raise ValueError(
                f"delay_overlap_threshold must be in [0, 1], got {self.delay_overlap_threshold}"
            )


@dataclass(eq=False)
class MemoryEntry:
    """A stored feature: what the object looked like, when, and how crowded it was."""

    embedding: np.ndarray
    frame_idx: int
    overlap_at_store: float


class TrackMemory:
    """Mutable per-track memory driven by :meth:`observe`, one instance per track.

    The three public operations are ``observe`` (feed one frame's box,
    embedding, and overlap; returns whether a feature was stored),
    ``fused_query`` (blend a current embedding with the memory mean), and
    ``commit_store`` (normally invoked internally by ``observe``). The
    embedding size D is taken from the first observed embedding; every later
    one must match it.
    """

    def __init__(self, cfg: MemoryConfig, policy: MemoryPolicy = MemoryPolicy.SPARSE_OFS):
        self.cfg = cfg
        self.policy = policy
        self.entries: Deque[MemoryEntry] = deque(maxlen=cfg.m_max)
        # Sum of the stored embeddings, added in entry order on every commit.
        self._entry_sum: Optional[np.ndarray] = None
        self.accumulator: float = 0.0
        self.last_center: Optional[Tuple[float, float]] = None
        # The pending commit: for SPARSE_OFS the least-overlapped frame since
        # the last store, otherwise the latest frame.
        self.candidate: Optional[MemoryEntry] = None
        self.dim: Optional[int] = None
        self._last_frame: Optional[int] = None

    def _checked(self, embedding: np.ndarray) -> np.ndarray:
        emb = np.asarray(embedding, dtype=float)
        if emb.ndim != 1:
            raise ValueError(f"embedding must be 1-D, got shape {emb.shape}")
        if self.dim is not None and emb.size != self.dim:
            raise ValueError(f"embedding shape {emb.shape} does not match dim {self.dim}")
        return emb

    def observe(self, box: Box2D, embedding: np.ndarray, overlap: float, frame_idx: int) -> bool:
        """Feed one observed frame; returns True when a feature was stored."""
        emb = self._checked(embedding)
        if not 0.0 <= overlap <= 1.0:
            raise ValueError(f"overlap must be in [0, 1], got {overlap}")
        if self._last_frame is not None and frame_idx <= self._last_frame:
            raise ValueError(
                f"frame_idx must increase: got {frame_idx} after {self._last_frame}"
            )
        self._last_frame = frame_idx
        self.dim = emb.size

        if self.policy is MemoryPolicy.NONE:
            return False

        if self.last_center is not None:
            lx, ly = self.last_center
            self.accumulator += math.hypot(box.cx - lx, box.cy - ly)
        self.last_center = (box.cx, box.cy)

        if self.policy is MemoryPolicy.SPARSE_OFS:
            # Keep the least-overlapped frame in the window; ties keep the
            # earlier frame.
            if self.candidate is None or overlap < self.candidate.overlap_at_store:
                self.candidate = MemoryEntry(emb, frame_idx, overlap)
        else:
            self.candidate = MemoryEntry(emb, frame_idx, overlap)

        if self.policy is MemoryPolicy.DENSE:
            self.commit_store()
            return True
        if self.accumulator > self.cfg.epsilon:
            if (
                self.policy is MemoryPolicy.DELAYING
                and overlap > self.cfg.delay_overlap_threshold
            ):
                # Gate holds: keep accumulating until a calm frame shows up.
                return False
            self.commit_store()
            return True
        return False

    def commit_store(self) -> None:
        """Push the pending candidate into the ring and reset the gate."""
        if self.candidate is None:
            raise ValueError("commit_store called with no pending candidate")
        self.entries.append(self.candidate)
        self._entry_sum = sum(entry.embedding for entry in self.entries)
        self.accumulator = 0.0
        self.candidate = None

    def fused_query(self, current: np.ndarray) -> np.ndarray:
        """Blend the current embedding with the memory mean.

        Returns ``alpha * current + (1 - alpha) * mean(entries)``; with an
        empty memory the current embedding is returned unchanged.
        """
        cur = self._checked(current)
        m = len(self.entries)
        if m == 0:
            return cur
        a = self.cfg.alpha
        return a * cur + ((1.0 - a) / m) * self._entry_sum

"""Per-track sparse appearance memory.

A track's memory decides, frame by frame, whether the current appearance
embedding is worth keeping. The core policy is motion-gated: displacement of
the box center accumulates per frame, and only when the accumulated travel
exceeds a threshold does the memory commit a feature. Stored features span a
long window of genuinely different poses instead of near-duplicates of the
current frame, and the track's matching query is a weighted blend of the
current embedding with the memory mean, ``fuse``, for one query or a stack
of them. That state (the travel accumulator, the pending candidate, the
stored entries and one array of their suffix sums, folded in ``sum``'s
order) is all a memory holds; it re-checks no input, since the tracker
owns every input rule.

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
from typing import Deque, Optional

import numpy as np

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


@dataclass(eq=False, slots=True)
class MemoryEntry:
    """A stored feature: what the object looked like, when, and how crowded it was."""

    embedding: np.ndarray
    frame_idx: int
    overlap_at_store: float


class TrackMemory:
    """Mutable per-track memory driven by :meth:`observe`, one instance per track.

    The three public operations are ``observe`` (feed one frame's box
    centre, embedding, and overlap; returns whether a feature was stored),
    ``fused_query`` (blend a current embedding with the memory mean), and
    ``commit_store`` (normally invoked internally by ``observe``).
    ``memory_term`` and ``policy`` are read-only. ``entries`` holds a
    ``MemoryEntry`` per stored feature, and ``accumulator`` the travel since
    the last store; the pending candidate and the last centre are private
    fields, so a frame that stores nothing builds no object.

    The stored embeddings sit in a ring of ``m_max`` slots, and row j of an
    (m_max, D) array is ``sum``'s left fold from 0 of the embeddings from
    slot j to the newest. A commit adds its row to every fold and starts
    its own slot's fold anew, so the oldest slot's fold is ``sum`` over the
    entries, bit for bit, whatever was evicted. The array has room for 16
    rows at the first commit and doubles while the ring fills, so a full
    ring's commit allocates only its ``MemoryEntry`` and its term.

    The memory checks none of its inputs. The caller guarantees them, and
    in the package each part has one owner:

    * the centre (x, y) is finite (``Tracker.step`` passes the ``cx`` and
      ``cy`` of a checked ``Box2D``);
    * every embedding e is a 1-D float64 array with ``0 < row_norms(e) < inf``
      (``tracker.Detection``, or the path that built it: the simulator, or
      the sidecar reader's one mask per block), and all have one size
      (``Tracker.step``, which names the frame and detection index of a
      mismatch);
    * ``overlap`` is in [0, 1] (``geometry.iou_matrix`` clamps every IoU at
      1.0, its quotient is never below +0.0, and ``max_iou_vs_others``
      picks one of them);
    * ``frame_idx`` strictly increases from one call to the next
      (``Tracker.step`` rejects a frame not above the last one), and a track
      is observed at most once per frame (the one-to-one assignment).
    """

    def __init__(self, cfg: MemoryConfig, policy: MemoryPolicy = MemoryPolicy.SPARSE_OFS):
        self.cfg = cfg
        self._policy = policy = MemoryPolicy(policy)  # a value string, e.g. "none", is its member
        self._off = policy is MemoryPolicy.NONE
        self._least_overlap = policy is MemoryPolicy.SPARSE_OFS
        self._every_frame = policy is MemoryPolicy.DENSE
        self._calm_only = policy is MemoryPolicy.DELAYING
        self.entries: Deque[MemoryEntry] = deque(maxlen=cfg.m_max)
        # The suffix folds and the newest row in every slot, from the first
        # commit on, and the slot the next commit writes.
        self._folds: Optional[np.ndarray] = None
        self._spread: Optional[np.ndarray] = None
        self._slot = 0
        self._memory_term: Optional[np.ndarray] = None
        self.accumulator: float = 0.0
        # The last observed centre; None before the first observation.
        self._last_x: Optional[float] = None
        self._last_y = 0.0
        # The pending commit's embedding, frame and overlap: for SPARSE_OFS
        # the least-overlapped frame since the last store, otherwise the
        # latest. No candidate is pending while the embedding is None; its
        # overlap is then inf, above every overlap in [0, 1].
        self._pending: Optional[np.ndarray] = None
        self._pending_frame = 0
        self._pending_overlap = math.inf

    @property
    def policy(self) -> MemoryPolicy:
        """The policy, fixed at construction: ``observe`` reads flags set from it then."""
        return self._policy

    @property
    def memory_term(self) -> Optional[np.ndarray]:
        """What ``fused_query`` adds to ``alpha * current``, None while nothing
        is stored: ((1 - alpha) / m) times the sum of the m stored embeddings
        in entry order, set on each commit, so ``alpha`` is read at commit."""
        return self._memory_term

    def observe(
        self, x: float, y: float, embedding: np.ndarray, overlap: float, frame_idx: int
    ) -> bool:
        """Feed one observed frame, box centre first; returns True when a feature was stored."""
        if self._off:
            return False

        if self._last_x is not None:
            self.accumulator += math.hypot(x - self._last_x, y - self._last_y)
        self._last_x, self._last_y = x, y

        # SPARSE_OFS keeps the least-overlapped frame since the last store,
        # ties going to the earlier frame; every other policy keeps the latest.
        if not self._least_overlap or overlap < self._pending_overlap:
            self._pending, self._pending_frame, self._pending_overlap = (
                embedding, frame_idx, overlap)
        # DENSE stores every frame; the others once past the motion gate, and
        # DELAYING only on a frame at or below its overlap threshold.
        store = self._every_frame or (
            self.accumulator > self.cfg.epsilon
            and (not self._calm_only or overlap <= self.cfg.delay_overlap_threshold))
        if store:
            self.commit_store()
        return store

    def commit_store(self) -> None:
        """Push the pending candidate into the ring and reset the gate."""
        row, folds, slot = self._pending, self._folds, self._slot
        if row is None:
            raise ValueError("commit_store called with no pending candidate")
        entries = self.entries
        entries.append(MemoryEntry(row, self._pending_frame, self._pending_overlap))
        if folds is None or slot == len(folds):
            # Room for 16 rows, doubled while the ring fills, up to m_max:
            # a large capacity costs nothing until its entries come.
            grown = np.zeros((min(entries.maxlen, max(16, 2 * slot)), row.size))
            if folds is not None:
                grown[:slot] = folds
            folds = self._folds = grown
            self._spread = np.empty_like(folds)
        # Each fold takes one more addition, in ``sum``'s order; the slot
        # written starts its fold anew from 0, and + 0.0 makes -0.0 +0.0, as
        # sum's fold from int 0 does. Folds of free slots are never read. The
        # row is spread over a slot-shaped array first: numpy buffers a
        # broadcast add, allocating about the folds' size on every call.
        spread = self._spread
        np.copyto(spread, row)
        folds += spread
        np.add(row, 0.0, out=folds[slot])
        self._slot = slot = (slot + 1) % entries.maxlen
        m = len(entries)
        # The oldest entry's slot: the next one written once the ring is full.
        oldest = slot if m == entries.maxlen else 0
        self._memory_term = ((1.0 - self.cfg.alpha) / m) * folds[oldest]
        self.accumulator = 0.0
        self._pending, self._pending_overlap = None, math.inf

    def fused_query(self, current: np.ndarray) -> np.ndarray:
        """Blend the current embedding with the memory mean.

        Returns ``alpha * current + (1 - alpha) * mean(entries)``; with an
        empty memory the current embedding itself is returned.
        """
        if self._memory_term is None:
            return current
        return fuse(self.cfg.alpha, current, self._memory_term)


def fuse(alpha: float, current: np.ndarray, memory_term: np.ndarray) -> np.ndarray:
    """``alpha * current + memory_term``, for one query or (k, D) rows of them."""
    return alpha * current + memory_term

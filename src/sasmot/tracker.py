"""Association tracker driving the sparse memory.

Per frame the tracker runs one IoU pass: the live tracks' last boxes
stacked on the detection boxes, against the detection boxes. The
track-by-detection block is the spatial term of a cost matrix that blends
appearance (cosine distance between the track's fused query and the
detection embedding) with overlap; the detection-by-detection block, its
diagonal zeroed, gives each detection's largest IoU with any other, which
its memory records. The tracker then solves a minimum-cost one-to-one
assignment and updates matched tracks' memories and queries. Unmatched
detections become new tracks; unmatched tracks coast with frozen memory
until they exceed ``max_misses``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import Box2D, boxes_to_corners, iou_matrix
from .memory import MemoryConfig, MemoryPolicy, TrackMemory

__all__ = [
    "FORBIDDEN_COST",
    "Detection",
    "TrackerConfig",
    "TrackState",
    "FrameResult",
    "cosine_distance",
    "build_cost_matrix",
    "hungarian_assign",
    "Tracker",
]

# Sentinel for gated-out pairs; large enough that the solver only routes
# through it when no feasible alternative exists, after which the pair is
# dropped from the returned assignment.
FORBIDDEN_COST = 1e9


@dataclass(eq=False)
class Detection:
    """One detected object in one frame: box, appearance embedding, confidence."""

    box: Box2D
    embedding: np.ndarray
    score: float

    def __post_init__(self):
        self.embedding = np.asarray(self.embedding, dtype=float)
        if self.embedding.ndim != 1:
            raise ValueError(f"embedding must be 1-D, got shape {self.embedding.shape}")
        if not np.all(np.isfinite(self.embedding)):
            raise ValueError("embedding contains non-finite values")
        if not np.any(self.embedding):
            raise ValueError("embedding is all zeros")
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score must be in [0, 1], got {self.score}")


@dataclass
class TrackerConfig:
    """Association knobs.

    ``cost_blend`` weighs appearance against spatial cost:
    cost = cost_blend * cosine_distance/2 + (1 - cost_blend) * (1 - IoU).
    Pairs with cost above ``match_threshold`` (or IoU below ``iou_gate``
    when the gate is enabled, i.e. > 0) are forbidden.
    """

    memory: MemoryConfig = field(default_factory=MemoryConfig)
    match_threshold: float = 0.4
    iou_gate: float = 0.0
    min_score: float = 0.5
    max_misses: int = 30
    cost_blend: float = 0.7

    def __post_init__(self):
        if not 0.0 <= self.cost_blend <= 1.0:
            raise ValueError(f"cost_blend must be in [0, 1], got {self.cost_blend}")
        if not 0.0 <= self.iou_gate <= 1.0:
            raise ValueError(f"iou_gate must be in [0, 1], got {self.iou_gate}")
        if not 0.0 <= self.min_score <= 1.0:
            raise ValueError(f"min_score must be in [0, 1], got {self.min_score}")
        if not self.match_threshold >= 0.0:
            raise ValueError(f"match_threshold must be >= 0, got {self.match_threshold}")
        if self.max_misses < 0:
            raise ValueError(f"max_misses must be >= 0, got {self.max_misses}")


@dataclass(eq=False)
class TrackState:
    """A live track: identity, fused query, memory, last box, miss counter."""

    track_id: int
    query: np.ndarray
    memory: TrackMemory
    last_box: Box2D
    misses: int = 0


@dataclass(eq=False)
class FrameResult:
    """Boxes emitted for one frame: (track_id, box) for matched-or-new tracks."""

    frame_idx: int
    tracks: List[Tuple[int, Box2D]]


def cosine_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise 1 - cos for the rows of (T, D) ``a`` and (N, D) ``b``; (T, N) in [0, 2].

    A zero-norm row has no direction; detections reject one at ingest, but
    a fused track query can still cancel out to zero.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = np.sqrt(np.einsum("ij,ij->i", a, a))
    nb = np.sqrt(np.einsum("ij,ij->i", b, b))
    if not ((na > 0.0).all() and (nb > 0.0).all()):
        raise ValueError("zero-norm embedding in cosine_distance")
    return np.clip(1.0 - (a @ b.T) / np.outer(na, nb), 0.0, 2.0)


def build_cost_matrix(
    tracks: Sequence[TrackState],
    dets: Sequence[Detection],
    ov: np.ndarray,
    cfg: TrackerConfig,
) -> np.ndarray:
    """Blended appearance/spatial cost, with gated-out pairs set to FORBIDDEN_COST.

    ``ov`` is the (T, N) IoU of each track's last box with each detection's
    box, the top block of the step's single ``iou_matrix`` pass.
    """
    if not tracks or not dets:
        return np.zeros((len(tracks), len(dets)), dtype=float)
    lam = cfg.cost_blend
    appearance = cosine_distance(
        np.array([t.query for t in tracks]), np.array([d.embedding for d in dets])
    )
    cost = lam * appearance / 2.0 + (1.0 - lam) * (1.0 - ov)
    # IoU is never below 0, so a disabled gate (0.0) forbids nothing.
    forbidden = (ov < cfg.iou_gate) | (cost > cfg.match_threshold)
    cost[forbidden] = FORBIDDEN_COST
    return cost


def hungarian_assign(cost: np.ndarray) -> List[Tuple[int, int]]:
    """Minimum-total-cost one-to-one assignment, skipping forbidden entries.

    Returns (row, col) pairs sorted by row; rows/columns left over in a
    rectangular matrix, and pairs the solver was forced to route through
    FORBIDDEN_COST, are omitted.
    """
    if cost.size == 0:
        return []
    rows, cols = linear_sum_assignment(cost)
    keep = cost[rows, cols] < FORBIDDEN_COST
    return list(zip(rows[keep].tolist(), cols[keep].tolist()))


class Tracker:
    """Per-sequence association engine; feed frames in order via :meth:`step`."""

    def __init__(
        self,
        cfg: Optional[TrackerConfig] = None,
        policy: MemoryPolicy = MemoryPolicy.SPARSE_OFS,
    ):
        self.cfg = cfg if cfg is not None else TrackerConfig()
        self.policy = policy
        self.tracks: List[TrackState] = []
        self._next_id = 1
        self._last_frame: Optional[int] = None
        # Embedding size, taken from the first detection seen.
        self.dim: Optional[int] = None

    def step(self, detections: Sequence[Detection], frame_idx: int) -> FrameResult:
        """Advance one frame; returns the (track_id, box) pairs emitted for it."""
        if self._last_frame is not None and frame_idx <= self._last_frame:
            raise ValueError(
                f"frame_idx must increase: got {frame_idx} after {self._last_frame}"
            )
        for di, det in enumerate(detections):
            if self.dim is None:
                self.dim = det.embedding.size
            elif det.embedding.size != self.dim:
                raise ValueError(
                    f"frame {frame_idx}: detection {di} has embedding size "
                    f"{det.embedding.size}, expected {self.dim}"
                )
        self._last_frame = frame_idx

        dets = [d for d in detections if d.score >= self.cfg.min_score]

        # One IoU pass, (tracks + dets) x dets: the top block is the cost's
        # spatial term, and the bottom block with its diagonal zeroed gives
        # each detection's largest IoU with any other (0.0 when alone).
        n = len(self.tracks)
        corners = boxes_to_corners([t.last_box for t in self.tracks] + [d.box for d in dets])
        ious = iou_matrix(corners, corners[n:])
        cost = build_cost_matrix(self.tracks, dets, ious[:n], self.cfg)
        pairs = hungarian_assign(cost)

        others = ious[n:]
        np.fill_diagonal(others, 0.0)
        overlaps = others.max(axis=1, initial=0.0).tolist()

        # Every live track takes a miss, a match clears it, tracks past
        # max_misses die, and unmatched detections are born in order.
        for track in self.tracks:
            track.misses += 1
        emitted: List[Tuple[int, Box2D]] = []
        for ti, di in pairs:
            track = self.tracks[ti]
            det = dets[di]
            track.misses = 0
            track.last_box = det.box
            track.memory.observe(det.box, det.embedding, overlaps[di], frame_idx)
            track.query = track.memory.fused_query(det.embedding)
            emitted.append((track.track_id, det.box))
        self.tracks = [t for t in self.tracks if t.misses <= self.cfg.max_misses]
        paired = {di for _, di in pairs}
        for di, det in enumerate(dets):
            if di in paired:
                continue
            memory = TrackMemory(self.cfg.memory, self.policy)
            # The birth observation seeds the memory's last_center and
            # candidate; sparse policies store nothing yet.
            memory.observe(det.box, det.embedding, overlaps[di], frame_idx)
            self.tracks.append(TrackState(
                track_id=self._next_id, query=det.embedding, memory=memory, last_box=det.box
            ))
            emitted.append((self._next_id, det.box))
            self._next_id += 1
        return FrameResult(frame_idx, emitted)

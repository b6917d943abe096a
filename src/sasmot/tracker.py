"""Association tracker driving the sparse memory.

Per frame the tracker builds a track-by-detection cost matrix blending
appearance (cosine distance between the track's fused query and the
detection embedding) with spatial overlap (IoU against the track's last
box), solves a minimum-cost one-to-one assignment, and updates matched
tracks' memories and queries. Unmatched detections become new tracks;
unmatched tracks coast with frozen memory until they exceed ``max_misses``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import Box2D, boxes_to_corners, iou_matrix, max_iou_vs_others
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
        if self.match_threshold < 0.0:
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
    if not (np.all(na > 0.0) and np.all(nb > 0.0)):
        raise ValueError("zero-norm embedding in cosine_distance")
    return np.clip(1.0 - (a @ b.T) / np.outer(na, nb), 0.0, 2.0)


def build_cost_matrix(
    tracks: Sequence[TrackState],
    dets: Sequence[Detection],
    det_corners: np.ndarray,
    cfg: TrackerConfig,
) -> np.ndarray:
    """Blended appearance/spatial cost, with gated-out pairs set to FORBIDDEN_COST.

    ``det_corners`` is ``boxes_to_corners`` of the detections' boxes.
    """
    if not tracks or not dets:
        return np.zeros((len(tracks), len(dets)), dtype=float)
    lam = cfg.cost_blend
    appearance = cosine_distance(
        np.stack([t.query for t in tracks]), np.stack([d.embedding for d in dets])
    )
    ov = iou_matrix(boxes_to_corners([t.last_box for t in tracks]), det_corners)
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
    return [(int(r), int(c)) for r, c in zip(rows, cols) if cost[r, c] < FORBIDDEN_COST]


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

    def step(self, detections: Sequence[Detection], frame_idx: int) -> FrameResult:
        """Advance one frame; returns the (track_id, box) pairs emitted for it."""
        if self._last_frame is not None and frame_idx <= self._last_frame:
            raise ValueError(
                f"frame_idx must increase: got {frame_idx} after {self._last_frame}"
            )
        self._last_frame = frame_idx

        dets = [d for d in detections if d.score >= self.cfg.min_score]

        corners = boxes_to_corners([d.box for d in dets])
        cost = build_cost_matrix(self.tracks, dets, corners, self.cfg)
        pairs = hungarian_assign(cost)

        overlaps = max_iou_vs_others(corners)[0].tolist()

        emitted: List[Tuple[int, Box2D]] = []
        matched_tracks = set()
        matched_dets = set()
        for ti, di in pairs:
            track = self.tracks[ti]
            det = dets[di]
            track.last_box = det.box
            track.memory.observe(det.box, det.embedding, overlaps[di], frame_idx)
            track.query = track.memory.fused_query(det.embedding)
            track.misses = 0
            matched_tracks.add(ti)
            matched_dets.add(di)
            emitted.append((track.track_id, det.box))

        survivors: List[TrackState] = []
        for ti, track in enumerate(self.tracks):
            if ti in matched_tracks:
                survivors.append(track)
                continue
            track.misses += 1
            if track.misses <= self.cfg.max_misses:
                survivors.append(track)

        for di, det in enumerate(dets):
            if di in matched_dets:
                continue
            memory = TrackMemory(self.cfg.memory, self.policy)
            track = TrackState(
                track_id=self._next_id,
                query=det.embedding,
                memory=memory,
                last_box=det.box,
            )
            self._next_id += 1
            # The birth observation seeds the memory's last_center and
            # candidate; sparse policies store nothing yet.
            memory.observe(det.box, det.embedding, overlaps[di], frame_idx)
            survivors.append(track)
            emitted.append((track.track_id, det.box))

        self.tracks = survivors
        return FrameResult(frame_idx, emitted)

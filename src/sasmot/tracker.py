"""Association tracker driving the sparse memory.

Per frame the tracker runs one IoU pass: the live tracks' last boxes
stacked on the detection boxes, against the detection boxes. The
track-by-detection block is the spatial term of a cost matrix that blends
appearance (cosine distance between the track's fused query and the
detection embedding) with overlap; ``max_iou_vs_others`` of the
detection-by-detection block gives each detection's largest IoU with any
other, which its memory records. The tracker then solves a minimum-cost
one-to-one assignment and updates matched tracks' memories and queries.
Unmatched detections become new tracks; unmatched tracks coast with frozen
memory until they exceed ``max_misses``.

The solver is scipy's compiled ``linear_sum_assignment``, loaded straight
from the ``_lsap`` extension in scipy's ``optimize/`` directory under its
own name, ``scipy.optimize._lsap``. No other scipy module is imported, which
saves the start-up time and memory of all of ``scipy.optimize``; a later
``import scipy.optimize`` reuses the same module, so the function is the
same object. A scipy without that extension fails here, at import.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .geometry import Box2D, boxes_to_corners, iou_matrix, max_iou_vs_others
from .memory import MemoryConfig, MemoryPolicy, TrackMemory


def _load_lsap():
    """scipy's compiled solver module, loaded without importing any scipy package."""
    name = "scipy.optimize._lsap"
    if name in sys.modules:
        return sys.modules[name]
    where = importlib.util.find_spec("scipy").submodule_search_locations[0] + "/optimize"
    finder = importlib.machinery.FileFinder(
        where, (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    )
    spec = finder.find_spec(name)
    if spec is None:
        raise ImportError(f"sasmot needs scipy's compiled linear_sum_assignment; "
                          f"no _lsap extension in {where}")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


linear_sum_assignment = _load_lsap().linear_sum_assignment

__all__ = [
    "FORBIDDEN_COST",
    "Detection",
    "embedding_fault",
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


def embedding_fault(e: np.ndarray) -> Optional[str]:
    """Why a 1-D float embedding breaks ``0 < e·e < inf``, or None if it holds."""
    # One squared norm covers every case: NaN fails both comparisons.
    # np.vdot, unlike ``@``, does not warn when the sum overflows.
    norm2 = np.vdot(e, e)
    if 0.0 < norm2 < math.inf:
        return None
    if not np.all(np.isfinite(e)):
        return "non-finite value in embedding"
    if not np.any(e):
        return "zero-norm embedding"
    if norm2:
        return "embedding squared norm overflows to inf"
    return "embedding squared norm underflows to 0"


@dataclass(eq=False, slots=True)
class Detection:
    """One detected object in one frame: box, appearance embedding, confidence."""

    box: Box2D
    embedding: np.ndarray
    score: float

    def __post_init__(self):
        e = self.embedding = np.asarray(self.embedding, dtype=float)
        if e.ndim != 1:
            raise ValueError(f"embedding must be 1-D, got shape {e.shape}")
        if fault := embedding_fault(e):
            raise ValueError(fault)
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


@dataclass(eq=False, slots=True)
class TrackState:
    """A live track: identity, fused query, memory, last box, miss counter."""

    track_id: int
    query: np.ndarray
    memory: TrackMemory
    last_box: Box2D
    misses: int = 0


@dataclass(eq=False, slots=True)
class FrameResult:
    """Boxes emitted for one frame: (track_id, box) for matched-or-new tracks."""

    frame_idx: int
    tracks: List[Tuple[int, Box2D]]


def cosine_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise 1 - cos for the rows of (T, D) ``a`` and (N, D) ``b``; (T, N) in [0, 2].

    A zero-norm row has no direction, so its distance to every row is 1.0,
    as in sklearn's ``cosine_distances``. Detections reject one at ingest,
    but a fused track query can still cancel out to zero.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = np.sqrt(np.einsum("ij,ij->i", a, a))
    nb = np.sqrt(np.einsum("ij,ij->i", b, b))
    norms = na[:, None] * nb
    d = np.divide(a @ b.T, norms, out=np.zeros_like(norms), where=norms > 0.0)
    # 1 - cos, clamped in place; it is never -0.0, the one input on which
    # these two bounds and np.clip differ.
    np.subtract(1.0, d, out=d)
    np.maximum(d, 0.0, out=d)
    return np.minimum(d, 2.0, out=d)


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
    forbidden = cost > cfg.match_threshold
    # IoU is never below 0, so a disabled gate (0.0) would forbid nothing.
    if cfg.iou_gate > 0.0:
        forbidden |= ov < cfg.iou_gate
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
    # Filtered in Python: at tracking sizes that is cheaper than indexing
    # both index arrays with a mask.
    return [
        (r, c)
        for r, c, v in zip(rows.tolist(), cols.tolist(), cost[rows, cols].tolist())
        if v < FORBIDDEN_COST
    ]


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
        # One pass checks every embedding size and keeps the confident ones.
        dets: List[Detection] = []
        min_score = self.cfg.min_score
        for di, det in enumerate(detections):
            size = det.embedding.size
            if self.dim is None:
                self.dim = size
            elif size != self.dim:
                raise ValueError(
                    f"frame {frame_idx}: detection {di} has embedding size "
                    f"{size}, expected {self.dim}"
                )
            if det.score >= min_score:
                dets.append(det)
        self._last_frame = frame_idx

        # One IoU pass, (tracks + dets) x dets: the top block is the cost's
        # spatial term, and the bottom block gives each detection's largest
        # IoU with any other (0.0 when alone).
        n = len(self.tracks)
        corners = boxes_to_corners([t.last_box for t in self.tracks] + [d.box for d in dets])
        ious = iou_matrix(corners, corners[n:])
        cost = build_cost_matrix(self.tracks, dets, ious[:n], self.cfg)
        pairs = hungarian_assign(cost)
        overlaps = max_iou_vs_others(ious[n:])[0].tolist()

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

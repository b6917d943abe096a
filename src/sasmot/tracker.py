"""Association tracker driving the sparse memory.

A frame's detections travel as one ``DetectionFrame``: the ``Detection``s
with their (N, 4) corners, (N, D) embeddings, (N,) scores, each one's
largest IoU with the others (``max_iou_vs_others``), which its memory
records, the box areas and embedding norms that the cost's IoU and cosine
terms divide by, and the lowest score. ``_detection_frames`` builds the
records and their ``Detection``s from flat rows where detections enter:
the simulator's block pass and the MOT/sidecar reader. A scene's records
are scored once, however many trackers step through them; a plain list
given to ``Tracker.step`` becomes a record there.

The tracks' side is three banks, their last corners (T, 4), those boxes'
areas (T,) and their fused queries (T, D). Per frame one IoU pass, the
corner and area banks against the record's corners and areas, is the
spatial term of a cost matrix that blends it with appearance, the cosine
distance of queries and embeddings. The tracker solves a minimum-cost
one-to-one assignment, feeds the matched tracks' memories and rewrites
their rows, the queries in one ``fuse`` pass over the rows whose
``memory_term`` is set (the rest stay raw). New tracks append rows; tracks
unmatched past ``max_misses`` drop theirs. A record whose lowest score is
at least ``min_score`` is stepped as it is; when ``min_score`` drops a
detection, the kept rows of the record make a new one, and the step's IoU
pass also scores the kept detections against each other for its overlaps,
as one (tracks + kept) x kept pass.

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
from itertools import compress
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .geometry import Box2D, box_areas, boxes_to_corners, iou_matrix, max_iou_vs_others
from .memory import MemoryConfig, MemoryPolicy, TrackMemory, fuse


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
    "DetectionFrame",
    "embedding_fault",
    "TrackerConfig",
    "TrackState",
    "FrameResult",
    "row_norms",
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
    """Why a 1-D float embedding breaks ``0 < |e| < inf``, or None if it holds;
    |e| is ``row_norms`` of e as the contiguous row the tracker stacks and
    ``cosine_distance`` divides by (a strided row's sum may round apart)."""
    # One norm covers every case: NaN fails both comparisons.
    norm = row_norms(np.ascontiguousarray(e)[None])[0]
    if 0.0 < norm < math.inf:
        return None
    if not np.all(np.isfinite(e)):
        return "non-finite value in embedding"
    if not np.any(e):
        return "zero-norm embedding"
    if norm:
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


def _detection(box: Box2D, embedding: np.ndarray, score: float) -> Detection:
    """A ``Detection`` of fields its ingest path has already checked.

    Only ``_detection_frames`` calls it, on rows its callers have checked,
    so ``__post_init__`` would only repeat their verdicts; the public
    constructor keeps its check.
    """
    det = object.__new__(Detection)
    det.box, det.embedding, det.score = box, embedding, score
    return det


@dataclass(eq=False, slots=True)
class DetectionFrame:
    """One frame's detections and their arrays, built once where they enter.

    Row i of ``corners`` (N, 4; left, top, right, bottom), ``embeddings``
    (N, D) and ``scores`` (N,) belongs to ``detections[i]``, and
    ``overlaps[i]`` is its largest IoU with any other detection of the frame,
    0.0 when it is alone. ``areas[i]`` and ``norms[i]`` are its box area
    (``geometry.box_areas``) and embedding norm (``row_norms``), the halves
    of the step's IoU and cosine terms that no track changes, so every
    tracker that steps the record reads them. ``lowest_score`` is the
    smallest of ``scores``, inf for an empty frame, so a step whose
    ``min_score`` keeps every detection builds no mask. Iterating and
    ``len`` see the ``Detection`` list; a record is not indexed.

    A record is read-only once built: the tracker scores its arrays, not
    the ``Detection``s, so neither the list nor a detection's box,
    embedding or score may change afterwards. To track edited detections,
    build a new record from them with ``from_detections``.
    """

    detections: List[Detection]
    corners: np.ndarray
    embeddings: np.ndarray
    scores: np.ndarray
    overlaps: np.ndarray
    areas: np.ndarray
    norms: np.ndarray
    lowest_score: float

    @classmethod
    def from_detections(cls, detections: Iterable[Detection]) -> DetectionFrame:
        """The record of one frame's ``Detection``s, whose embeddings share one
        size; its ``Detection``s are new ones around the same boxes."""
        dets = list(detections)
        sizes = [det.embedding.size for det in dets]
        for di, size in enumerate(sizes):
            if size != sizes[0]:
                raise ValueError(
                    f"detection {di} has embedding size {size}, expected {sizes[0]}"
                )
        embeddings = np.array([det.embedding for det in dets]) if dets else np.empty((0, 0))
        boxes = [det.box for det in dets]
        return _detection_frames([len(dets)], boxes, boxes_to_corners(boxes), embeddings,
                                 [det.score for det in dets])[0]

    def __iter__(self) -> Iterator[Detection]:
        return iter(self.detections)

    def __len__(self) -> int:
        return len(self.detections)


# Padded cells of one IoU pass: frames times the square of their largest
# detection count. It bounds the pass's transient arrays however crowded a
# frame is; a group always takes at least one frame.
_IOU_CELLS = 1 << 15


def _detection_frames(
    counts: Sequence[int], boxes: Iterable[Box2D], corners: np.ndarray, embeddings: np.ndarray,
    scores: Sequence[float],
) -> List[DetectionFrame]:
    """Records of consecutive frames of ``counts[f]`` detections, whose rows
    in frame order are the ``boxes``, (k, 4) ``corners``, (k, D)
    ``embeddings`` and ``scores``; each row becomes a ``Detection``.

    The records' arrays are row slices of these and of one scores, one
    overlaps, one areas and one norms array; each record's lowest score is
    the least of its slice of the scores. Overlaps come from one
    ``iou_matrix`` per group of frames, each frame's corners zero-padded to
    the group's largest: a zero-size box overlaps nothing, and every IoU is
    elementwise, so each overlap has the bits of a pass over its frame alone.
    Areas and norms are one pass each over all rows; each row's value is
    computed from that row alone, so it has the bits of a one-frame pass.
    """
    starts = np.cumsum([0, *counts])
    scores = np.array(scores, dtype=float)
    score_list = scores.tolist()
    dets = list(map(_detection, boxes, embeddings, score_list))
    overlaps = np.empty(len(scores))
    a = 0
    while a < len(counts):
        b, width = a + 1, counts[a]
        while b < len(counts) and (b + 1 - a) * max(width, counts[b]) ** 2 <= _IOU_CELLS:
            width = max(width, counts[b])
            b += 1
        s, e = starts[a], starts[b]
        frame = np.repeat(np.arange(b - a), counts[a:b])
        slot = np.arange(e - s) - np.repeat(starts[a:b] - s, counts[a:b])
        padded = np.zeros((b - a, width, 4))
        padded[frame, slot] = corners[s:e]
        overlaps[s:e] = max_iou_vs_others(iou_matrix(padded, padded))[0][frame, slot]
        a = b
    areas, norms = box_areas(corners), row_norms(embeddings)
    bounds = starts.tolist()
    return [
        DetectionFrame(dets[s:e], corners[s:e], embeddings[s:e], scores[s:e], overlaps[s:e],
                       areas[s:e], norms[s:e], min(score_list[s:e], default=math.inf))
        for s, e in zip(bounds, bounds[1:])
    ]


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
    """A live track: identity, memory, miss counter (its box: ``Tracker.corners``)."""

    track_id: int
    memory: TrackMemory
    misses: int = 0


@dataclass(eq=False, slots=True)
class FrameResult:
    """Boxes emitted for one frame: (track_id, box) for matched-or-new tracks."""

    frame_idx: int
    tracks: List[Tuple[int, Box2D]]


def row_norms(rows: np.ndarray) -> np.ndarray:
    """The (N,) Euclidean norms of the rows of an (N, D) array."""
    return np.sqrt(np.einsum("ij,ij->i", rows, rows))


def cosine_distance(
    a: np.ndarray, b: np.ndarray, norms_b: Optional[np.ndarray] = None
) -> np.ndarray:
    """Pairwise 1 - cos for the rows of (T, D) ``a`` and (N, D) ``b``; (T, N) in [0, 2].

    A zero-norm row has no direction, so its distance to every row is 1.0,
    as in sklearn's ``cosine_distances``. Detections reject one at ingest,
    but a fused track query can still cancel out to zero. ``norms_b``, when
    given, is ``row_norms(b)``, computed once by a caller that scores ``b``
    many times.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    nb = row_norms(b) if norms_b is None else norms_b
    norms = row_norms(a)[:, None] * nb
    d = np.divide(a @ b.T, norms, out=np.zeros(norms.shape), where=norms > 0.0)
    # 1 - cos, clamped in place; it is never -0.0, the one input on which
    # these two bounds and np.clip differ.
    np.subtract(1.0, d, out=d)
    np.maximum(d, 0.0, out=d)
    return np.minimum(d, 2.0, out=d)


def build_cost_matrix(
    queries: np.ndarray,
    embeddings: np.ndarray,
    ov: np.ndarray,
    cfg: TrackerConfig,
    norms: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Blended appearance/spatial cost, with gated-out pairs set to FORBIDDEN_COST.

    ``queries`` holds the (T, D) track queries and ``embeddings`` the (N, D)
    detection embeddings, and ``ov`` is the (T, N) IoU of each track's last
    box with each detection's box, the step's one ``iou_matrix`` pass.
    ``norms``, when given, is ``row_norms(embeddings)`` (``cosine_distance``).
    """
    if not len(queries) or not len(embeddings):
        return np.zeros((len(queries), len(embeddings)), dtype=float)
    lam = cfg.cost_blend
    # In place, one operation at a time in the order of
    # lam * d / 2 + (1 - lam) * (1 - ov), so the bits are that expression's.
    cost = cosine_distance(queries, embeddings, norms)
    np.multiply(cost, lam, out=cost)
    np.divide(cost, 2.0, out=cost)
    spatial = np.subtract(1.0, ov)
    np.multiply(spatial, 1.0 - lam, out=spatial)
    np.add(cost, spatial, out=cost)
    forbidden = cost > cfg.match_threshold
    # IoU is never below 0, so a disabled gate (0.0) would forbid nothing.
    if cfg.iou_gate > 0.0:
        forbidden |= ov < cfg.iou_gate
    cost[forbidden] = FORBIDDEN_COST
    return cost


def hungarian_assign(cost: np.ndarray) -> np.ndarray:
    """Minimum-total-cost one-to-one assignment, skipping forbidden entries.

    Returns the (row, col) pairs as a (k, 2) intp array sorted by row; rows
    and columns left over in a rectangular matrix, and pairs the solver was
    forced to route through FORBIDDEN_COST, are omitted.
    """
    if cost.size == 0:
        return np.empty((0, 2), dtype=np.intp)
    rows, cols = linear_sum_assignment(cost)
    kept = cost[rows, cols] < FORBIDDEN_COST
    # The transpose of a (2, k) array: building it costs less than np.stack.
    return np.array((rows[kept], cols[kept])).T


class Tracker:
    """Per-sequence association engine; feed frames in order via :meth:`step`.

    Row i of ``corners`` (T, 4), ``areas`` (T,) and ``queries`` (T, D) is
    the last box, its area (``geometry.box_areas``, the bits ``iou_matrix``
    would compute from the corner) and the fused query of ``tracks[i]``;
    ``queries`` takes D when ``dim`` does. The area bank is written with
    the corner bank, from the record's areas, so no step recomputes it."""

    def __init__(
        self,
        cfg: Optional[TrackerConfig] = None,
        policy: MemoryPolicy = MemoryPolicy.SPARSE_OFS,
    ):
        self.cfg = cfg if cfg is not None else TrackerConfig()
        self.policy = MemoryPolicy(policy)  # a value string, e.g. "none", is its member
        self.tracks: List[TrackState] = []
        self.corners = np.empty((0, 4))
        self.areas = np.empty(0)
        self.queries = np.empty((0, 0))
        self._next_id = 1
        self._last_frame: Optional[int] = None
        # Embedding size, taken from the first accepted frame with detections.
        self.dim: Optional[int] = None

    def step(self, detections: Iterable[Detection], frame_idx: int) -> FrameResult:
        """Advance one frame; returns the (track_id, box) pairs emitted for it.

        ``detections`` is the frame's ``DetectionFrame``, or any iterable of
        ``Detection``s, which becomes one. A step that raises changes nothing.
        """
        if self._last_frame is not None and frame_idx <= self._last_frame:
            raise ValueError(
                f"frame_idx must increase: got {frame_idx} after {self._last_frame}"
            )
        frame = detections
        if not isinstance(frame, DetectionFrame):
            try:
                frame = DetectionFrame.from_detections(detections)
            except ValueError as exc:
                raise ValueError(f"frame {frame_idx}: {exc}") from None
        # Every detection has the record's size, so the first one speaks for all.
        dim = frame.embeddings.shape[1] if len(frame) else self.dim
        if dim != self.dim:
            if self.dim is not None:
                raise ValueError(
                    f"frame {frame_idx}: detection 0 has embedding size {dim}, expected {self.dim}"
                )
            self.dim, self.queries = dim, np.empty((0, dim))  # no track lives yet
        self._last_frame = frame_idx
        if frame.lowest_score >= self.cfg.min_score:
            ious = iou_matrix(self.corners, frame.corners, frame.areas, self.areas)
        else:
            # The kept rows of the record make a new one. Its overlaps must be
            # among the kept detections, so one pass, (tracks + kept) x kept,
            # gives the cost's spatial term on top and the overlaps below.
            n, keep = len(self.tracks), frame.scores >= self.cfg.min_score
            corners, areas, scores = frame.corners[keep], frame.areas[keep], frame.scores[keep]
            both = iou_matrix(np.concatenate((self.corners, corners)), corners, areas,
                              np.concatenate((self.areas, areas)))
            ious = both[:n]
            frame = DetectionFrame(
                list(compress(frame.detections, keep.tolist())), corners,
                frame.embeddings[keep], scores, max_iou_vs_others(both[n:])[0],
                areas, frame.norms[keep], scores.min(initial=math.inf),
            )
        dets = frame.detections

        cost = build_cost_matrix(self.queries, frame.embeddings, ious, self.cfg, frame.norms)
        pairs = hungarian_assign(cost)
        overlaps = frame.overlaps.tolist()

        # Every live track takes a miss, a match clears it, tracks past
        # max_misses die, and unmatched detections are born in order.
        for track in self.tracks:
            track.misses += 1
        emitted: List[Tuple[int, Box2D]] = []
        fused, terms = [], []
        for k, (ti, di) in enumerate(pairs.tolist()):
            track = self.tracks[ti]
            det = dets[di]
            box = det.box
            track.misses = 0
            track.memory.observe(box.cx, box.cy, det.embedding, overlaps[di], frame_idx)
            term = track.memory._memory_term  # the field: no property call per match
            if term is not None:
                fused.append(k)
                terms.append(term)
            emitted.append((track.track_id, box))
        if len(pairs):
            rows, cols = pairs.T
            # Rows are gathered with ``take``, which costs less than indexing.
            self.corners[rows] = frame.corners.take(cols, 0)
            self.areas[rows] = frame.areas.take(cols)
            queries, alpha = frame.embeddings.take(cols, 0), self.cfg.memory.alpha
            if fused:
                queries[fused] = fuse(alpha, queries.take(fused, 0), np.array(terms))
            self.queries[rows] = queries
        keep = [i for i, t in enumerate(self.tracks) if t.misses <= self.cfg.max_misses]
        if len(keep) < len(self.tracks):
            self.tracks = [self.tracks[i] for i in keep]
            self.corners, self.queries = self.corners.take(keep, 0), self.queries.take(keep, 0)
            self.areas = self.areas.take(keep)
        paired = set(pairs[:, 1].tolist())
        born = [di for di in range(len(dets)) if di not in paired]
        if born:
            self.corners = np.concatenate((self.corners, frame.corners.take(born, 0)))
            self.areas = np.concatenate((self.areas, frame.areas.take(born)))
            self.queries = np.concatenate((self.queries, frame.embeddings.take(born, 0)))
        for di in born:
            det = dets[di]
            box = det.box
            memory = TrackMemory(self.cfg.memory, self.policy)
            # The birth observation seeds the last centre and the candidate; a
            # DENSE memory also stores, but the query stays raw until a match.
            memory.observe(box.cx, box.cy, det.embedding, overlaps[di], frame_idx)
            self.tracks.append(TrackState(track_id=self._next_id, memory=memory))
            emitted.append((self._next_id, box))
            self._next_id += 1
        return FrameResult(frame_idx, emitted)

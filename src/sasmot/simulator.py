"""Deterministic synthetic scenarios for exercising the tracker.

The generator produces ground-truth trajectories plus noisy detections whose
appearance dynamics are coupled to motion: each object's true appearance is
a unit vector rotated inside a fixed per-object 2-plane by ``drift_rate``
radians per unit of center travel, so pose change is literally proportional
to displacement. Two additional effects create the situations a long sparse
memory is meant to survive:

* rotation events: with probability ``rotation_event_prob`` per object-frame
  the appearance jumps by ``rotation_magnitude`` radians in a random
  direction, modeling sudden turns;
* occlusion contamination: when an object overlaps another, its detection
  embedding is blended toward the occluder's appearance in proportion to
  the overlap, modeling corrupted features in crowded moments.

Boxes move with constant speed and occasional random heading changes,
reflecting off the borders of the unit square. Detections are dropped with
``miss_prob_base`` (or ``miss_prob_occluded`` when heavily overlapped) and
observed with small box jitter. All randomness comes from one SplitMix64
stream seeded by the config, so identical configs generate identical
scenarios bit for bit. The coupling of appearance to motion is this
package's synthetic operationalization; it makes no claims beyond the
benchmark itself.

Generation runs in two passes. The first walks the frames one by one and,
in each, the objects in stream order: it moves them, scores the frame's
overlaps (the largest one sets an object's miss probability, so it cannot
wait) and draws each object's miss, its block of raw outputs for box jitter
and embedding noise, and its confidence. The second is one array pass per
block of 32 frames, and at the last frame: the true appearance of the
block's frames, each object's occluder, Box-Muller over all raw outputs of
its kept detections (``rng.box_muller``), the blend toward the occluder,
the division by each row's norm, the jittered boxes and their corners
(``geometry.corners_of``), and the block's ``DetectionFrame`` records from
``_detection_frames``, which takes the block's rows and makes their
``Detection``s; its one zero-padded IoU pass gives each detection its
largest overlap with the others. No ``Box2D`` or ``Detection`` re-runs its
checks: one ``valid_boxes`` mask per block checks the gt boxes and one the
detection boxes (a block that fails builds them with ``Box2D``, which
raises the first error), each row has unit norm and each confidence is in
[0.5, 1] by construction, and the config's bounds on ``size_jitter`` and
``noise_sigma`` keep every size factor and squared norm finite. Every array step is
elementwise and rounded as the scalar one (``exp``, ``cos`` and ``sin`` stay
in Python ``math``, which numpy's versions need not match), and each norm is
``sqrt(row.dot(row))``, the 1-D formula of ``np.linalg.norm``, so the bits
equal those of a per-object loop whatever the block size. The block bounds
the pass's transient arrays: one pass over a whole 24-object, 200-frame
scene needs about twice the memory the scene holds.
``Scenario.true_appearance`` is one (frames, objects, D) array, and the
embeddings of a block's detections are row views of one (k, D) array, and
each record's embeddings a slice of it, so one held ``Detection`` keeps its
block's array alive.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .geometry import Box2D, _box, corners_of, iou_matrix, max_iou_vs_others, valid_boxes
from .rng import SplitMix64, box_muller
from .tracker import DetectionFrame, _detection_frames

__all__ = ["ScenarioConfig", "Scenario", "generate_scenario"]

# The largest magnitude ``box_muller`` returns: its radius at the smallest
# u1, 2**-64, times a cosine of at most 1.
_GAUSS_MAX = math.sqrt(-2.0 * math.log(2.0**-64))
_LOG_MAX = math.log(sys.float_info.max)  # the largest x whose math.exp is finite


@dataclass
class ScenarioConfig:
    """Scenario knobs; defaults give a crowded, rotation-heavy sequence."""

    n_objects: int = 8
    n_frames: int = 500
    embedding_dim: int = 16
    drift_rate: float = math.pi  # appearance radians per unit center travel
    rotation_event_prob: float = 0.01  # per object-frame
    rotation_magnitude: float = 1.8  # radians per event, random direction
    occlusion_blend: float = 0.6  # contamination strength at full overlap
    noise_sigma: float = 0.03  # per-component gaussian on embeddings
    miss_prob_base: float = 0.05
    miss_prob_occluded: float = 0.35  # applies when max overlap > 0.5
    seed: int = 1
    # Motion/observation details of the constant-velocity-with-turns model.
    speed: float = 0.012  # per-frame center displacement
    turn_prob: float = 0.05  # heading-change probability per object-frame
    size_min: float = 0.10
    size_max: float = 0.18
    box_jitter: float = 0.002  # absolute center jitter sigma
    size_jitter: float = 0.02  # relative log-size jitter sigma

    def __post_init__(self):
        if self.n_objects < 1:
            raise ValueError(f"n_objects must be >= 1, got {self.n_objects}")
        if self.n_frames < 1:
            raise ValueError(f"n_frames must be >= 1, got {self.n_frames}")
        if self.embedding_dim < 2:
            raise ValueError(f"embedding_dim must be >= 2, got {self.embedding_dim}")
        for name, value in (
            ("drift_rate", self.drift_rate),
            ("noise_sigma", self.noise_sigma),
            ("box_jitter", self.box_jitter),
            ("size_jitter", self.size_jitter),
        ):
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        # A detection's size factor is exp(size_jitter * g) for a variate g,
        # which must not overflow.
        if not self.size_jitter * _GAUSS_MAX <= _LOG_MAX:
            raise ValueError(f"size_jitter must be at most {_LOG_MAX / _GAUSS_MAX:.6g}, "
                             f"got {self.size_jitter}")
        # Each component of a noisy embedding is at most 1 + noise_sigma * g
        # in magnitude, so its squared norm at most embedding_dim times the
        # square of that, which must stay finite; the factor 2 leaves room
        # for rounding.
        root = math.sqrt(sys.float_info.max / self.embedding_dim) / 2.0
        if not (1.0 + self.noise_sigma * _GAUSS_MAX) <= root:
            raise ValueError(f"noise_sigma must be at most {(root - 1.0) / _GAUSS_MAX:.6g} "
                             f"for embedding_dim {self.embedding_dim}, got {self.noise_sigma}")
        if not math.isfinite(self.rotation_magnitude):
            raise ValueError(f"rotation_magnitude must be finite, got {self.rotation_magnitude}")
        for name, value in (
            ("rotation_event_prob", self.rotation_event_prob),
            ("occlusion_blend", self.occlusion_blend),
            ("miss_prob_base", self.miss_prob_base),
            ("miss_prob_occluded", self.miss_prob_occluded),
            ("turn_prob", self.turn_prob),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if not 0.0 < self.size_min <= self.size_max < 1.0:
            raise ValueError("need 0 < size_min <= size_max < 1")
        if not 0.0 < self.speed < 0.5:
            raise ValueError(f"speed must be in (0, 0.5), got {self.speed}")


@dataclass(eq=False)
class Scenario:
    """Generated sequence: per-frame ground truth, detections, true appearances.

    ``true_appearance[t][i]`` is the unit appearance of object i + 1 in frame
    t + 1, before occlusion and noise. ``detections`` holds one
    ``DetectionFrame`` per frame, built once and read-only afterwards: a
    tracker reads a record's arrays, not its ``Detection``s, so edits to
    them would go unseen. The detection embeddings of each block of 32
    frames are row views of one array, which any one of them keeps alive.
    """

    gt: List[List[Tuple[int, Box2D]]]
    detections: List[DetectionFrame]
    true_appearance: np.ndarray  # (frames, objects, D)


def _orthonormal_plane(rng: SplitMix64, dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """A random 2-plane: orthonormal basis (u, v) in R^dim."""
    basis: List[np.ndarray] = []
    while len(basis) < 2:
        w = np.array(rng.gauss_block(dim), dtype=float)
        for b in basis:
            w = w - float(np.dot(w, b)) * b
        norm = float(np.linalg.norm(w))
        if norm >= 1e-9:  # else redraw: astronomically unlikely, keeps it total
            basis.append(w / norm)
    return basis[0], basis[1]


def _reflect(value: float, lo: float, hi: float, velocity: float) -> Tuple[float, float]:
    """Fold a coordinate back into [lo, hi], flipping its velocity."""
    while value < lo or value > hi:
        if value < lo:
            value = 2.0 * lo - value
        else:
            value = 2.0 * hi - value
        velocity = -velocity
    return value, velocity


_BLOCK = 32  # frames per array pass; bounds the pass's transient arrays


def generate_scenario(cfg: ScenarioConfig) -> Scenario:
    """Generate one scenario; identical configs yield identical scenarios."""
    rng = SplitMix64(cfg.seed)
    n = cfg.n_objects
    dim = cfg.embedding_dim

    widths: List[float] = []
    heights: List[float] = []
    xs: List[float] = []
    ys: List[float] = []
    vxs: List[float] = []
    vys: List[float] = []
    thetas: List[float] = []
    planes: List[Tuple[np.ndarray, np.ndarray]] = []
    for _ in range(n):
        w = cfg.size_min + (cfg.size_max - cfg.size_min) * rng.uniform()
        h = cfg.size_min + (cfg.size_max - cfg.size_min) * rng.uniform()
        # Start with the box fully inside the unit square.
        x = w / 2.0 + (1.0 - w) * rng.uniform()
        y = h / 2.0 + (1.0 - h) * rng.uniform()
        heading = 2.0 * math.pi * rng.uniform()
        theta = 2.0 * math.pi * rng.uniform()
        planes.append(_orthonormal_plane(rng, dim))
        widths.append(w)
        heights.append(h)
        xs.append(x)
        ys.append(y)
        vxs.append(cfg.speed * math.cos(heading))
        vys.append(cfg.speed * math.sin(heading))
        thetas.append(theta)
    plane_u, plane_v = (np.array(basis) for basis in zip(*planes))
    sizes = np.array([widths, heights])

    gt_frames: List[List[Tuple[int, Box2D]]] = []
    det_frames: List[DetectionFrame] = []
    appearance = np.empty((cfg.n_frames, n, dim))
    per_det = 2 * (4 + dim)  # raw outputs behind one detection's gaussians

    for f0 in range(0, cfg.n_frames, _BLOCK):
        stop = min(f0 + _BLOCK, cfg.n_frames)
        size = stop - f0
        # Snapshots of this block's frames, row b for its frame b.
        block_best = np.empty((size, n))
        block_ious = np.empty((size, n, n))
        block_xy = np.empty((2, size, n))
        block_thetas: List[float] = []
        kept: List[int] = []  # b * n + i for object i kept in block frame b
        raws: List[np.ndarray] = []
        confs: List[float] = []

        for b, t in enumerate(range(f0 + 1, stop + 1)):
            if t > 1:
                for i in range(n):
                    if rng.uniform() < cfg.turn_prob:
                        # Turn up to a quarter circle either way; speed unchanged.
                        ang = (rng.uniform() - 0.5) * math.pi
                        ca, sa = math.cos(ang), math.sin(ang)
                        vxs[i], vys[i] = ca * vxs[i] - sa * vys[i], sa * vxs[i] + ca * vys[i]
                    nx = xs[i] + vxs[i]
                    ny = ys[i] + vys[i]
                    nx, vxs[i] = _reflect(nx, widths[i] / 2.0, 1.0 - widths[i] / 2.0, vxs[i])
                    ny, vys[i] = _reflect(ny, heights[i] / 2.0, 1.0 - heights[i] / 2.0, vys[i])
                    displacement = math.hypot(nx - xs[i], ny - ys[i])
                    xs[i], ys[i] = nx, ny
                    thetas[i] += cfg.drift_rate * displacement
                    if rng.uniform() < cfg.rotation_event_prob:
                        direction = 1.0 if rng.uniform() < 0.5 else -1.0
                        thetas[i] += direction * cfg.rotation_magnitude

            # The overlap sets the miss probability, so it cannot wait for the
            # block; the gt boxes, checked with the block's, can.
            corners = corners_of(np.array((xs, ys)), sizes)
            best, block_ious[b] = max_iou_vs_others(iou_matrix(corners, corners))
            for i, ov in enumerate(best.tolist()):
                p_miss = cfg.miss_prob_occluded if ov > 0.5 else cfg.miss_prob_base
                if rng.uniform() < p_miss:
                    continue
                kept.append(b * n + i)
                raws.append(rng.raw_block(per_det))  # box jitter, then embedding noise
                confs.append(0.5 + 0.5 * rng.uniform())
            block_best[b] = best
            block_xy[0, b] = xs
            block_xy[1, b] = ys
            block_thetas.extend(thetas)

        gt_frames += _gt_boxes(block_xy, sizes)
        apps = appearance[f0:stop]
        cos = np.fromiter(map(math.cos, block_thetas), float, size * n).reshape(size, n)
        sin = np.fromiter(map(math.sin, block_thetas), float, size * n).reshape(size, n)
        apps[:] = cos[..., None] * plane_u + sin[..., None] * plane_v
        counts, boxes = [0] * size, []
        corners = np.empty((0, 4))
        embeddings = np.empty((0, dim))
        if kept:
            frame, obj = np.divmod(np.array(kept), n)
            raw = np.concatenate(raws)
            raws.clear()  # their views kept whole chunks of the stream alive
            g = box_muller(raw).reshape(len(kept), 4 + dim)
            who = _occluders(block_best, block_ious)
            embeddings = _embeddings(cfg, apps, block_best, who, frame, obj, g[:, 4:])
            centers = block_xy[:, frame, obj] + cfg.box_jitter * g[:, :2].T
            scale = cfg.size_jitter * g[:, 2:4].T.ravel()
            factor = np.fromiter(map(math.exp, scale.tolist()), float, scale.size)
            extents = sizes[:, obj] * factor.reshape(2, -1)
            corners = corners_of(centers, extents)
            make = _box if valid_boxes(*centers, *extents).all() else Box2D
            boxes = list(map(make, *centers.tolist(), *extents.tolist()))
            counts = np.bincount(frame, minlength=size).tolist()
        det_frames += _detection_frames(counts, boxes, corners, embeddings, confs)

    return Scenario(gt_frames, det_frames, appearance)


def _gt_boxes(xy: np.ndarray, sizes: np.ndarray) -> List[List[Tuple[int, Box2D]]]:
    """The (id, box) lists of a block's frames from their (2, frames, N)
    centres and the (2, N) sizes.

    One ``valid_boxes`` mask checks the whole block. A block that fails it
    builds its boxes with ``Box2D`` in frame order, so the first bad box
    raises ``Box2D``'s error, as a per-frame check would.
    """
    widths, heights = sizes.tolist()
    make = _box if valid_boxes(xy[0], xy[1], sizes[0], sizes[1]).all() else Box2D
    return [list(enumerate(map(make, xs, ys, widths, heights), 1))
            for xs, ys in zip(*xy.tolist())]


def _occluders(best: np.ndarray, ious: np.ndarray) -> np.ndarray:
    """Each object's largest-overlap other, from ``max_iou_vs_others``'s result.

    ``best`` is (..., N) and ``ious`` the (..., N, N) IoU with the others, so
    one call serves a stack of frames. The index is the first one on ties
    and -1 for an object that overlaps nothing.
    """
    return np.where(best > 0.0, ious.argmax(axis=-1), -1)


def _embeddings(
    cfg: ScenarioConfig,
    apps: np.ndarray,
    best: np.ndarray,
    who: np.ndarray,
    frame: np.ndarray,
    obj: np.ndarray,
    noise: np.ndarray,
) -> np.ndarray:
    """Unit embeddings of the kept objects of a block of frames, one (k, D) array.

    Row r is for object ``obj[r]`` of frame ``frame[r]``; ``apps`` is
    (frames, N, D), ``best`` and ``who`` are (frames, N). Each row is the
    object's appearance blended toward its occluder's by
    ``occlusion_blend`` times the overlap, plus gaussian noise, normalized;
    a row whose norm is below 1e-12 is the true appearance instead.
    """
    own = apps[frame, obj]
    w = cfg.occlusion_blend * best[frame, obj]
    mix = (1.0 - w)[:, None] * own + cfg.noise_sigma * noise
    occ = who[frame, obj]
    hit = occ >= 0
    # Only rows with an occluder: adding 0 * app would turn a -0.0 into 0.0.
    mix[hit] += w[hit, None] * apps[frame[hit], occ[hit]]
    # np.linalg.norm's own 1-D formula, row by row: a batched sum may add in
    # another order.
    norms = np.array([math.sqrt(row.dot(row)) for row in mix])
    degenerate = norms < 1e-12
    norms[degenerate] = 1.0  # no 0/0; those rows take the true appearance
    block = mix / norms[:, None]
    block[degenerate] = own[degenerate]
    return block

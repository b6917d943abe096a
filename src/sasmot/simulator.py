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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .geometry import Box2D, boxes_to_corners, max_iou_vs_others
from .rng import SplitMix64
from .tracker import Detection

__all__ = ["ScenarioConfig", "Scenario", "generate_scenario"]


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
    """Generated sequence: per-frame ground truth, detections, true appearances."""

    gt: List[List[Tuple[int, Box2D]]]
    detections: List[List[Detection]]
    true_appearance: List[List[np.ndarray]]  # per frame, per object index
    config: ScenarioConfig


def _unit_gaussian_vector(rng: SplitMix64, dim: int) -> np.ndarray:
    v = np.array([rng.gauss() for _ in range(dim)], dtype=float)
    norm = float(np.linalg.norm(v))
    while norm < 1e-9:  # astronomically unlikely; redraw keeps it total
        v = np.array([rng.gauss() for _ in range(dim)], dtype=float)
        norm = float(np.linalg.norm(v))
    return v / norm


def _orthonormal_plane(rng: SplitMix64, dim: int) -> Tuple[np.ndarray, np.ndarray]:
    """A random 2-plane: orthonormal basis (u, v) in R^dim."""
    u = _unit_gaussian_vector(rng, dim)
    while True:
        w = np.array([rng.gauss() for _ in range(dim)], dtype=float)
        w = w - float(np.dot(w, u)) * u
        norm = float(np.linalg.norm(w))
        if norm > 1e-9:
            return u, w / norm


def _reflect(value: float, lo: float, hi: float, velocity: float) -> Tuple[float, float]:
    """Fold a coordinate back into [lo, hi], flipping its velocity."""
    while value < lo or value > hi:
        if value < lo:
            value = 2.0 * lo - value
        else:
            value = 2.0 * hi - value
        velocity = -velocity
    return value, velocity


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
        u, v = _orthonormal_plane(rng, dim)
        widths.append(w)
        heights.append(h)
        xs.append(x)
        ys.append(y)
        vxs.append(cfg.speed * math.cos(heading))
        vys.append(cfg.speed * math.sin(heading))
        thetas.append(theta)
        planes.append((u, v))

    gt_frames: List[List[Tuple[int, Box2D]]] = []
    det_frames: List[List[Detection]] = []
    app_frames: List[List[np.ndarray]] = []

    for t in range(1, cfg.n_frames + 1):
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

        boxes = [Box2D(xs[i], ys[i], widths[i], heights[i]) for i in range(n)]
        apps = [
            math.cos(thetas[i]) * planes[i][0] + math.sin(thetas[i]) * planes[i][1]
            for i in range(n)
        ]

        best, who = max_iou_vs_others(boxes_to_corners(boxes))
        overlaps, occluders = best.tolist(), who.tolist()

        dets: List[Detection] = []
        for i in range(n):
            ov = overlaps[i]
            p_miss = cfg.miss_prob_occluded if ov > 0.5 else cfg.miss_prob_base
            if rng.uniform() < p_miss:
                continue
            jcx = xs[i] + cfg.box_jitter * rng.gauss()
            jcy = ys[i] + cfg.box_jitter * rng.gauss()
            jw = widths[i] * math.exp(cfg.size_jitter * rng.gauss())
            jh = heights[i] * math.exp(cfg.size_jitter * rng.gauss())
            noise = np.array([rng.gauss() for _ in range(dim)], dtype=float)
            mix = (1.0 - cfg.occlusion_blend * ov) * apps[i] + cfg.noise_sigma * noise
            if occluders[i] >= 0:
                mix = mix + (cfg.occlusion_blend * ov) * apps[occluders[i]]
            norm = float(np.linalg.norm(mix))
            emb = apps[i].copy() if norm < 1e-12 else mix / norm
            conf = 0.5 + 0.5 * rng.uniform()
            dets.append(Detection(Box2D(jcx, jcy, jw, jh), emb, conf))

        gt_frames.append([(i + 1, boxes[i]) for i in range(n)])
        det_frames.append(dets)
        app_frames.append(apps)

    return Scenario(gt_frames, det_frames, app_frames, cfg)

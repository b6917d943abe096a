"""Box and IoU primitives.

All coordinates are normalized image units: x is divided by image width and
y by image height at ingest, so thresholds expressed as a fraction of the
image size are plain scalars here.

``max_iou_vs_others`` is the one overlap rule: the simulator's occlusion
contamination and the tracker's overlap-aware selector both read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Box2D",
    "iou",
    "iou_matrix",
    "box_areas",
    "boxes_to_corners",
    "corners_of",
    "valid_boxes",
    "max_iou_vs_others",
]


@dataclass(frozen=True, slots=True)
class Box2D:
    """Axis-aligned box in center/size form, normalized image coordinates."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self):
        # The usual valid box passes one chain; the code below only builds the
        # error. The corners are those of ``corners()``: finite ones imply
        # finite fields, and ``left < right`` fails for a width below the
        # spacing of doubles at the centre, whose IoU with itself reads 0. The
        # area is the one the IoU computes from those corners: the union adds
        # two, so it must stay finite when doubled, and it must not underflow
        # to 0, where the IoU of the box with itself is 0/0.
        hw, hh = self.w / 2.0, self.h / 2.0
        left, top, right, bottom = self.cx - hw, self.cy - hh, self.cx + hw, self.cy + hh
        area = (right - left) * (bottom - top)
        if (-math.inf < left < right < math.inf and -math.inf < top < bottom < math.inf
                and 0.0 < area * 2.0 < math.inf):
            return
        for name, value in (("cx", self.cx), ("cy", self.cy), ("w", self.w), ("h", self.h)):
            if not math.isfinite(value):
                raise ValueError(f"non-finite box field {name}={value}")
        if not (self.w > 0 and self.h > 0):
            raise ValueError(f"non-positive box size w={self.w}, h={self.h}")
        fields = f"cx={self.cx}, cy={self.cy}, w={self.w}, h={self.h}"
        if not (left < right and top < bottom):
            raise ValueError(f"box corners collapse: {fields}")
        if not all(map(math.isfinite, (left, top, right, bottom))):
            raise ValueError(f"box corner overflows: {fields}")
        if not area * 2.0 < math.inf:
            raise ValueError(f"box area overflows: w={self.w}, h={self.h}")
        raise ValueError(f"box area underflows: w={self.w}, h={self.h}")

    def corners(self) -> tuple[float, float, float, float]:
        """(left, top, right, bottom)."""
        hw = self.w / 2.0
        hh = self.h / 2.0
        return (self.cx - hw, self.cy - hh, self.cx + hw, self.cy + hh)


_set_cx, _set_cy, _set_w, _set_h = (slot.__set__ for slot in (Box2D.cx, Box2D.cy, Box2D.w, Box2D.h))


def _box(cx: float, cy: float, w: float, h: float) -> Box2D:
    """A ``Box2D`` of fields that ``valid_boxes`` has already accepted.

    The simulator and the MOT readers check a whole block of boxes with one
    mask, so ``__post_init__`` would only repeat its verdict; the public
    constructor keeps its check.
    """
    box = object.__new__(Box2D)
    _set_cx(box, cx)
    _set_cy(box, cy)
    _set_w(box, w)
    _set_h(box, h)
    return box


def valid_boxes(cx: np.ndarray, cy: np.ndarray, w: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Which boxes ``Box2D`` accepts, for broadcasting arrays of their fields.

    The vector form of ``Box2D``'s rule, on the same elementwise operations,
    so an element is True exactly when ``Box2D(cx, cy, w, h)`` raises nothing.
    """
    # A bad box may overflow or make a NaN here; the mask rejects it.
    with np.errstate(all="ignore"):
        hw, hh = w / 2.0, h / 2.0
        left, top, right, bottom = cx - hw, cy - hh, cx + hw, cy + hh
        area2 = (right - left) * (bottom - top) * 2.0
        return ((-np.inf < left) & (left < right) & (right < np.inf)
                & (-np.inf < top) & (top < bottom) & (bottom < np.inf)
                & (0.0 < area2) & (area2 < np.inf))


def iou(a: Box2D, b: Box2D) -> float:
    """Intersection over union of two boxes, in [0, 1]."""
    ax1, ay1, ax2, ay2 = a.corners()
    bx1, by1, bx2, by2 = b.corners()
    iw = min(ax2, bx2) - max(ax1, bx1)
    ih = min(ay2, by2) - max(ay1, by1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    # Areas from the same corner values as the intersection, so identical
    # boxes come out at exactly 1.0 instead of a few ulp away.
    area_a = (ax2 - ax1) * (ay2 - ay1)
    area_b = (bx2 - bx1) * (by2 - by1)
    union = area_a + area_b - inter
    # Clamp: rounding may push inter/union a few ulp outside [0, 1].
    return min(1.0, max(0.0, inter / union))


def boxes_to_corners(boxes: Sequence[Box2D]) -> np.ndarray:
    """Stack boxes into an (N, 4) array of (left, top, right, bottom) rows."""
    if not boxes:
        return np.zeros((0, 4), dtype=float)
    # Streamed, so a long sequence's corners never exist as one list of tuples.
    flat = chain.from_iterable(map(Box2D.corners, boxes))
    return np.fromiter(flat, dtype=float, count=4 * len(boxes)).reshape(-1, 4)


def corners_of(centers: np.ndarray, extents: np.ndarray) -> np.ndarray:
    """(N, 4) corner rows of boxes given as (2, N) centres and (2, N) sizes.

    Row i has the bits of ``Box2D(cx, cy, w, h).corners()`` for column i,
    the same halving and the same sums, without building the boxes.
    """
    half = extents / 2.0
    return np.concatenate((centers - half, centers + half)).T.copy()


def box_areas(corners: np.ndarray) -> np.ndarray:
    """(...,) areas of (..., 4) corner rows, the ones ``iou_matrix`` divides by."""
    return (corners[..., 2] - corners[..., 0]) * (corners[..., 3] - corners[..., 1])


def iou_matrix(
    corners_a: np.ndarray,
    corners_b: np.ndarray,
    areas_b: Optional[np.ndarray] = None,
    areas_a: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Pairwise IoU of (..., N, 4) and (..., M, 4) corner arrays; returns (..., N, M).

    Leading dimensions broadcast, so one call scores a batch of frames with
    the same elementwise operations, and so the same bits, as one call per
    frame. ``areas_b`` and ``areas_a``, when given, hold the (..., M) and
    (..., N) areas of the two sets as ``box_areas`` computes them: a caller
    that scores the same boxes many times computes them once.
    """
    a = corners_a[..., :, None, :]
    b = corners_b[..., None, :, :]
    iw = np.minimum(a[..., 2], b[..., 2]) - np.maximum(a[..., 0], b[..., 0])
    ih = np.minimum(a[..., 3], b[..., 3]) - np.maximum(a[..., 1], b[..., 1])
    # A side that does not overlap is clamped to +0.0, so disjoint and
    # touching boxes get an intersection of exactly +0.0.
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    area_a = box_areas(corners_a) if areas_a is None else areas_a
    area_b = box_areas(corners_b) if areas_b is None else areas_b
    union = area_a[..., :, None] + area_b[..., None, :] - inter
    # ``Box2D`` keeps every area above 0, so only two zero-size padding boxes
    # have inter = union = 0. The floor at the smallest double makes that
    # quotient 0 without a 0/0; every other union is already at least it.
    # Only the upper bound needs a clamp: in floating point inter is at most
    # each box's own corner area, so the union is at least inter and the
    # quotient is never below +0.0.
    return np.minimum(inter / np.maximum(union, 5e-324), 1.0)


def max_iou_vs_others(ious: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each box's largest IoU with any other box of the same set.

    ``ious`` is the (..., N, N) IoU of the set with itself, one set per
    leading index; each diagonal is zeroed in place, so it then holds each
    box's IoU with the others. Returns ``(best, ious)``: ``best[..., i]``
    is the largest entry of row i, 0.0 for a box that overlaps nothing. A
    caller that needs the other box takes the row's argmax.
    """
    diagonal = np.arange(ious.shape[-1])
    ious[..., diagonal, diagonal] = 0.0
    # The initial 0.0 gives an empty set its empty result; every IoU is
    # already at least +0.0, so it changes no other value.
    return ious.max(axis=-1, initial=0.0), ious

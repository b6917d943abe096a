"""Tracking metrics from their standard definitions.

Three evaluators over a ground-truth/prediction sequence pair:

* ``hota``: for each IoU threshold alpha in {0.05, ..., 0.95}, frames are
  matched one-to-one by IoU-maximal assignment and pairs below alpha are
  rejected. DetA(alpha) = TP / (TP + FN + FP). Every matched detection c
  with identities (g, p) scores A(c) = TPA / (TPA + FNA + FPA), where TPA
  counts frames in which g and p are matched to each other, and FNA/FPA
  count the remaining appearances of g and p respectively. AssA(alpha) is
  the mean of A(c) over matched detections, HOTA(alpha) the geometric mean
  of DetA and AssA, and reported values are arithmetic means over the 19
  thresholds. Each frame is matched once, by one unfiltered IoU-maximal
  assignment (no secondary association objective), and each threshold
  drops the matched pairs below it. That keeps comparisons between
  trackers under the same evaluator meaningful but is not bit-compatible
  with the official toolkit. AssA adds its per-event terms in event order,
  so it equals the per-event scalar sum bit for bit.
* ``clear_mota``: frame-by-frame matching at IoU 0.5 with carry-over
  preference (a ground-truth identity keeps its previous prediction while
  the pair still overlaps), counting FN, FP, and identity switches;
  MOTA = 1 - (FN + FP + IDSW) / total ground-truth detections.
* ``idf1``: a single global bijection between ground-truth and predicted
  trajectories chosen to maximize the number of frame-level overlaps at
  IoU 0.5; IDF1 = 2*IDTP / (2*IDTP + IDFP + IDFN).

All three read :class:`SequencePair`'s arrays, built at construction by one
constructor per side that also checks the ids: ids coded to dense ranks,
per-frame counts, and box corners. A side comes from per-frame (id, box)
lists or, through ``SequencePair.from_columns``, straight from (frame, id,
corners) columns such as a MOT file's, with no ``Box2D`` per entry. The IoU
is held in blocks of ``_IOU_CHUNK`` frames, one ``iou_matrix`` call each; a
block is padded with zeros to its own frames' largest counts, so one
crowded frame widens only its block, and the block bounds the temporaries
on crowded scenes.
One IoU-maximal frame matcher serves HOTA (unfiltered, since the
assignment does not depend on alpha) and CLEAR (over the boxes left after
carry-over); IDF1 counts its IoU >= 0.5 co-occurrences from one mask per
block.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import List, Tuple

import numpy as np

from .geometry import Box2D, boxes_to_corners, iou_matrix
from .tracker import hungarian_assign

__all__ = [
    "ALPHA_GRID",
    "SequencePair",
    "MetricsReport",
    "clear_mota",
    "idf1",
    "hota",
    "evaluate",
]

FrameEntries = List[Tuple[int, Box2D]]

ALPHA_GRID = tuple(round(0.05 * k, 2) for k in range(1, 20))

CLEAR_IOU_THRESHOLD = 0.5

# Frames per iou_matrix call and per stored IoU block: bounds the
# (chunk, G, P) temporaries, and one crowded frame pads only its block.
_IOU_CHUNK = 32


class _Side:
    """One side of a pair as arrays over its entries, in frame then entry order.

    ``codes`` holds each entry's id as its rank among the side's distinct
    ids, so arrays index ids of any size without an integer cast; frame f's
    entries are ``codes[starts[f] : starts[f] + counts[f]]``, their boxes the
    same rows of ``corners``. Ids must be positive and distinct within a frame.

    Entry k is id ``ids[k]`` with box ``corners[k]`` in the 0-based frame
    ``frames[k]`` < ``n_frames``; entries may come in any order, and a stable
    sort by frame keeps their order within a frame.
    """

    def __init__(self, name: str, frames: np.ndarray, ids: List[int], corners: np.ndarray,
                 n_frames: int):
        order = np.argsort(frames, kind="stable")
        frames = frames[order]
        distinct = sorted(set(ids))
        rank = dict(zip(distinct, range(len(distinct))))
        codes = np.fromiter(map(rank.__getitem__, ids), dtype=np.intp, count=len(ids))[order]
        # The first entry, in frame then entry order, with a non-positive id
        # or an id seen before in its frame is named. Non-positive ids take
        # the lowest ranks.
        repeated = np.ones(len(codes), dtype=bool)
        repeated[np.unique(frames * len(distinct) + codes, return_index=True)[1]] = False
        bad = (codes < bisect_left(distinct, 1)) | repeated
        if bad.any():
            k = int(bad.argmax())
            frame, obj_id = frames[k] + 1, ids[order[k]]
            if obj_id < 1:
                raise ValueError(f"{name} frame {frame}: ids must be positive, got {obj_id}")
            raise ValueError(f"{name} frame {frame}: id {obj_id} appears twice")
        self.n_ids = len(distinct)
        self.codes = codes
        self.counts = np.bincount(frames, minlength=n_frames)
        self.starts = np.cumsum(self.counts) - self.counts
        self.corners = corners[order]

    def corner_chunks(self) -> List[np.ndarray]:
        """Per run of ``_IOU_CHUNK`` frames, (chunk, W, 4) box corners, where W
        is the run's largest count, zero past each frame's count."""
        frame_of = np.repeat(np.arange(len(self.counts)), self.counts)
        slot = np.arange(len(self.corners)) - self.starts[frame_of]
        ends = np.append(self.starts, len(self.corners))
        chunks = []
        for start in range(0, len(self.counts), _IOU_CHUNK):
            counts = self.counts[start : start + _IOU_CHUNK]
            entries = slice(ends[start], ends[start + len(counts)])
            out = np.zeros((len(counts), int(counts.max()), 4))
            out[frame_of[entries] - start, slot[entries]] = self.corners[entries]
            chunks.append(out)
        return chunks


def _list_side(name: str, frames: List[FrameEntries]) -> _Side:
    """The side of per-frame (id, box) lists."""
    counts = list(map(len, frames))
    frame_of = np.repeat(np.arange(len(frames)), counts)
    ids = [obj_id for entries in frames for obj_id, _ in entries]
    corners = boxes_to_corners([box for entries in frames for _, box in entries])
    return _Side(name, frame_of, ids, corners, len(frames))


# One side as columns: 1-based frames (k,), ids (k,) and box corners (k, 4).
_Columns = Tuple[np.ndarray, List[int], np.ndarray]


@dataclass(eq=False)
class SequencePair:
    """Frame-aligned ground truth and predictions: per-frame (id, box) lists.

    ``gt`` and ``pred`` are read once, at construction, into the arrays that
    scoring uses; changing the lists afterwards changes no score. A pair
    built by ``from_columns`` has no lists: both are None.
    """

    gt: List[FrameEntries]
    pred: List[FrameEntries]

    def __post_init__(self):
        if len(self.gt) != len(self.pred):
            raise ValueError(
                f"gt has {len(self.gt)} frames but pred has {len(self.pred)}"
            )
        self._gt = _list_side("gt", self.gt)
        self._pred = _list_side("pred", self.pred)

    @classmethod
    def from_columns(cls, gt: _Columns, pred: _Columns) -> SequencePair:
        """The pair of two sides given as columns, over frames 1 to the
        larger side's last frame; it scores as the pair of the same entries
        as per-frame lists does."""
        n_frames = max(int(frames.max(initial=0)) for frames, _, _ in (gt, pred))
        pair = cls.__new__(cls)
        pair.gt = pair.pred = None
        pair._gt = _Side("gt", gt[0] - 1, gt[1], gt[2], n_frames)
        pair._pred = _Side("pred", pred[0] - 1, pred[1], pred[2], n_frames)
        return pair

    def total_gt(self) -> int:
        return self._gt.codes.size

    def total_pred(self) -> int:
        return self._pred.codes.size

    @cached_property
    def ious(self) -> List[np.ndarray]:
        """Per run of ``_IOU_CHUNK`` frames, a (chunk, G, P) block of each
        frame's gt × pred IoU, padded with 0 to the run's largest counts.

        Frame f's matrix is ``ious[f // _IOU_CHUNK][f % _IOU_CHUNK, :G_f, :P_f]``.
        Padding per run, not per sequence, keeps one crowded frame from
        widening every other frame's storage.
        """
        # A zero-size pad box meets nothing, so its IoU with any box is 0.
        return [
            iou_matrix(gt, pred)
            for gt, pred in zip(self._gt.corner_chunks(), self._pred.corner_chunks())
        ]


@dataclass
class MetricsReport:
    """Score summary for one sequence (counts at IoU 0.5)."""

    hota: float
    deta: float
    assa: float
    mota: float
    idf1: float
    idsw: int
    tp: int
    fp: int
    fn: int


def _assign(ious: np.ndarray) -> np.ndarray:
    """IoU-maximal one-to-one (row, col) pairs as a (k, 2) array, sorted by row, unfiltered."""
    return hungarian_assign(1.0 - ious)


def clear_mota(pair: SequencePair) -> Tuple[float, int, int, int]:
    """CLEAR accuracy: returns (mota, idsw, fp, fn)."""
    total_gt = pair.total_gt()
    if total_gt == 0:
        raise ValueError("MOTA undefined: sequence has no ground-truth detections")

    gt, pred, blocks = pair._gt, pair._pred, pair.ious
    gt_codes, pred_codes = gt.codes.tolist(), pred.codes.tolist()
    last_pred = [-1] * gt.n_ids  # pred code each gt id was last bound to
    idsw = fp = fn = 0
    g0 = p0 = 0
    for f, (n_g, n_p) in enumerate(zip(gt.counts.tolist(), pred.counts.tolist())):
        gcs, pcs = gt_codes[g0 : g0 + n_g], pred_codes[p0 : p0 + n_p]
        g0 += n_g
        p0 += n_p
        ious = blocks[f // _IOU_CHUNK][f % _IOU_CHUNK, :n_g, :n_p]
        rows = ious.tolist()
        # Carry-over: a gt identity keeps its most recent prediction while
        # the pair still overlaps enough.
        col_of = dict(zip(pcs, range(n_p)))
        bound: List[Tuple[int, int]] = []
        claimed_pred = set()
        for gi, gc in enumerate(gcs):
            pj = col_of.get(last_pred[gc])
            if pj is None or pj in claimed_pred:
                continue
            if rows[gi][pj] >= CLEAR_IOU_THRESHOLD:
                bound.append((gi, pj))
                claimed_pred.add(pj)
        # IoU-maximal matching over whatever remains, when both sides do.
        if len(bound) < min(n_g, n_p):
            bound_gt = {gi for gi, _ in bound}
            rest_g = [gi for gi in range(n_g) if gi not in bound_gt]
            rest_p = [pj for pj in range(n_p) if pj not in claimed_pred]
            for r, c in _assign(ious[np.ix_(rest_g, rest_p)]).tolist():
                gi, pj = rest_g[r], rest_p[c]
                if rows[gi][pj] >= CLEAR_IOU_THRESHOLD:
                    bound.append((gi, pj))

        for gi, pj in bound:
            gc, pc = gcs[gi], pcs[pj]
            prev = last_pred[gc]
            if prev >= 0 and prev != pc:
                idsw += 1
            last_pred[gc] = pc
        fn += n_g - len(bound)
        fp += n_p - len(bound)

    mota = 1.0 - (fn + fp + idsw) / total_gt
    return mota, idsw, fp, fn


def idf1(pair: SequencePair) -> float:
    """Identity F1 over the best global trajectory bijection."""
    total_gt = pair.total_gt()
    total_pred = pair.total_pred()
    if total_gt == 0 and total_pred == 0:
        return 1.0

    # Frame-level overlap counts per (gt id, pred id); pairwise, not
    # assigned. Rows and columns are the ids that co-occur at least once.
    gt, pred = pair._gt, pair._pred
    overlaps = []
    for start, block in zip(range(0, len(gt.counts), _IOU_CHUNK), pair.ious):
        f, g, p = np.nonzero(block >= CLEAR_IOU_THRESHOLD)
        f += start
        overlaps.append(gt.codes[gt.starts[f] + g] * pred.n_ids + pred.codes[pred.starts[f] + p])
    keys, counts = np.unique(np.concatenate(overlaps), return_counts=True)
    gt_rows, row = np.unique(keys // pred.n_ids, return_inverse=True)
    pred_cols, col = np.unique(keys % pred.n_ids, return_inverse=True)
    mat = np.zeros((gt_rows.size, pred_cols.size), dtype=float)
    mat[row, col] = counts
    rows, cols = hungarian_assign(-mat).T
    # Counts are integers below 2**53, so the float sum is exact.
    idtp = int(mat[rows, cols].sum())

    idfp = total_pred - idtp
    idfn = total_gt - idtp
    return 2.0 * idtp / (2.0 * idtp + idfp + idfn)


def hota(pair: SequencePair) -> Tuple[float, float, float]:
    """Returns (hota, deta, assa), each averaged over the 19-threshold grid."""
    total_gt = pair.total_gt()
    if total_gt == 0:
        raise ValueError("HOTA undefined: sequence has no ground-truth detections")
    total_pred = pair.total_pred()

    # Matched (frame, gt slot, pred slot) events in frame order; each alpha
    # keeps the events at or above it. Each distinct (gt id, pred id) pair
    # gets a number, so TPA is a bincount over the kept events' numbers.
    gt, pred = pair._gt, pair._pred
    n_g, n_p = gt.counts.tolist(), pred.counts.tolist()
    chunks = []
    for start, block in zip(range(0, len(n_g), _IOU_CHUNK), pair.ious):
        pairs = [_assign(block[i, : n_g[start + i], : n_p[start + i]]) for i in range(len(block))]
        i = np.repeat(np.arange(len(block)), [len(frame) for frame in pairs])
        g, p = np.concatenate(pairs).T
        chunks.append((i + start, g, p, block[i, g, p]))
    ef, eg, ep, event_iou = map(np.concatenate, zip(*chunks))
    gt_code = gt.codes[gt.starts[ef] + eg]
    pred_code = pred.codes[pred.starts[ef] + ep]
    _, pair_of = np.unique(gt_code * pred.n_ids + pred_code, return_inverse=True)
    appearances = (
        np.bincount(gt.codes, minlength=gt.n_ids)[gt_code]
        + np.bincount(pred.codes, minlength=pred.n_ids)[pred_code]
    )

    deta_sum = assa_sum = hota_sum = 0.0
    for alpha in ALPHA_GRID:
        kept = event_iou >= alpha
        tp = int(np.count_nonzero(kept))
        fn = total_gt - tp
        fp = total_pred - tp
        deta = tp / (tp + fn + fp)
        if tp:
            kept_pairs = pair_of[kept]
            tpa = np.bincount(kept_pairs)[kept_pairs]
            # Integer operands below 2**53, so each term is the exact int/int
            # quotient; cumsum adds left to right in event order (np.sum would
            # add pairwise and move AssA in the last ulp).
            terms = tpa / (appearances[kept] - tpa)
            assa = float(np.cumsum(terms)[-1]) / tp
        else:
            assa = 0.0
        deta_sum += deta
        assa_sum += assa
        hota_sum += (deta * assa) ** 0.5
    n = len(ALPHA_GRID)
    return hota_sum / n, deta_sum / n, assa_sum / n


def evaluate(pair: SequencePair) -> MetricsReport:
    """All metrics for one sequence; requires at least one ground-truth box."""
    mota, idsw, fp, fn = clear_mota(pair)
    hota_v, deta_v, assa_v = hota(pair)
    tp = pair.total_gt() - fn
    return MetricsReport(
        hota=hota_v,
        deta=deta_v,
        assa=assa_v,
        mota=mota,
        idf1=idf1(pair),
        idsw=idsw,
        tp=tp,
        fp=fp,
        fn=fn,
    )

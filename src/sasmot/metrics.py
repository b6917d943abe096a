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

All three read :attr:`SequencePair.frames`, each frame's ids and gt × pred
IoU matrix, computed once per pair. One IoU-maximal frame matcher serves
HOTA (unfiltered, since the assignment does not depend on alpha) and CLEAR
(over the boxes left after carry-over).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

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


@dataclass(eq=False)
class SequencePair:
    """Frame-aligned ground truth and predictions: per-frame (id, box) lists.

    Scoring caches per-frame overlaps on the pair, so do not modify ``gt``
    or ``pred`` after the first metric has read them.
    """

    gt: List[FrameEntries]
    pred: List[FrameEntries]

    def __post_init__(self):
        if len(self.gt) != len(self.pred):
            raise ValueError(
                f"gt has {len(self.gt)} frames but pred has {len(self.pred)}"
            )
        for side, frames in (("gt", self.gt), ("pred", self.pred)):
            for frame, entries in enumerate(frames, start=1):
                seen = set()
                for obj_id, _ in entries:
                    if obj_id < 1:
                        raise ValueError(
                            f"{side} frame {frame}: ids must be positive, got {obj_id}"
                        )
                    if obj_id in seen:
                        raise ValueError(f"{side} frame {frame}: id {obj_id} appears twice")
                    seen.add(obj_id)

    def total_gt(self) -> int:
        return sum(len(f) for f in self.gt)

    def total_pred(self) -> int:
        return sum(len(f) for f in self.pred)

    @cached_property
    def frames(self) -> List[Tuple[List[int], List[int], np.ndarray]]:
        """Per frame: (gt ids, pred ids, gt × pred IoU matrix)."""
        return [
            (
                [gid for gid, _ in gt_entries],
                [pid for pid, _ in pred_entries],
                iou_matrix(
                    boxes_to_corners([box for _, box in gt_entries]),
                    boxes_to_corners([box for _, box in pred_entries]),
                ),
            )
            for gt_entries, pred_entries in zip(self.gt, self.pred)
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


def _assign(ious: np.ndarray) -> List[Tuple[int, int]]:
    """IoU-maximal one-to-one (row, col) pairs, sorted by row, unfiltered."""
    return hungarian_assign(1.0 - ious)


def clear_mota(pair: SequencePair) -> Tuple[float, int, int, int]:
    """CLEAR accuracy: returns (mota, idsw, fp, fn)."""
    total_gt = pair.total_gt()
    if total_gt == 0:
        raise ValueError("MOTA undefined: sequence has no ground-truth detections")

    last_pred: Dict[int, int] = {}
    idsw = fp = fn = 0
    for gids, pids, ious in pair.frames:
        bound: List[Tuple[int, int]] = []
        claimed_pred = set()
        # Carry-over: a gt identity keeps its most recent prediction while
        # the pair still overlaps enough.
        pid_to_idx = {pid: pj for pj, pid in enumerate(pids)}
        bound_gt = set()
        for gi, gid in enumerate(gids):
            pj = pid_to_idx.get(last_pred.get(gid))
            if pj is None or pj in claimed_pred:
                continue
            if ious[gi, pj] >= CLEAR_IOU_THRESHOLD:
                bound.append((gi, pj))
                bound_gt.add(gi)
                claimed_pred.add(pj)
        # IoU-maximal matching over whatever remains.
        rest_g = [gi for gi in range(len(gids)) if gi not in bound_gt]
        rest_p = [pj for pj in range(len(pids)) if pj not in claimed_pred]
        for r, c in _assign(ious[np.ix_(rest_g, rest_p)]):
            gi, pj = rest_g[r], rest_p[c]
            if ious[gi, pj] >= CLEAR_IOU_THRESHOLD:
                bound.append((gi, pj))

        for gi, pj in bound:
            gid, pid = gids[gi], pids[pj]
            prev = last_pred.get(gid)
            if prev is not None and prev != pid:
                idsw += 1
            last_pred[gid] = pid
        fn += len(gids) - len(bound)
        fp += len(pids) - len(bound)

    mota = 1.0 - (fn + fp + idsw) / total_gt
    return mota, idsw, fp, fn


def idf1(pair: SequencePair) -> float:
    """Identity F1 over the best global trajectory bijection."""
    total_gt = pair.total_gt()
    total_pred = pair.total_pred()
    if total_gt == 0 and total_pred == 0:
        return 1.0

    # Frame-level overlap counts per (gt id, pred id); pairwise, not assigned.
    counts: Counter = Counter()
    for gids, pids, ious in pair.frames:
        for gi, pj in zip(*np.nonzero(ious >= CLEAR_IOU_THRESHOLD)):
            counts[(gids[gi], pids[pj])] += 1

    gt_row = {g: i for i, g in enumerate(sorted({g for g, _ in counts}))}
    pred_col = {p: j for j, p in enumerate(sorted({p for _, p in counts}))}
    mat = np.zeros((len(gt_row), len(pred_col)), dtype=float)
    for (g, p), c in counts.items():
        mat[gt_row[g], pred_col[p]] = c
    idtp = int(sum(mat[r, c] for r, c in hungarian_assign(-mat)))

    idfp = total_pred - idtp
    idfn = total_gt - idtp
    return 2.0 * idtp / (2.0 * idtp + idfp + idfn)


def hota(pair: SequencePair) -> Tuple[float, float, float]:
    """Returns (hota, deta, assa), each averaged over the 19-threshold grid."""
    total_gt = pair.total_gt()
    if total_gt == 0:
        raise ValueError("HOTA undefined: sequence has no ground-truth detections")
    total_pred = pair.total_pred()

    gt_appearances = Counter(gid for entries in pair.gt for gid, _ in entries)
    pred_appearances = Counter(pid for entries in pair.pred for pid, _ in entries)

    # Matched (gt id, pred id, IoU) events in frame order; each alpha keeps
    # the events at or above it. Each distinct (gt id, pred id) pair gets a
    # number, so TPA is a bincount over the kept events' numbers.
    events = [
        (gids[g], pids[p], ious[g, p])
        for gids, pids, ious in pair.frames
        for g, p in _assign(ious)
    ]
    numbers: Dict[Tuple[int, int], int] = {}
    pair_of = np.array([numbers.setdefault((g, p), len(numbers)) for g, p, _ in events])
    appearances = np.array([gt_appearances[g] + pred_appearances[p] for g, p, _ in events])
    event_iou = np.array([v for _, _, v in events])

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

"""Metric correctness: canonical sequences, thresholds, exhaustive oracles."""

import functools
import gc
import itertools
import math
import weakref
from collections import Counter

import numpy as np
import pytest

import sasmot.metrics
from sasmot.experiments import track_scenario
from sasmot.geometry import Box2D, boxes_to_corners, iou, iou_matrix
from sasmot.memory import MemoryPolicy
from sasmot.metrics import (
    _IOU_CHUNK,
    ALPHA_GRID,
    MetricsReport,
    SequencePair,
    _assign,
    clear_mota,
    evaluate,
    hota,
    idf1,
)
from sasmot.rng import SplitMix64
from sasmot.simulator import ScenarioConfig, generate_scenario
from sasmot.tracker import hungarian_assign

BOX_A = Box2D(0.25, 0.25, 0.2, 0.2)
BOX_B = Box2D(0.75, 0.75, 0.2, 0.2)
FAR_BOX = Box2D(0.75, 0.25, 0.1, 0.1)


def _perfect_pair(n_frames=10):
    frames = [[(1, BOX_A), (2, BOX_B)] for _ in range(n_frames)]
    return SequencePair(gt=[list(f) for f in frames], pred=[list(f) for f in frames])


def test_perfect_tracking_scores_one_everywhere():
    report = evaluate(_perfect_pair())
    assert report.hota == 1.0
    assert report.deta == 1.0
    assert report.assa == 1.0
    assert report.mota == 1.0
    assert report.idf1 == 1.0
    assert report.idsw == 0
    assert report.fp == 0 and report.fn == 0 and report.tp == 20


def test_evaluate_computes_iou_in_frame_chunks(monkeypatch):
    calls = []
    real = sasmot.metrics.iou_matrix

    def counting(a, b):
        calls.append(len(a))
        return real(a, b)

    monkeypatch.setattr(sasmot.metrics, "iou_matrix", counting)
    pair = _perfect_pair(n_frames=500)
    evaluate(pair)
    assert len(calls) == math.ceil(500 / _IOU_CHUNK) < 500
    assert sum(calls) == 500 and max(calls) == _IOU_CHUNK


def test_one_crowded_frame_widens_only_its_iou_block():
    # 320 frames of one gt and one pred box, and one frame with 200 preds:
    # padding the whole sequence to that frame would store 320 x 1 x 200.
    crowd = [(k, Box2D(0.1 + 0.004 * k, 0.5, 0.01, 0.01)) for k in range(1, 201)]
    pred = [[(1, BOX_A)] for _ in range(320)]
    pred[100] = crowd
    gt = [[(1, BOX_A)] for _ in range(320)]
    pair = SequencePair(gt=gt, pred=pred)
    blocks = pair.ious
    assert len(blocks) == math.ceil(320 / _IOU_CHUNK)
    assert sum(b.size for b in blocks) == _IOU_CHUNK * 200 + (320 - _IOU_CHUNK)
    assert blocks[100 // _IOU_CHUNK].shape == (_IOU_CHUNK, 1, 200)
    assert evaluate(pair) == evaluate_reference(gt, pred)


def test_evaluate_calls_each_metric_by_its_module_name_in_order(monkeypatch):
    # The benchmark's tracer times the metrics by patching these names.
    order = []
    for name in ("clear_mota", "hota", "idf1"):
        real = getattr(sasmot.metrics, name)
        monkeypatch.setattr(
            sasmot.metrics, name, lambda pair, real=real, name=name: order.append(name) or real(pair)
        )
    evaluate(_perfect_pair())
    assert order == ["clear_mota", "hota", "idf1"]


def test_midpoint_id_swap_canonical_values():
    # Ten frames, two objects; predictions use ids 1,2 for the first five
    # frames and fresh ids 3,4 afterwards. Two switch events out of twenty
    # ground-truth boxes, detection untouched, association halved.
    gt = [[(1, BOX_A), (2, BOX_B)] for _ in range(10)]
    pred = [[(1, BOX_A), (2, BOX_B)] for _ in range(5)]
    pred += [[(3, BOX_A), (4, BOX_B)] for _ in range(5)]
    report = evaluate(SequencePair(gt=gt, pred=pred))
    assert report.mota == pytest.approx(0.9, abs=1e-12)
    assert report.idsw == 2
    assert report.deta == 1.0
    assert report.idf1 == pytest.approx(0.5, abs=1e-12)
    assert report.assa == pytest.approx(0.5, abs=1e-12)
    assert report.hota == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_pair_reads_its_lists_once_at_construction():
    gt = [[(1, BOX_A), (2, BOX_B)] for _ in range(10)]
    pred = [[(1, BOX_A), (2, BOX_B)] for _ in range(5)] + [[(3, BOX_A)] for _ in range(5)]
    gt_lists, pred_lists = [list(f) for f in gt], [list(f) for f in pred]
    pair = SequencePair(gt=gt_lists, pred=pred_lists)
    gt_lists.clear()
    pred_lists.clear()
    assert evaluate(pair) == evaluate(SequencePair(gt=gt, pred=pred))


class _Frames(list):
    """A list that a weak reference can point to."""


def test_pair_holds_no_reference_to_its_lists():
    gt = [[(1, BOX_A), (2, BOX_B)] for _ in range(10)]
    pred = [[(1, BOX_A), (2, BOX_B)] for _ in range(5)] + [[(3, BOX_A)] for _ in range(5)]
    gt_lists, pred_lists = _Frames(gt), _Frames(pred)
    refs = weakref.ref(gt_lists), weakref.ref(pred_lists)
    pair = SequencePair(gt=gt_lists, pred=pred_lists)
    del gt_lists, pred_lists
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    assert evaluate(pair) == evaluate(SequencePair(gt=gt, pred=pred))


def test_partial_overlap_passes_eight_of_nineteen_thresholds():
    # Nested boxes with IoU exactly 7/16 = 0.4375: thresholds 0.05..0.40
    # accept the match, 0.45..0.95 reject it, so every averaged metric
    # equals 8/19 exactly.
    outer = Box2D(0.0, 0.0, 4.0, 4.0)
    inner = Box2D(0.0, 0.0, 3.5, 2.0)
    assert iou(outer, inner) == 7.0 / 16.0
    pair = SequencePair(
        gt=[[(1, outer)] for _ in range(5)],
        pred=[[(1, inner)] for _ in range(5)],
    )
    hota_v, deta_v, assa_v = hota(pair)
    assert deta_v == 8.0 / 19.0
    assert assa_v == 8.0 / 19.0
    assert hota_v == 8.0 / 19.0
    # Below the 0.5 threshold used by the classic metrics.
    mota, idsw, fp, fn = clear_mota(pair)
    assert (mota, idsw, fp, fn) == (-1.0, 0, 5, 5)
    assert idf1(pair) == 0.0


def test_mota_counts_fn_fp():
    gt = [[(1, BOX_A)] for _ in range(4)]
    pred = [[(1, BOX_A)], [], [(1, BOX_A), (7, FAR_BOX)], [(1, BOX_A)]]
    mota, idsw, fp, fn = clear_mota(SequencePair(gt=gt, pred=pred))
    assert (idsw, fp, fn) == (0, 1, 1)
    assert mota == pytest.approx(1.0 - 2.0 / 4.0)


def test_mota_no_switch_across_gap():
    gt = [[(1, BOX_A)] for _ in range(6)]
    pred = [[(1, BOX_A)], [(1, BOX_A)], [], [], [(1, BOX_A)], [(1, BOX_A)]]
    mota, idsw, fp, fn = clear_mota(SequencePair(gt=gt, pred=pred))
    assert idsw == 0
    assert fn == 2
    pred_switch = [[(1, BOX_A)], [(1, BOX_A)], [], [], [(2, BOX_A)], [(2, BOX_A)]]
    mota, idsw, fp, fn = clear_mota(SequencePair(gt=gt, pred=pred_switch))
    assert idsw == 1


def test_mota_carry_over_prefers_previous_identity():
    # Frame 2 offers a better-overlapping newcomer, but the incumbent still
    # clears the 0.5 gate, so the identity is kept and no switch is charged.
    gt_box = Box2D(0.5, 0.5, 0.2, 0.2)
    shifted = Box2D(0.54, 0.5, 0.2, 0.2)  # IoU 2/3 with gt_box
    gt = [[(1, gt_box)], [(1, gt_box)]]
    pred = [[(1, gt_box)], [(1, shifted), (2, gt_box)]]
    mota, idsw, fp, fn = clear_mota(SequencePair(gt=gt, pred=pred))
    assert idsw == 0
    assert fp == 1  # the newcomer goes unmatched


def test_mota_carry_over_leaves_one_side_empty():
    # Frame 2: carry-over binds both gt, so the solver gets a (0, 1) block
    # and the duplicate pred 3 is a false positive.
    gt = [[(1, BOX_A), (2, BOX_B)]] * 2
    pred = [[(1, BOX_A), (2, BOX_B)], [(1, BOX_A), (2, BOX_B), (3, BOX_A)]]
    assert clear_mota(SequencePair(gt=gt, pred=pred)) == (0.75, 0, 1, 0)
    # Frame 2: carry-over claims the only pred, so the solver gets a (1, 0)
    # block and the new gt 2 is a miss.
    gt = [[(1, BOX_A)], [(1, BOX_A), (2, BOX_B)]]
    pred = [[(5, BOX_A)], [(5, BOX_A)]]
    assert clear_mota(SequencePair(gt=gt, pred=pred)) == (1.0 - 1.0 / 3.0, 0, 0, 1)


def test_mota_requires_ground_truth():
    pair = SequencePair(gt=[[], []], pred=[[(1, BOX_A)], []])
    with pytest.raises(ValueError):
        clear_mota(pair)
    with pytest.raises(ValueError):
        hota(pair)


def test_idf1_fresh_id_every_frame():
    n = 5
    gt = [[(1, BOX_A)] for _ in range(n)]
    pred = [[(k + 1, BOX_A)] for k in range(n)]
    # Best bijection keeps one frame: 2*1 / (2*1 + (n-1) + (n-1)).
    assert idf1(SequencePair(gt=gt, pred=pred)) == pytest.approx(2.0 / (2.0 * n))


def test_idf1_empty_cases():
    assert idf1(SequencePair(gt=[[]], pred=[[]])) == 1.0
    gt = [[(1, BOX_A)] for _ in range(3)]
    assert idf1(SequencePair(gt=gt, pred=[[], [], []])) == 0.0


def test_empty_predictions_score_zero():
    gt = [[(1, BOX_A), (2, BOX_B)] for _ in range(5)]
    pair = SequencePair(gt=gt, pred=[[] for _ in range(5)])
    report = evaluate(pair)
    assert report.mota == 0.0
    assert report.hota == 0.0 and report.deta == 0.0 and report.assa == 0.0
    assert report.idf1 == 0.0
    assert report.fn == 10 and report.fp == 0


def test_prediction_relabeling_keeps_all_metrics():
    gt = [[(1, BOX_A), (2, BOX_B)] for _ in range(6)]
    pred = [[(1, BOX_A), (2, BOX_B)] for _ in range(3)]
    pred += [[(3, BOX_A), (2, BOX_B)] for _ in range(3)]
    base = evaluate(SequencePair(gt=[list(f) for f in gt], pred=[list(f) for f in pred]))
    relabel = {1: 9, 2: 5, 3: 7}
    pred2 = [[(relabel[i], b) for i, b in f] for f in pred]
    other = evaluate(SequencePair(gt=[list(f) for f in gt], pred=pred2))
    assert other == base


def test_spurious_predictions_strictly_hurt():
    clean = evaluate(_perfect_pair())
    gt = [[(1, BOX_A), (2, BOX_B)] for _ in range(10)]
    pred = [[(1, BOX_A), (2, BOX_B), (99, FAR_BOX)] for _ in range(10)]
    dirty = evaluate(SequencePair(gt=gt, pred=pred))
    assert dirty.mota < clean.mota
    assert dirty.deta < clean.deta
    assert dirty.idf1 < clean.idf1
    assert dirty.fp == 10


def test_sequence_pair_validation():
    with pytest.raises(ValueError):
        SequencePair(gt=[[]], pred=[[], []])
    with pytest.raises(ValueError, match="gt frame 1: ids must be positive, got 0"):
        SequencePair(gt=[[(0, BOX_A)]], pred=[[]])
    with pytest.raises(ValueError, match="pred frame 2: ids must be positive, got -1"):
        SequencePair(gt=[[], []], pred=[[(1, BOX_A)], [(-1, BOX_B)]])
    # One box per id per frame: a repeated id would let IDF1 exceed 1.
    with pytest.raises(ValueError, match="gt frame 2: id 3 appears twice"):
        SequencePair(gt=[[], [(3, BOX_A), (3, BOX_B)]], pred=[[], []])
    with pytest.raises(ValueError, match="pred frame 1: id 1 appears twice"):
        SequencePair(gt=[[(1, BOX_A)]], pred=[[(1, BOX_A), (1, BOX_A)]])


@pytest.mark.parametrize(
    "gt, pred, message",
    [
        # gt is checked before pred, whatever the frames.
        (
            [[(1, BOX_A)], [(1, BOX_A)], [(2, BOX_A), (2, BOX_B)]],
            [[(0, BOX_A)], [], []],
            "gt frame 3: id 2 appears twice",
        ),
        # An earlier frame before a later one, whatever the kind.
        (
            [[(1, BOX_A)], [(4, BOX_A), (4, BOX_B)], [(-3, BOX_A)]],
            [[], [], []],
            "gt frame 2: id 4 appears twice",
        ),
        (
            [[], [], []],
            [[(1, BOX_A)], [(0, BOX_A)], [(5, BOX_A), (5, BOX_B)]],
            "pred frame 2: ids must be positive, got 0",
        ),
        # Within a frame, the first faulty entry in order.
        (
            [[(3, BOX_A), (0, BOX_B), (3, FAR_BOX)]],
            [[]],
            "gt frame 1: ids must be positive, got 0",
        ),
        (
            [[(2**70, BOX_A), (2**70, BOX_B), (-1, FAR_BOX)]],
            [[]],
            f"gt frame 1: id {2**70} appears twice",
        ),
    ],
)
def test_sequence_pair_names_the_first_of_two_faults(gt, pred, message):
    with pytest.raises(ValueError) as exc:
        SequencePair(gt=gt, pred=pred)
    assert str(exc.value) == message


def test_the_same_id_in_different_frames_is_no_fault():
    pair = SequencePair(gt=[[(2**70, BOX_A)], [(2**70, BOX_A)]], pred=[[], [(2**70, BOX_A)]])
    assert pair.total_gt() == 2 and pair.total_pred() == 1


# ---------------------------------------------------------------------------
# Exhaustive oracles on small random sequences.


def _random_box(rng):
    return Box2D(
        cx=0.2 + 0.6 * rng.uniform(),
        cy=0.2 + 0.6 * rng.uniform(),
        w=0.1 + 0.4 * rng.uniform(),
        h=0.1 + 0.4 * rng.uniform(),
    )


def random_small_pair(seed):
    rng = SplitMix64(seed)
    n_frames = 1 + rng.next_u64() % 6
    n_gt_ids = 1 + rng.next_u64() % 3
    n_pred_ids = 1 + rng.next_u64() % 3
    gt, pred = [], []
    for f in range(n_frames):
        g_entries = []
        for gid in range(1, n_gt_ids + 1):
            if rng.uniform() < 0.75 or (f == 0 and gid == 1):
                g_entries.append((gid, _random_box(rng)))
        p_entries = []
        for pid in range(1, n_pred_ids + 1):
            if rng.uniform() < 0.75:
                p_entries.append((pid, _random_box(rng)))
        gt.append(g_entries)
        pred.append(p_entries)
    return gt, pred


def random_crowded_pair(seed):
    """Three fixed ground-truth boxes, jittered per frame, and predictions
    jittered from a random one of them: boxes overlap often, so the CLEAR
    carry-over rule and the assignment disagree on some frames."""
    rng = SplitMix64(seed)
    base = [_random_box(rng) for _ in range(3)]

    def near(box):
        return Box2D(
            cx=box.cx + 0.06 * (rng.uniform() - 0.5),
            cy=box.cy + 0.06 * (rng.uniform() - 0.5),
            w=box.w * (0.85 + 0.3 * rng.uniform()),
            h=box.h * (0.85 + 0.3 * rng.uniform()),
        )

    gt, pred = [], []
    for f in range(2 + rng.next_u64() % 5):
        gt.append([(g, near(base[g - 1])) for g in (1, 2, 3) if f == 0 or rng.uniform() < 0.8])
        pred.append([
            (p, near(base[rng.next_u64() % 3])) for p in (1, 2, 3) if rng.uniform() < 0.8
        ])
    return gt, pred


def _total(frames):
    return sum(map(len, frames))


def idf1_oracle(gt, pred):
    """Maximum-IDTP bijection found by exhaustive search over co-occurring
    identity pairs."""
    counts = Counter()
    for gt_entries, pred_entries in zip(gt, pred):
        for gid, gbox in gt_entries:
            for pid, pbox in pred_entries:
                if iou(gbox, pbox) >= 0.5:
                    counts[(gid, pid)] += 1
    items = sorted(counts.items())

    def best(i, used_g, used_p):
        if i == len(items):
            return 0
        (g, p), c = items[i]
        value = best(i + 1, used_g, used_p)
        if g not in used_g and p not in used_p:
            value = max(value, c + best(i + 1, used_g | {g}, used_p | {p}))
        return value

    idtp = best(0, frozenset(), frozenset())
    total_gt, total_pred = _total(gt), _total(pred)
    if total_gt == 0 and total_pred == 0:
        return 1.0
    return 2.0 * idtp / (2.0 * idtp + (total_pred - idtp) + (total_gt - idtp))


def _oracle_frame_assignment(gt_entries, pred_entries):
    """IoU-sum-maximal one-to-one pairing by explicit permutation search."""
    n, m = len(gt_entries), len(pred_entries)
    k = min(n, m)
    if k == 0:
        return []
    best_pairs, best_total = [], -1.0
    for g_sel in itertools.permutations(range(n), k):
        for p_sel in itertools.permutations(range(m), k):
            total = sum(
                iou(gt_entries[g][1], pred_entries[p][1])
                for g, p in zip(g_sel, p_sel)
            )
            if total > best_total:
                best_total = total
                best_pairs = list(zip(g_sel, p_sel))
    return best_pairs


def hota_oracle(gt, pred):
    """(hota, deta, assa) recomputed from the definitions with exhaustive
    per-frame matching and direct association counting."""
    gt_app = Counter()
    pred_app = Counter()
    for entries in gt:
        for gid, _ in entries:
            gt_app[gid] += 1
    for entries in pred:
        for pid, _ in entries:
            pred_app[pid] += 1

    frame_matches = []
    for gt_entries, pred_entries in zip(gt, pred):
        pairs = _oracle_frame_assignment(gt_entries, pred_entries)
        matches = [
            (gt_entries[g][0], pred_entries[p][0], iou(gt_entries[g][1], pred_entries[p][1]))
            for g, p in pairs
        ]
        frame_matches.append((len(gt_entries), len(pred_entries), matches))

    hota_sum = deta_sum = assa_sum = 0.0
    for alpha in ALPHA_GRID:
        tp = fp = fn = 0
        tpa = Counter()
        events = []
        for n_gt, n_pred, matches in frame_matches:
            kept = [(g, p) for g, p, v in matches if v >= alpha]
            tp += len(kept)
            fn += n_gt - len(kept)
            fp += n_pred - len(kept)
            for g, p in kept:
                tpa[(g, p)] += 1
                events.append((g, p))
        deta = tp / (tp + fn + fp) if (tp + fn + fp) else 0.0
        if tp:
            assa = sum(
                tpa[(g, p)] / (gt_app[g] + pred_app[p] - tpa[(g, p)]) for g, p in events
            ) / tp
        else:
            assa = 0.0
        deta_sum += deta
        assa_sum += assa
        hota_sum += math.sqrt(deta * assa)
    n = len(ALPHA_GRID)
    return hota_sum / n, deta_sum / n, assa_sum / n


def clear_oracle(gt, pred):
    """(mota, idsw, fp, fn) from the CLEAR rules with scalar IoU: carry-over
    first, then the IoU-maximal pairing of the remaining boxes by
    permutation search, keeping pairs at IoU 0.5 or above."""
    last_pred = {}
    idsw = fp = fn = 0
    for gt_entries, pred_entries in zip(gt, pred):
        first_index = {}
        for pj, (pid, _) in enumerate(pred_entries):
            first_index.setdefault(pid, pj)
        bound = []
        for gi, (gid, gbox) in enumerate(gt_entries):
            pj = first_index.get(last_pred.get(gid))
            if pj is None or pj in {p for _, p in bound}:
                continue
            if iou(gbox, pred_entries[pj][1]) >= 0.5:
                bound.append((gi, pj))
        rest_g = [gi for gi in range(len(gt_entries)) if gi not in {g for g, _ in bound}]
        rest_p = [pj for pj in range(len(pred_entries)) if pj not in {p for _, p in bound}]
        pairs = _oracle_frame_assignment(
            [gt_entries[g] for g in rest_g], [pred_entries[p] for p in rest_p]
        )
        for r, c in pairs:
            gi, pj = rest_g[r], rest_p[c]
            if iou(gt_entries[gi][1], pred_entries[pj][1]) >= 0.5:
                bound.append((gi, pj))
        for gi, pj in bound:
            gid, pid = gt_entries[gi][0], pred_entries[pj][0]
            if gid in last_pred and last_pred[gid] != pid:
                idsw += 1
            last_pred[gid] = pid
        fn += len(gt_entries) - len(bound)
        fp += len(pred_entries) - len(bound)
    return 1.0 - (fn + fp + idsw) / _total(gt), idsw, fp, fn


def test_clear_mota_matches_exhaustive_oracle():
    for seed in range(120):
        for make in (random_small_pair, random_crowded_pair):
            gt, pred = make(seed)
            assert clear_mota(SequencePair(gt, pred)) == clear_oracle(gt, pred), (
                make.__name__, seed)


def test_idf1_matches_exhaustive_oracle():
    for seed in range(120):
        gt, pred = random_small_pair(seed)
        assert idf1(SequencePair(gt, pred)) == pytest.approx(idf1_oracle(gt, pred), abs=1e-12), seed


def test_hota_matches_exhaustive_oracle():
    for seed in range(120):
        gt, pred = random_small_pair(seed)
        got = hota(SequencePair(gt, pred))
        want = hota_oracle(gt, pred)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-9), seed


# ---------------------------------------------------------------------------
# Exact equality with the per-frame scorer and the per-event scalar loop.
# ``evaluate`` scores whole-sequence arrays and ``hota`` its 19 thresholds
# in one vector pass; any later speed-up must keep these results equal with
# ``==``, not ``approx``.


def reference_frames(gt, pred):
    """Per frame: (gt ids, pred ids, gt × pred IoU matrix), one IoU call per frame."""
    return [
        (
            [gid for gid, _ in gt_entries],
            [pid for pid, _ in pred_entries],
            iou_matrix(
                boxes_to_corners([box for _, box in gt_entries]),
                boxes_to_corners([box for _, box in pred_entries]),
            ),
        )
        for gt_entries, pred_entries in zip(gt, pred)
    ]


def _clear_reference(total_gt, frames):
    last_pred = {}
    idsw = fp = fn = 0
    for gids, pids, ious in frames:
        bound = []
        claimed_pred = set()
        pid_to_idx = {pid: pj for pj, pid in enumerate(pids)}
        bound_gt = set()
        for gi, gid in enumerate(gids):
            pj = pid_to_idx.get(last_pred.get(gid))
            if pj is None or pj in claimed_pred:
                continue
            if ious[gi, pj] >= 0.5:
                bound.append((gi, pj))
                bound_gt.add(gi)
                claimed_pred.add(pj)
        rest_g = [gi for gi in range(len(gids)) if gi not in bound_gt]
        rest_p = [pj for pj in range(len(pids)) if pj not in claimed_pred]
        for r, c in _assign(ious[np.ix_(rest_g, rest_p)]):
            gi, pj = rest_g[r], rest_p[c]
            if ious[gi, pj] >= 0.5:
                bound.append((gi, pj))
        for gi, pj in bound:
            gid, pid = gids[gi], pids[pj]
            prev = last_pred.get(gid)
            if prev is not None and prev != pid:
                idsw += 1
            last_pred[gid] = pid
        fn += len(gids) - len(bound)
        fp += len(pids) - len(bound)
    return 1.0 - (fn + fp + idsw) / total_gt, idsw, fp, fn


def _idf1_reference(total_gt, total_pred, frames):
    if total_gt == 0 and total_pred == 0:
        return 1.0
    counts = Counter()
    for gids, pids, ious in frames:
        for gi, pj in zip(*np.nonzero(ious >= 0.5)):
            counts[(gids[gi], pids[pj])] += 1
    gt_row = {g: i for i, g in enumerate(sorted({g for g, _ in counts}))}
    pred_col = {p: j for j, p in enumerate(sorted({p for _, p in counts}))}
    mat = np.zeros((len(gt_row), len(pred_col)), dtype=float)
    for (g, p), c in counts.items():
        mat[gt_row[g], pred_col[p]] = c
    idtp = int(sum(mat[r, c] for r, c in hungarian_assign(-mat)))
    return 2.0 * idtp / (2.0 * idtp + (total_pred - idtp) + (total_gt - idtp))


def _hota_reference(gt, pred, frames):
    total_gt, total_pred = _total(gt), _total(pred)
    gt_appearances = Counter(gid for entries in gt for gid, _ in entries)
    pred_appearances = Counter(pid for entries in pred for pid, _ in entries)
    events = [
        (gids[g], pids[p], ious[g, p]) for gids, pids, ious in frames for g, p in _assign(ious)
    ]
    numbers = {}
    pair_of = np.array([numbers.setdefault((g, p), len(numbers)) for g, p, _ in events])
    appearances = np.array([gt_appearances[g] + pred_appearances[p] for g, p, _ in events])
    event_iou = np.array([v for _, _, v in events])
    deta_sum = assa_sum = hota_sum = 0.0
    for alpha in ALPHA_GRID:
        kept = event_iou >= alpha
        tp = int(np.count_nonzero(kept))
        deta = tp / (tp + (total_gt - tp) + (total_pred - tp))
        if tp:
            kept_pairs = pair_of[kept]
            tpa = np.bincount(kept_pairs)[kept_pairs]
            assa = float(np.cumsum(tpa / (appearances[kept] - tpa))[-1]) / tp
        else:
            assa = 0.0
        deta_sum += deta
        assa_sum += assa
        hota_sum += (deta * assa) ** 0.5
    n = len(ALPHA_GRID)
    return hota_sum / n, deta_sum / n, assa_sum / n


def evaluate_reference(gt, pred):
    """The per-frame scorer ``evaluate`` replaced: one IoU matrix per frame,
    CLEAR's solver on every frame, IDF1 and HOTA tallied in Counters keyed
    by the ids themselves."""
    frames = reference_frames(gt, pred)
    total_gt, total_pred = _total(gt), _total(pred)
    mota, idsw, fp, fn = _clear_reference(total_gt, frames)
    hota_v, deta_v, assa_v = _hota_reference(gt, pred, frames)
    return MetricsReport(
        hota=hota_v, deta=deta_v, assa=assa_v, mota=mota,
        idf1=_idf1_reference(total_gt, total_pred, frames),
        idsw=idsw, tp=total_gt - fn, fp=fp, fn=fn,
    )


def hota_loop_reference(gt, pred):
    """(hota, deta, assa) from the same per-frame matching, with one Counter
    per threshold and AssA summed event by event in Python floats."""
    total_gt, total_pred = _total(gt), _total(pred)
    gt_appearances = Counter(gid for entries in gt for gid, _ in entries)
    pred_appearances = Counter(pid for entries in pred for pid, _ in entries)
    events = [
        (gids[g], pids[p], ious[g, p])
        for gids, pids, ious in reference_frames(gt, pred)
        for g, p in _assign(ious)
    ]
    deta_sum = assa_sum = hota_sum = 0.0
    for alpha in ALPHA_GRID:
        kept = [(g, p) for g, p, v in events if v >= alpha]
        tp = len(kept)
        deta = tp / (tp + (total_gt - tp) + (total_pred - tp))
        if tp:
            pair_counts = Counter(kept)
            ass = 0.0
            for g, p in kept:
                tpa = pair_counts[(g, p)]
                ass += tpa / (gt_appearances[g] + pred_appearances[p] - tpa)
            assa = ass / tp
        else:
            assa = 0.0
        deta_sum += deta
        assa_sum += assa
        hota_sum += (deta * assa) ** 0.5
    n = len(ALPHA_GRID)
    return hota_sum / n, deta_sum / n, assa_sum / n


@functools.lru_cache(maxsize=None)
def tracked_pairs(n_objects):
    """(policy, gt, pred) for one tracked 120-frame scene, two IoU chunks long."""
    scenario = generate_scenario(ScenarioConfig(n_objects=n_objects, n_frames=120))
    return [
        (policy, scenario.gt, [list(r.tracks) for r in results])
        for policy in MemoryPolicy
        for results in [track_scenario(scenario, policy=policy)]
    ]


def test_evaluate_equals_reference_on_random_pairs():
    for seed in range(300):
        for make in (random_small_pair, random_crowded_pair):
            gt, pred = make(seed)
            assert evaluate(SequencePair(gt, pred)) == evaluate_reference(gt, pred), (
                make.__name__, seed)


@pytest.mark.parametrize("n_objects", [4, 8, 24])
def test_evaluate_equals_reference_on_tracked_scenes(n_objects):
    for policy, gt, pred in tracked_pairs(n_objects):
        assert evaluate(SequencePair(gt, pred)) == evaluate_reference(gt, pred), policy


def _edge_pairs():
    """name -> (gt, pred) for the layouts the padded arrays must get right."""
    a, b, far = BOX_A, BOX_B, FAR_BOX
    near_a = Box2D(0.27, 0.25, 0.2, 0.2)
    big, bigger = 2**40, 2**70
    # Frames across chunk boundaries, with empties on either side of them.
    long_gt = [[(1, a)] if f % 3 else [] for f in range(2 * _IOU_CHUNK + 5)]
    long_pred = [[(1 + f // 50, near_a), (99, b)] if f % 4 else [] for f in range(len(long_gt))]
    return {
        "every pred frame empty": ([[(1, a)], [(1, a), (2, b)]], [[], []]),
        "gt-only frames": (
            [[(1, a), (2, b)]] * 4, [[(1, a), (2, b)], [], [], [(2, a), (1, b)]]
        ),
        "pred-only frames": ([[(1, a)], [], [(1, a)]], [[(1, a)], [(1, a), (2, b)], [(1, a)]]),
        "a frame empty on both sides": ([[(1, a)], [], [(1, a)]], [[(1, near_a)], [], [(1, a)]]),
        "trailing empty frames": ([[(1, a)], [(1, a)], [], []], [[(1, a)], [(2, a)], [], []]),
        "uneven box counts per frame": (
            [[(1, a)], [(1, a), (2, b), (3, far)], [(2, b)], [(1, near_a), (3, far)]],
            [[(4, a), (5, b), (6, far)], [(4, near_a)], [(4, b), (6, a), (5, far), (7, near_a)], []],
        ),
        "non-contiguous ids": (
            [[(3, a), (17, b)], [(17, b), (3, near_a)], [(900, far), (3, a)]],
            [[(12, a), (5, b)], [(5, b), (40, a)], [(12, far), (40, a)]],
        ),
        "ids 2**40 and 2**70": (
            [[(big, a), (bigger, b)], [(bigger, b), (big, near_a)], [(bigger, a)]],
            [[(bigger, a), (big, b)], [(big, b), (bigger, a), (bigger + 1, far)], [(bigger, a)]],
        ),
        "empties across chunk boundaries": (long_gt, long_pred),
    }


@pytest.mark.parametrize("name", list(_edge_pairs()))
def test_evaluate_equals_reference_on_edge_pairs(name):
    gt, pred = _edge_pairs()[name]
    pair = SequencePair(gt=[list(f) for f in gt], pred=[list(f) for f in pred])
    assert evaluate(pair) == evaluate_reference(gt, pred)


def test_hota_equals_loop_reference_on_random_pairs():
    for seed in range(300):
        for make in (random_small_pair, random_crowded_pair):
            gt, pred = make(seed)
            assert hota(SequencePair(gt, pred)) == hota_loop_reference(gt, pred), (
                make.__name__, seed)


@pytest.mark.parametrize("n_objects", [4, 8, 24])
def test_hota_equals_loop_reference_on_tracked_scenes(n_objects):
    for policy, gt, pred in tracked_pairs(n_objects):
        assert hota(SequencePair(gt, pred)) == hota_loop_reference(gt, pred), policy


def test_hota_with_every_pred_frame_empty_has_no_events():
    gt, pred = [[(1, BOX_A)], [(1, BOX_A), (2, BOX_B)]], [[], []]
    assert hota(SequencePair(gt, pred)) == hota_loop_reference(gt, pred) == (0.0, 0.0, 0.0)


def test_hota_with_preds_that_never_overlap_scores_zero():
    # The matcher still pairs the boxes, at IoU 0, and every threshold drops them.
    gt = [[(1, BOX_A), (2, BOX_B)] for _ in range(4)]
    pred = [[(7, FAR_BOX)] for _ in range(4)]
    pair = SequencePair(gt=gt, pred=pred)
    ious = pair.ious[0][0, :2, :1]
    assert ious.max() == 0.0 and len(_assign(ious)) == 1
    assert hota(pair) == hota_loop_reference(gt, pred) == (0.0, 0.0, 0.0)


def test_hota_keeps_a_match_whose_iou_equals_a_grid_threshold():
    gt_box = Box2D(0.375, 0.375, 0.25, 0.25)
    pred_box = Box2D(0.375, 0.3125, 0.25, 0.125)
    assert iou_matrix(boxes_to_corners([gt_box]), boxes_to_corners([pred_box]))[0, 0] == 0.5
    gt, pred = [[(1, gt_box)] for _ in range(3)], [[(1, pred_box)] for _ in range(3)]
    got = hota(SequencePair(gt=gt, pred=pred))
    assert got == hota_loop_reference(gt, pred)
    # Thresholds 0.05..0.50 keep the match, 0.55..0.95 drop it.
    assert got[1] == got[2] == sum([1.0] * 10) / len(ALPHA_GRID)

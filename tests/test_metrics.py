"""Metric correctness: canonical sequences, thresholds, exhaustive oracles."""

import itertools
import math
from collections import Counter

import pytest

import sasmot.metrics
from sasmot.geometry import Box2D, iou
from sasmot.metrics import (
    ALPHA_GRID,
    SequencePair,
    clear_mota,
    evaluate,
    hota,
    idf1,
)
from sasmot.rng import SplitMix64

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


def test_evaluate_computes_each_frame_iou_once(monkeypatch):
    calls = []
    real = sasmot.metrics.iou_matrix

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(sasmot.metrics, "iou_matrix", counting)
    pair = _perfect_pair(n_frames=7)
    evaluate(pair)
    assert len(calls) == len(pair.gt)


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
    with pytest.raises(ValueError):
        SequencePair(gt=[[(0, BOX_A)]], pred=[[]])
    # One box per id per frame: a repeated id would let IDF1 exceed 1.
    with pytest.raises(ValueError, match="gt frame 2: id 3 appears twice"):
        SequencePair(gt=[[], [(3, BOX_A), (3, BOX_B)]], pred=[[], []])
    with pytest.raises(ValueError, match="pred frame 1: id 1 appears twice"):
        SequencePair(gt=[[(1, BOX_A)]], pred=[[(1, BOX_A), (1, BOX_A)]])


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
    return SequencePair(gt=gt, pred=pred)


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
    return SequencePair(gt=gt, pred=pred)


def idf1_oracle(pair):
    """Maximum-IDTP bijection found by exhaustive search over co-occurring
    identity pairs."""
    counts = Counter()
    for gt_entries, pred_entries in zip(pair.gt, pair.pred):
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
    total_gt, total_pred = pair.total_gt(), pair.total_pred()
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


def hota_oracle(pair):
    """(hota, deta, assa) recomputed from the definitions with exhaustive
    per-frame matching and direct association counting."""
    gt_app = Counter()
    pred_app = Counter()
    for entries in pair.gt:
        for gid, _ in entries:
            gt_app[gid] += 1
    for entries in pair.pred:
        for pid, _ in entries:
            pred_app[pid] += 1

    frame_matches = []
    for gt_entries, pred_entries in zip(pair.gt, pair.pred):
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


def clear_oracle(pair):
    """(mota, idsw, fp, fn) from the CLEAR rules with scalar IoU: carry-over
    first, then the IoU-maximal pairing of the remaining boxes by
    permutation search, keeping pairs at IoU 0.5 or above."""
    last_pred = {}
    idsw = fp = fn = 0
    for gt_entries, pred_entries in zip(pair.gt, pair.pred):
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
    return 1.0 - (fn + fp + idsw) / pair.total_gt(), idsw, fp, fn


def test_clear_mota_matches_exhaustive_oracle():
    for seed in range(120):
        for make in (random_small_pair, random_crowded_pair):
            pair = make(seed)
            assert clear_mota(pair) == clear_oracle(pair), (make.__name__, seed)


def test_idf1_matches_exhaustive_oracle():
    for seed in range(120):
        pair = random_small_pair(seed)
        assert idf1(pair) == pytest.approx(idf1_oracle(pair), abs=1e-12), seed


def test_hota_matches_exhaustive_oracle():
    for seed in range(120):
        pair = random_small_pair(seed)
        got = hota(pair)
        want = hota_oracle(pair)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-9), seed

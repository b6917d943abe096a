"""Association behavior: costs, assignment optimality, lifecycle, reductions."""

import hashlib
import itertools
import math
import os
import struct
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from sasmot import tracker as tracker_mod
from sasmot.geometry import (
    Box2D, box_areas, boxes_to_corners, iou, iou_matrix, max_iou_vs_others,
)
from sasmot.memory import MemoryConfig, MemoryPolicy, TrackMemory
from sasmot.metrics import SequencePair, evaluate
from sasmot.rng import SplitMix64
from sasmot.simulator import ScenarioConfig, generate_scenario
from sasmot.tracker import (
    FORBIDDEN_COST,
    Detection,
    DetectionFrame,
    Tracker,
    TrackerConfig,
    build_cost_matrix,
    cosine_distance,
    hungarian_assign,
)


def _det(cx, cy, emb, score=1.0, w=0.1, h=0.1):
    return Detection(Box2D(cx, cy, w, h), np.asarray(emb, dtype=float), score)


E1 = [1.0, 0.0, 0.0]
E2 = [0.0, 1.0, 0.0]
E3 = [0.0, 0.0, 1.0]


def _cost(queries, corners, dets, cfg):
    """The cost of (T, D) track ``queries`` whose last boxes have (T, 4)
    ``corners`` against the ``Detection``s ``dets``."""
    frame = DetectionFrame.from_detections(dets)
    return build_cost_matrix(queries, frame.embeddings, iou_matrix(corners, frame.corners), cfg)


def test_cosine_distance_analytic():
    d = cosine_distance([[1, 0], [2, 0]], [[1, 0], [0, 1], [-1, 0], [5, 0], [1, 1]])
    assert d.shape == (2, 5)
    for row in d:  # the second row checks scale invariance
        assert row[:4].tolist() == [0.0, 1.0, 2.0, 0.0]
        assert math.isclose(row[4], 1.0 - math.sqrt(0.5), rel_tol=1e-12)


def test_cosine_distance_zero_norm_row_is_one_and_mismatch_rejected():
    # A row with no direction is 1.0 from every row, as in sklearn.
    assert cosine_distance([[0.0, 0.0]], [[1.0, 0.0]]).tolist() == [[1.0]]
    assert cosine_distance([[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]).tolist() == [[0.0, 1.0]]
    assert cosine_distance([[0.0, 0.0]], [[0.0, 0.0]]).tolist() == [[1.0]]
    with pytest.raises(ValueError):
        cosine_distance([[1.0, 0.0]], [[1.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        cosine_distance([1.0, 0.0], [1.0, 0.0])  # rows, not single vectors


def _scalar_cosine(a, b):
    na = math.sqrt(float(np.dot(a, a)))
    nb = math.sqrt(float(np.dot(b, b)))
    return min(2.0, max(0.0, 1.0 - float(np.dot(a, b)) / (na * nb)))


unit = st.floats(min_value=0.0, max_value=1.0)
embeddings = st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=3, max_size=3).filter(
    lambda e: np.linalg.norm(e) > 1e-3
)
# Centres in the middle half of the image, so boxes overlap about as often
# as not and the IoU gate has cells on both sides.
middle = st.floats(min_value=0.25, max_value=0.75)
track_or_det = st.tuples(
    embeddings,
    st.builds(Box2D, cx=middle, cy=middle, w=st.floats(0.05, 0.5), h=st.floats(0.05, 0.5)),
)


@given(
    st.lists(track_or_det, min_size=1, max_size=5),
    st.lists(track_or_det, min_size=1, max_size=5),
    unit,
    unit,
    st.one_of(st.just(0.0), unit),
)
def test_cost_matrix_matches_scalar_blend(tracks, dets, blend, threshold, gate):
    cfg = TrackerConfig(cost_blend=blend, match_threshold=threshold, iou_gate=gate)
    queries = np.array([e for e, _ in tracks])
    corners = boxes_to_corners([box for _, box in tracks])
    detections = [Detection(box, np.array(e), 1.0) for e, box in dets]
    cost = _cost(queries, corners, detections, cfg)
    assert cost.shape == (len(tracks), len(dets))
    for i, (q, tbox) in enumerate(tracks):
        for j, (e, dbox) in enumerate(dets):
            ov = iou(tbox, dbox)
            want = blend * _scalar_cosine(q, e) / 2.0 + (1.0 - blend) * (1.0 - ov)
            if abs(want - threshold) <= 1e-12:
                continue  # a last-digit difference may fall on either side
            if (gate > 0.0 and ov < gate) or want > threshold:
                assert cost[i, j] == FORBIDDEN_COST
            else:
                assert abs(cost[i, j] - want) <= 1e-12


def _cosine_distance_reference(a, b):
    """The formula ``cosine_distance`` replaced: ``np.outer`` and a two-sided ``np.clip``."""
    na = np.sqrt(np.einsum("ij,ij->i", a, a))
    nb = np.sqrt(np.einsum("ij,ij->i", b, b))
    norms = np.outer(na, nb)
    cos = np.divide(a @ b.T, norms, out=np.zeros_like(norms), where=norms > 0.0)
    return np.clip(1.0 - cos, 0.0, 2.0)


def _cost_reference(queries, embeddings, ov, cfg):
    """The formula ``build_cost_matrix`` replaced, with the gate mask always built."""
    lam = cfg.cost_blend
    cost = lam * _cosine_distance_reference(queries, embeddings) / 2.0 + (1.0 - lam) * (1.0 - ov)
    cost[(ov < cfg.iou_gate) | (cost > cfg.match_threshold)] = FORBIDDEN_COST
    return cost


# Row scales: the extremes a Detection accepts at D <= 16, and 1.
SCALES = np.array([1e-150, 1.0, 1e150])


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(1, 16),
    st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0]),
    st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    st.sampled_from([0.0, 0.2, 0.4, 1.0, math.inf]),
)
def test_cost_kernels_equal_the_reference_formulas_bit_for_bit(
    seed, n_tracks, n_dets, dim, gate, blend, threshold
):
    rng = np.random.default_rng(seed)
    queries = rng.standard_normal((n_tracks, dim)) * rng.choice(SCALES, (n_tracks, 1))
    queries[rng.random(n_tracks) < 0.3] = 0.0  # a fused query can cancel out
    embeddings = rng.standard_normal((n_dets, dim)) * rng.choice(SCALES, (n_dets, 1))
    # Overlaps with exact 0, 1 and gate values among them.
    ov = rng.random((n_tracks, n_dets))
    exact = rng.random(ov.shape) < 0.4
    ov[exact] = rng.choice([0.0, 1.0, gate], exact.sum())
    cfg = TrackerConfig(cost_blend=blend, match_threshold=threshold, iou_gate=gate)
    box = Box2D(0.5, 0.5, 0.1, 0.1)
    dets = [Detection(box, e, 1.0) for e in embeddings]
    assert (
        cosine_distance(queries, embeddings).tobytes()
        == _cosine_distance_reference(queries, embeddings).tobytes()
    )
    got = build_cost_matrix(queries, DetectionFrame.from_detections(dets).embeddings, ov, cfg)
    assert got.tobytes() == _cost_reference(queries, embeddings, ov, cfg).tobytes()


def test_cosine_distance_of_extreme_rows_equals_the_reference_bit_for_bit():
    big, tiny, zero = np.full(16, 1e150), np.full(16, 1e-150), np.zeros(16)
    a = np.array([big, tiny, -big, zero])
    b = np.array([big, -big, tiny, -tiny, zero])
    for x, y in ((a, b), (b, a), (a, a)):
        assert cosine_distance(x, y).tobytes() == _cosine_distance_reference(x, y).tobytes()


def test_cost_matrix_rejects_embedding_size_mismatch():
    tracker = Tracker()
    tracker.step([_det(0.5, 0.5, E1)], 1)
    with pytest.raises(ValueError, match="dimension mismatch"):
        _cost(tracker.queries, tracker.corners, [_det(0.5, 0.5, [1.0, 0.0])], tracker.cfg)
    no_tracks = (np.empty((0, 3)), np.empty((0, 4)))
    assert _cost(*no_tracks, [_det(0.5, 0.5, [1.0, 0.0])], tracker.cfg).shape == (0, 1)


def test_cost_blend_formula():
    # Same box (IoU 1) with a 45-degree appearance angle isolates the
    # appearance term: 0.7 * (1 - cos45) / 2.
    tracker = Tracker(TrackerConfig())
    tracker.step([_det(0.5, 0.5, E1)], 1)
    det = _det(0.5, 0.5, [1.0, 1.0, 0.0])
    cost = _cost(tracker.queries, tracker.corners, [det], tracker.cfg)
    expected = 0.7 * (1.0 - math.sqrt(0.5)) / 2.0
    assert cost[0, 0] == pytest.approx(expected, rel=1e-12)


def test_orthogonal_disjoint_pair_is_forbidden():
    # Appearance 0.7 * 1/2 = 0.35 plus spatial 0.3 * 1 = 0.65 > 0.4.
    tracker = Tracker(TrackerConfig())
    tracker.step([_det(0.1, 0.1, E1)], 1)
    det = _det(0.9, 0.9, E2)
    cost = _cost(tracker.queries, tracker.corners, [det], tracker.cfg)
    assert cost[0, 0] == FORBIDDEN_COST


def test_iou_gate_forbids_non_overlapping():
    cfg = TrackerConfig(iou_gate=0.5, match_threshold=2.0)
    tracker = Tracker(cfg)
    tracker.step([_det(0.1, 0.1, E1)], 1)
    near = _det(0.11, 0.1, E1)  # IoU well above 0.5
    far = _det(0.3, 0.1, E1)  # disjoint
    cost = _cost(tracker.queries, tracker.corners, [near, far], cfg)
    assert cost[0, 0] < FORBIDDEN_COST
    assert cost[0, 1] == FORBIDDEN_COST


def _brute_force_min_cost(cost):
    n, m = cost.shape
    k = min(n, m)
    best = None
    rows = range(n)
    for chosen_rows in itertools.permutations(rows, k):
        for chosen_cols in itertools.permutations(range(m), k):
            total = sum(cost[r, c] for r, c in zip(chosen_rows, chosen_cols))
            if best is None or total < best:
                best = total
    return best


def test_hungarian_matches_bruteforce_on_random_matrices():
    rng = SplitMix64(2024)
    for _ in range(60):
        n = 1 + rng.next_u64() % 4
        m = 1 + rng.next_u64() % 4
        cost = np.array([[rng.uniform() for _ in range(m)] for _ in range(n)])
        pairs = hungarian_assign(cost)
        total = sum(cost[r, c] for r, c in pairs)
        assert total == pytest.approx(_brute_force_min_cost(cost), abs=1e-12)
        # one-to-one
        assert len({r for r, _ in pairs}) == len(pairs)
        assert len({c for _, c in pairs}) == len(pairs)


def hungarian_assign_reference(cost):
    """The per-element scan ``hungarian_assign`` must equal, pair for pair."""
    if cost.size == 0:
        return []
    rows, cols = linear_sum_assignment(cost)
    return [(int(r), int(c)) for r, c in zip(rows, cols) if cost[r, c] < FORBIDDEN_COST]


@pytest.mark.parametrize("shape", [(5, 3), (3, 5), (4, 4), (1, 6), (6, 1)])
def test_hungarian_equals_reference_with_forbidden_entries(shape):
    rng = np.random.default_rng(sum(shape) * 31 + shape[0])
    for trial in range(40):
        cost = rng.uniform(size=shape)
        cost[rng.uniform(size=shape) < 0.4] = FORBIDDEN_COST
        cost[trial % shape[0]] = FORBIDDEN_COST  # one all-forbidden row
        if trial % 5 == 0:
            cost[:] = FORBIDDEN_COST
        got, want = hungarian_assign(cost), hungarian_assign_reference(cost)
        assert got.dtype == np.intp and got.shape == (len(want), 2)
        assert got.tolist() == [list(pair) for pair in want]


def test_hungarian_empty_and_forbidden():
    for shape in ((0, 3), (3, 0), (0, 0)):
        none = hungarian_assign(np.zeros(shape))
        assert none.shape == (0, 2) and none.dtype == np.intp
    cost = np.array([[FORBIDDEN_COST, 0.2], [0.1, FORBIDDEN_COST]])
    assert hungarian_assign(cost).tolist() == [[0, 1], [1, 0]]
    all_bad = hungarian_assign(np.full((2, 2), FORBIDDEN_COST))
    assert all_bad.shape == (0, 2) and all_bad.dtype == np.intp


SRC = Path(__file__).resolve().parents[1] / "src"


def _run_python(code, pythonpath):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, pythonpath)))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )


@pytest.mark.parametrize("first, second", [
    ("sasmot.tracker", "scipy.optimize"),
    ("scipy.optimize", "sasmot.tracker"),
])
def test_solver_is_scipys_own_function_in_either_import_order(first, second):
    # The tracker loads scipy's compiled solver module by itself; in either
    # order it must be the very function ``scipy.optimize`` exports, so a
    # scipy that wraps the public name differently fails here.
    done = _run_python(
        f"import {first}, {second}, sasmot.tracker as t, scipy.optimize as o\n"
        "assert t.linear_sum_assignment is o.linear_sum_assignment\n",
        [SRC],
    )
    assert done.returncode == 0, done.stderr


def test_scipy_without_compiled_solver_fails_at_import(tmp_path):
    optimize = tmp_path / "scipy" / "optimize"
    optimize.mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text("")
    done = _run_python("import sasmot.tracker", [tmp_path, SRC])
    assert done.returncode != 0
    last = done.stderr.strip().splitlines()[-1]
    assert last.startswith("ImportError: sasmot needs scipy's compiled linear_sum_assignment")
    assert str(optimize) in last


def test_query_that_cancels_to_zero_keeps_tracking():
    # Dense memory with alpha 0 fuses e and -e to a zero query at frame 2;
    # frame 3 must still associate on IoU alone instead of raising.
    cfg = TrackerConfig(memory=MemoryConfig(alpha=0.0, epsilon=0.0), cost_blend=0.0)
    tracker = Tracker(cfg, MemoryPolicy.DENSE)
    ids = []
    for frame, emb in enumerate([E1, [-x for x in E1], E1], start=1):
        result = tracker.step([_det(0.5, 0.5, emb)], frame)
        ids.append([tid for tid, _ in result.tracks])
        if frame == 2:
            assert not tracker.queries[0].any()
    assert ids == [[1], [1], [1]]


def test_ids_stable_on_two_separated_objects():
    tracker = Tracker(TrackerConfig())
    for frame in range(1, 8):
        x = 0.1 + 0.01 * frame
        result = tracker.step(
            [_det(x, 0.2, E1), _det(x, 0.8, E2)], frame
        )
        ids = sorted(tid for tid, _ in result.tracks)
        assert ids == [1, 2]


def test_birth_query_is_detection_embedding():
    tracker = Tracker(TrackerConfig())
    det = _det(0.5, 0.5, E1)
    tracker.step([det], 1)
    assert np.array_equal(tracker.queries[0], det.embedding)


def test_low_score_detections_are_ignored():
    tracker = Tracker(TrackerConfig())
    result = tracker.step([_det(0.5, 0.5, E1, score=0.49)], 1)
    assert result.tracks == []
    assert tracker.tracks == []
    result = tracker.step([_det(0.5, 0.5, E1, score=0.5)], 2)
    assert len(result.tracks) == 1


def test_track_dies_after_max_misses():
    cfg = TrackerConfig(max_misses=2)
    tracker = Tracker(cfg)
    tracker.step([_det(0.5, 0.5, E1)], 1)
    for frame in (2, 3):
        result = tracker.step([], frame)
        assert result.tracks == []
        assert len(tracker.tracks) == 1  # coasting
    tracker.step([], 4)
    assert tracker.tracks == []  # misses exceeded max_misses
    # A reappearing object gets a fresh identity.
    result = tracker.step([_det(0.5, 0.5, E1)], 5)
    assert result.tracks[0][0] == 2


def test_lifecycle_keeps_track_and_emission_order():
    # A, B, C are born; on frame 2 only B returns and D is born while A and
    # C coast; on frame 3 A and C pass max_misses and die.
    a, b, c, d = (_det(0.1 + 0.25 * k, 0.5, np.eye(4)[k]) for k in range(4))
    tracker = Tracker(TrackerConfig(max_misses=1))
    tracker.step([a, b, c], 1)
    result = tracker.step([b, d], 2)
    assert result.tracks == [(2, b.box), (4, d.box)]
    assert [t.track_id for t in tracker.tracks] == [1, 2, 3, 4]
    assert tracker.step([], 3).tracks == []
    assert [t.track_id for t in tracker.tracks] == [2, 4]


def test_embedding_size_change_names_frame_and_detection():
    tracker = Tracker(TrackerConfig())
    with pytest.raises(ValueError, match=r"frame 1: detection 1 has embedding size 4, expected 3"):
        tracker.step([_det(0.2, 0.5, E1), _det(0.8, 0.5, [0.0, 0.0, 0.0, 1.0])], 1)
    # The rejected frame set no size: a 4-D frame 1 is accepted and sets it.
    tracker.step([_det(0.8, 0.5, [0.0, 0.0, 0.0, 1.0])], 1)
    with pytest.raises(ValueError, match=r"frame 2: detection 0 has embedding size 3, expected 4"):
        tracker.step([_det(0.8, 0.5, E1)], 2)


def _banks(tracker):
    """The tracker's corner, area and query banks, shape and bytes."""
    banks = (tracker.corners, tracker.areas, tracker.queries)
    return [(bank.shape, bank.tobytes()) for bank in banks]


def _check_banks(tracker, dets, result, live_before, reference):
    """Hold the banks to the track list after one step.

    ``reference`` maps each track id to its query: the raw embedding at
    birth, then ``fused_query`` of each matched embedding; it is updated
    from ``result``, the step's output for ``dets``.
    """
    embedding = {id(det.box): det.embedding for det in dets}
    by_id = {track.track_id: track for track in tracker.tracks}
    for track_id, box in result.tracks:
        e = embedding[id(box)]
        reference[track_id] = by_id[track_id].memory.fused_query(e) if track_id in live_before else e
    tracks = tracker.tracks
    assert tracker.corners.tobytes() == boxes_to_corners([t.last_box for t in tracks]).tobytes()
    assert tracker.corners.shape == (len(tracks), 4)
    # The area bank has the bits of the areas that ``iou_matrix`` would
    # compute from the corner bank itself.
    assert tracker.areas.shape == (len(tracks),)
    assert tracker.areas.tobytes() == box_areas(tracker.corners).tobytes()
    # D comes from the first accepted frame with detections, as ``dim`` does.
    assert tracker.queries.shape == (len(tracks), tracker.dim or 0)
    for track, row in zip(tracks, tracker.queries):
        assert row.tobytes() == reference[track.track_id].tobytes()


_MIXED = [_det(0.2, 0.5, E1), _det(0.8, 0.5, [0.0, 0.0, 0.0, 1.0])]


@pytest.mark.parametrize(
    "before, frame",
    [
        ([], _MIXED),  # a rejected first frame sets no embedding size
        ([[_det(0.2, 0.5, E1), _det(0.8, 0.5, E2)]], _MIXED),
        ([[_det(0.2, 0.5, E1), _det(0.8, 0.5, E2)]], [_det(0.2, 0.5, [0.0, 0.0, 0.0, 1.0])]),
    ],
)
def test_a_step_that_raises_changes_no_state(before, frame):
    tracker = Tracker(TrackerConfig())
    for frame_idx, dets in enumerate(before, start=1):
        tracker.step(dets, frame_idx)

    def state():
        return (list(tracker.tracks), tracker.dim, tracker._last_frame, tracker._next_id,
                [(t.last_box, t.misses, len(t.memory.entries)) for t in tracker.tracks],
                _banks(tracker))

    kept = state()
    with pytest.raises(ValueError, match="embedding size"):
        tracker.step(frame, len(before) + 1)
    assert state() == kept
    # The frame index was not used up, and a frame of the other size is
    # accepted exactly when no frame was accepted before.
    tracker.step([_det(0.5, 0.9, E3)], len(before) + 1)


def test_frame_order_is_checked_before_any_state_changes():
    tracker = Tracker(TrackerConfig())
    tracker.step([_det(0.2, 0.5, E1), _det(0.8, 0.5, E2)], 5)
    tracks = list(tracker.tracks)
    state = [(t.track_id, t.last_box, t.misses, len(t.memory.entries)) for t in tracks]
    banks = _banks(tracker)
    for frame_idx in (5, 4):
        with pytest.raises(ValueError, match=rf"frame_idx must increase: got {frame_idx} after 5"):
            tracker.step([_det(0.2, 0.5, E1), _det(0.5, 0.9, E3)], frame_idx)
        assert tracker.tracks == tracks
        assert [(t.track_id, t.last_box, t.misses, len(t.memory.entries))
                for t in tracks] == state
        assert _banks(tracker) == banks
    # The next id is still 3: the rejected steps gave out none.
    assert [track_id for track_id, _ in tracker.step([_det(0.5, 0.9, E3)], 6).tracks] == [3]


def test_coasting_track_rematches_by_appearance():
    tracker = Tracker(TrackerConfig())
    tracker.step([_det(0.5, 0.5, E1)], 1)
    tracker.step([], 2)
    result = tracker.step([_det(0.52, 0.5, E1)], 3)
    assert result.tracks[0][0] == 1
    assert tracker.tracks[0].misses == 0


def test_crossing_objects_keep_ids_via_appearance():
    # Two objects swap x positions; boxes coincide mid-crossing, so only
    # appearance can keep the identities straight.
    tracker = Tracker(TrackerConfig())
    n = 11
    for frame in range(1, n + 1):
        t = (frame - 1) / (n - 1)
        xa = 0.2 + 0.6 * t
        xb = 0.8 - 0.6 * t
        result = tracker.step([_det(xa, 0.5, E1), _det(xb, 0.5, E2)], frame)
        by_id = dict(result.tracks)
        assert set(by_id) == {1, 2}
        assert by_id[1].cx == pytest.approx(xa)
        assert by_id[2].cx == pytest.approx(xb)


def test_antiparallel_embedding_spawns_new_track():
    tracker = Tracker(TrackerConfig())
    tracker.step([_det(0.5, 0.5, E1)], 1)
    # Same spot, opposite appearance: cost 0.7 > threshold, no match.
    result = tracker.step([_det(0.5, 0.5, [-1.0, 0.0, 0.0])], 2)
    assert result.tracks[0][0] == 2


def test_overlap_recorded_from_other_detections():
    # Two overlapping detections in one frame; under the dense policy the
    # birth commit records each one's IoU against the other.
    tracker = Tracker(TrackerConfig(), policy=MemoryPolicy.DENSE)
    a = _det(0.0, 0.0, E1, w=1.0, h=1.0)
    b = _det(0.5, 0.0, E2, w=1.0, h=1.0)
    tracker.step([a, b], 1)
    expected = iou(a.box, b.box)
    for track in tracker.tracks:
        assert track.memory.entries[0].overlap_at_store == pytest.approx(expected)


def test_frame_indices_must_increase():
    tracker = Tracker(TrackerConfig())
    tracker.step([_det(0.5, 0.5, E1)], 1)
    with pytest.raises(ValueError):
        tracker.step([_det(0.5, 0.5, E1)], 1)


def _run(scenario, cfg, policy):
    tracker = Tracker(cfg, policy=policy)
    out = []
    for frame_idx, dets in enumerate(scenario.detections, start=1):
        result = tracker.step(dets, frame_idx)
        out.append((result.frame_idx, tuple(result.tracks)))
    return out


def test_memoryless_settings_reduce_to_no_memory_policy():
    # alpha = 1 makes fusion the identity and epsilon = inf prevents any
    # store, so the sparse pipeline must equal the no-memory baseline
    # decision for decision.
    scenario = generate_scenario(ScenarioConfig(n_objects=5, n_frames=120, seed=9))
    baseline = _run(scenario, TrackerConfig(), MemoryPolicy.NONE)
    memoryless = MemoryConfig(alpha=1.0, epsilon=float("inf"))
    reduced = _run(scenario, TrackerConfig(memory=memoryless), MemoryPolicy.SPARSE)
    assert baseline == reduced


@given(
    st.integers(1, 6),
    st.integers(1, 40),
    st.integers(0, 2**32),
    st.sampled_from(list(MemoryPolicy)),
    st.integers(0, 4),
)
@settings(max_examples=40, deadline=None)
def test_tracker_invariants_on_simulated_scenes(n_objects, n_frames, seed, policy, max_misses):
    scenario = generate_scenario(ScenarioConfig(n_objects=n_objects, n_frames=n_frames, seed=seed))
    tracker = Tracker(TrackerConfig(max_misses=max_misses), policy=policy)
    last_seen = {}  # id -> frame it was last emitted
    reference = {}
    for frame_idx, dets in enumerate(scenario.detections, start=1):
        live_before = {t.track_id for t in tracker.tracks}
        result = tracker.step(dets, frame_idx)
        _check_banks(tracker, dets, result, live_before, reference)
        ids = [track_id for track_id, _ in result.tracks]
        assert len(set(ids)) == len(ids)
        inputs = {id(d.box) for d in dets}
        assert all(id(box) in inputs for _, box in result.tracks)
        for track_id in ids:
            # An id is either carried by a live track or brand new.
            assert track_id in live_before or track_id not in last_seen
            last_seen[track_id] = frame_idx
        for track in tracker.tracks:
            assert track.misses <= max_misses
            assert track.misses == frame_idx - last_seen[track.track_id]


def _edge_box(cx, cy, w, h):
    try:
        return Box2D(cx, cy, w, h)
    except ValueError:
        return None  # corners that collapse, or an area that underflows to 0


# Generated streams at the edges of what ingest accepts: degenerate and
# repeated boxes, antipodal embeddings scaled by 1e±150, scores 0 and 1,
# and every config knob at its validation edge. Boxes stay within a few
# image sizes of the frame.
_edge_boxes = st.builds(
    _edge_box,
    cx=st.sampled_from([0.0, 0.5, 0.5 + 1e-12, 1.0, -1.0, 2.0]),
    cy=st.sampled_from([0.0, 0.5, 1.0]),
    # 1e-323 is the narrowest size whose corners stay apart, and only at 0;
    # its area stays above 0 only against a side of 1 or more.
    w=st.sampled_from([1e-323, 1e-12, 0.1, 1.0, 4.0]),
    h=st.sampled_from([1e-323, 0.1, 1.0, 4.0]),
).filter(lambda box: box is not None)
_directions = st.sampled_from([(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                               (0.6, -0.8, 0.0), (-0.6, 0.8, 0.0), (1.0, 1.0, 1.0)])
_edge_detections = st.builds(
    lambda box, direction, scale, score, extra: Detection(
        box, np.array(direction + (1.0,) * extra) * scale, score),
    _edge_boxes,
    _directions,
    st.sampled_from([1.0, 1e150, 1e-150]),
    st.sampled_from([0.0, 0.5, 1.0]),
    # Now and then an embedding one longer than the rest, which the tracker
    # must reject naming the frame.
    st.sampled_from((0,) * 63 + (1,)),
)
_edge_configs = st.builds(
    lambda alpha, epsilon, m_max, delay, threshold, gate, min_score, max_misses, blend: (
        TrackerConfig(
            memory=MemoryConfig(epsilon=epsilon, m_max=m_max, alpha=alpha,
                                delay_overlap_threshold=delay),
            match_threshold=threshold, iou_gate=gate, min_score=min_score,
            max_misses=max_misses, cost_blend=blend)),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.sampled_from([0.0, 0.1, math.inf]),
    st.sampled_from([1, 10]),
    st.sampled_from([0.0, 1.0]),
    st.sampled_from([0.0, 0.4, math.inf]),
    st.sampled_from([0.0, 1.0]),
    st.sampled_from([0.0, 0.5, 1.0]),
    st.sampled_from([0, 30]),
    st.sampled_from([0.0, 0.7, 1.0]),
)


@given(
    st.lists(st.lists(_edge_detections, max_size=4), min_size=1, max_size=8),
    _edge_configs,
    st.sampled_from(list(MemoryPolicy)),
)
@settings(max_examples=60, deadline=None)
def test_generated_edge_streams_keep_step_invariants_and_metric_ranges(stream, cfg, policy):
    tracker = Tracker(cfg, policy=policy)
    live, seen = set(), set()
    gt, pred = [], []
    reference = {}
    for frame_idx, dets in enumerate(stream, start=1):
        try:
            result = tracker.step(dets, frame_idx)
        except ValueError as exc:
            assert f"frame {frame_idx}" in str(exc)
            return
        _check_banks(tracker, dets, result, live, reference)
        # The benchmark's three step invariants: unique ids in a frame, an
        # id not live after the previous step is new, and every emitted box
        # is one of this step's input boxes.
        ids = [track_id for track_id, _ in result.tracks]
        assert len(set(ids)) == len(ids)
        assert {id(box) for _, box in result.tracks} <= {id(d.box) for d in dets}
        assert all(track_id in live or track_id not in seen for track_id in ids)
        seen.update(ids)
        live = {t.track_id for t in tracker.tracks}
        # The memory invariants its caller's input rules keep: it checks
        # none of them itself.
        for track in tracker.tracks:
            memory = track.memory
            frames = [entry.frame_idx for entry in memory.entries]
            assert len(frames) <= cfg.memory.m_max
            assert all(a < b for a, b in zip(frames, frames[1:]))
            assert all(0.0 <= entry.overlap_at_store <= 1.0 for entry in memory.entries)
            assert all(entry.embedding.size == tracker.dim for entry in memory.entries)
            assert memory.accumulator >= 0.0
        gt.append([(slot + 1, d.box) for slot, d in enumerate(dets)])
        pred.append(result.tracks)
    if not any(gt):
        return  # MOTA and HOTA are undefined without ground truth
    report = evaluate(SequencePair(gt=gt, pred=pred))
    for name in ("hota", "deta", "assa", "idf1"):
        assert 0.0 <= getattr(report, name) <= 1.0, name
    assert -math.inf < report.mota <= 1.0
    assert report.idsw >= 0


def test_tracker_is_deterministic():
    scenario = generate_scenario(ScenarioConfig(n_objects=4, n_frames=60, seed=5))
    a = _run(scenario, TrackerConfig(), MemoryPolicy.SPARSE_OFS)
    b = _run(scenario, TrackerConfig(), MemoryPolicy.SPARSE_OFS)
    assert a == b


def test_config_validation():
    with pytest.raises(ValueError):
        TrackerConfig(cost_blend=1.2)
    with pytest.raises(ValueError):
        TrackerConfig(min_score=-0.1)
    with pytest.raises(ValueError):
        TrackerConfig(match_threshold=-1.0)
    with pytest.raises(ValueError, match="match_threshold must be >= 0, got nan"):
        TrackerConfig(match_threshold=math.nan)
    assert TrackerConfig(match_threshold=math.inf).match_threshold == math.inf
    with pytest.raises(ValueError, match="iou_gate must be in"):
        TrackerConfig(iou_gate=1.5)
    with pytest.raises(ValueError):
        TrackerConfig(max_misses=-1)
    with pytest.raises(ValueError):
        Detection(Box2D(0, 0, 1, 1), np.array([1.0, float("nan")]), 1.0)
    with pytest.raises(ValueError):
        Detection(Box2D(0, 0, 1, 1), np.array([1.0, 0.0]), 1.5)
    with pytest.raises(ValueError, match="zero-norm"):
        Detection(Box2D(0, 0, 1, 1), np.zeros(3), 1.0)
    with pytest.raises(ValueError, match=r"embedding must be 1-D, got shape \(1, 2\)"):
        Detection(Box2D(0, 0, 1, 1), np.array([[1.0, 0.0]]), 1.0)


def test_detection_embedding_needs_a_finite_nonzero_squared_norm():
    box = Box2D(0.5, 0.5, 0.1, 0.1)
    for scale in (1e150, 1e-150):
        Detection(box, [scale] * 16, 1.0)
        Detection(box, [scale, -scale], 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        Detection(box, [1.0, math.inf], 1.0)
    with pytest.raises(ValueError, match="zero-norm"):
        Detection(box, [0.0, -0.0], 1.0)
    with pytest.raises(ValueError, match="embedding squared norm overflows to inf"):
        Detection(box, [1e300, -1e300], 1.0)
    with pytest.raises(ValueError, match="embedding squared norm underflows to 0"):
        Detection(box, [1e-300] * 16, 1.0)


def test_extreme_accepted_embeddings_give_finite_distances():
    big, tiny = np.full(16, 1e150), np.full(16, 1e-150)
    d = cosine_distance(np.array([big, tiny]), np.array([big, -big, tiny, -tiny]))
    assert d.tolist() == [[0.0, 2.0, 0.0, 2.0]] * 2


def _emitted_digest(scenario, policy, cfg=None):
    """sha256 over every emitted (frame, id, box fields as float64 bytes)."""
    h = hashlib.sha256()
    for frame_idx, tracks in _run(scenario, cfg or TrackerConfig(), policy):
        for track_id, b in tracks:
            h.update(struct.pack("<2q4d", frame_idx, track_id, b.cx, b.cy, b.w, b.h))
    return h.hexdigest()


# Frozen tracker output: any change to association, lifecycle or memory that
# moves one emitted bit under any policy fails here. A step speed-up must
# keep these digests. On the 8-object scenes some policies emit the same
# output; the 24-object scene tells all five apart. A ``min_score`` in
# ``kw`` is the tracker's: at 0.75 it drops about half of the detections,
# so the step's filtered path is pinned too.
@pytest.mark.parametrize(
    "kw, expected",
    [
        (
            dict(n_objects=8, n_frames=120, seed=1),
            {
                "none": "38638ce85adb8dfe8ad40dcee19dbe2fff3fe3033ac3a7f3c9e2afde8d95f372",
                "sparse": "a6549c45665b4185b70f94558e822ca1a6ce865a1d379af63636b5e11bc2ec28",
                "sparse+ofs": "70213d80f6891b611c611f1b2cd2c75cf52f84e3927416d6869b54fa64823009",
                "dense": "a6549c45665b4185b70f94558e822ca1a6ce865a1d379af63636b5e11bc2ec28",
                "delaying": "70213d80f6891b611c611f1b2cd2c75cf52f84e3927416d6869b54fa64823009",
            },
        ),
        (
            dict(n_objects=24, n_frames=120, seed=2),
            {
                "none": "4e050cb76ad3c66e083094886060e1633c8e2ea21890a8ae1d6059feeddff6b5",
                "sparse": "41955cbec5265ab8b64f90934b8a43857621989608f55ad3afb1a5bc3c74f3c4",
                "sparse+ofs": "c4aac4287108c4d5cfcdb9b9edcfdbc7c0f180cf08f39ff8d473262dba8dcd8a",
                "dense": "5826e7fab6a1eddfdb873f7a579208f266d263f3b05d9717541a3138ad068526",
                "delaying": "a226f35558542d1cc7c7841d88dab0ee52c7f617dfd19de374b5bc8a7d8ee13f",
            },
        ),
        (
            dict(n_objects=8, n_frames=120, embedding_dim=33, seed=7919),
            {
                "none": "964c52946a8d85b57ec16d01f71a80886193717a2d74b6f0bdd40aca4c6e68c4",
                "sparse": "58b7cf795f9782f59dc6992323d1efe0c782dc05d04df24fc7b416ef5351b730",
                "sparse+ofs": "c604f1f92abe3ef7cfc6a0ad7814563606eda073b4f68a4d9acc341c3070ddd4",
                "dense": "964c52946a8d85b57ec16d01f71a80886193717a2d74b6f0bdd40aca4c6e68c4",
                "delaying": "58b7cf795f9782f59dc6992323d1efe0c782dc05d04df24fc7b416ef5351b730",
            },
        ),
        (
            dict(n_objects=8, n_frames=120, seed=1, min_score=0.75),
            {
                "none": "6a5142fe940b61039950c12053576b297d78d8ac69687534b323f8e5c1652794",
                "sparse": "8f6c2692e64c0b447910a8516a011f4e55e1a7d630fc6d67acbb50fcf9744b7d",
                "sparse+ofs": "3acebe66a5f20badfc93aaad0190fa99b7f5b123002777a3f55c0698ed0bf14a",
                "dense": "a6dce505213ba52ba917b8ca3917e272f150e3369d4c76e87d20b8ea3726fb1e",
                "delaying": "8f6c2692e64c0b447910a8516a011f4e55e1a7d630fc6d67acbb50fcf9744b7d",
            },
        ),
        (
            dict(n_objects=24, n_frames=120, seed=2, min_score=0.75),
            {
                "none": "4088a5067a66102484a2f1c277a5dd8e412c7cd0317e9fd5d2d57b10cc2870c5",
                "sparse": "9f7db9ce3271783121d4cb358662df9fb65a1d3a47a8e3096a69a043e1e3f8e3",
                "sparse+ofs": "565ae6127a32d4074c439742cc429548ed1702cf1638879a6485b25d4b4dc6c8",
                "dense": "5c70c998c6662dc2f5a875e4e2c3f63b31009f3c27e2bbb020899a8b3ad68436",
                "delaying": "65cca79c78d51df4c41e07a8c0858167737eee050fbfa7d8c30f7716510888cb",
            },
        ),
    ],
)
def test_tracker_output_digest_is_frozen(kw, expected):
    scene_kw = dict(kw)
    cfg = TrackerConfig(min_score=scene_kw.pop("min_score", TrackerConfig.min_score))
    scenario = generate_scenario(ScenarioConfig(**scene_kw))
    got = {policy.value: _emitted_digest(scenario, policy, cfg) for policy in MemoryPolicy}
    assert got == expected


def test_step_passes_each_detection_its_max_iou_with_the_others(monkeypatch):
    observed = []
    original = TrackMemory.observe

    def recording(self, box, embedding, overlap, frame_idx):
        observed.append((frame_idx, box, overlap))
        return original(self, box, embedding, overlap, frame_idx)

    monkeypatch.setattr(TrackMemory, "observe", recording)
    scenario = generate_scenario(ScenarioConfig(n_objects=24, n_frames=60, seed=3))
    lone = next(d for d in scenario.detections[-1] if d.score >= 0.5)
    # Two extra frames: none while tracks are live, then a lone detection.
    frames = scenario.detections + [[], [lone]]
    tracker = Tracker(TrackerConfig())
    checked = 0
    for frame_idx, detections in enumerate(frames, start=1):
        dets = [d for d in detections if d.score >= tracker.cfg.min_score]
        corners = boxes_to_corners([d.box for d in dets])
        want = max_iou_vs_others(iou_matrix(corners, corners))[0]
        live = len(tracker.tracks)
        del observed[:]
        tracker.step(detections, frame_idx)
        # Every kept detection is observed exactly once: matched or born.
        got = {id(box): overlap for _, box, overlap in observed}
        assert len(got) == len(observed) == len(dets)
        assert all(f == frame_idx for f, _, _ in observed)
        for d, w in zip(dets, want):
            assert got[id(d.box)] == w
        checked += len(dets)
        if frame_idx == len(frames) - 1:
            assert live > 0 and observed == []
    assert checked > 1000
    assert got == {id(lone.box): 0.0}


STEP_SCENES = [
    dict(n_objects=8, n_frames=120, seed=1),
    dict(n_objects=24, n_frames=120, seed=2),
    dict(n_objects=8, n_frames=120, seed=1, min_score=0.75),
    dict(n_objects=24, n_frames=120, seed=2, min_score=0.75),
]


@pytest.mark.parametrize("kw", STEP_SCENES)
def test_step_cost_equals_the_from_scratch_cost(kw, monkeypatch):
    # The step passes the record's areas and norms, and blends the cost in
    # place; every cost matrix of every policy must have the bits of one
    # built from scratch, from the tracks' corners and queries and the kept
    # detections, and of the blend written out as one expression.
    scene_kw = dict(kw)
    cfg = TrackerConfig(min_score=scene_kw.pop("min_score", TrackerConfig.min_score))
    scenario = generate_scenario(ScenarioConfig(**scene_kw))
    real = tracker_mod.build_cost_matrix
    cells = []

    def checked(queries, embeddings, ov, step_cfg, *rest):
        # ``tracker`` and ``frame`` are the loop's below, mid-step.
        got = real(queries, embeddings, ov, step_cfg, *rest)
        kept = frame.scores >= step_cfg.min_score
        scratch_ov = iou_matrix(tracker.corners.copy(), frame.corners[kept])
        assert ov.tobytes() == scratch_ov.tobytes()
        want = real(queries.copy(), frame.embeddings[kept], scratch_ov, step_cfg)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        if got.size:
            lam = step_cfg.cost_blend
            blend = lam * cosine_distance(queries, frame.embeddings[kept]) / 2.0 + (
                (1.0 - lam) * (1.0 - scratch_ov))
            blend[blend > step_cfg.match_threshold] = FORBIDDEN_COST
            assert got.tobytes() == blend.tobytes()
        cells.append(got.size)
        return got

    monkeypatch.setattr(tracker_mod, "build_cost_matrix", checked)
    for policy in MemoryPolicy:
        tracker = Tracker(cfg, policy)
        for frame_idx, frame in enumerate(scenario.detections, start=1):
            tracker.step(frame, frame_idx)
    assert len(cells) == 5 * len(scenario.detections) and sum(cells) > 5000


def test_step_reaches_its_layers_through_the_tracker_module_names(monkeypatch):
    # A per-layer timer wraps these names in sasmot.tracker and the memory's
    # observe and commit_store; a step that bypassed them would hide its time
    # from it, and an inlined commit would read as no commits.
    calls = Counter()
    for name in ("iou_matrix", "build_cost_matrix", "hungarian_assign"):
        def spy(*args, _real=getattr(tracker_mod, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(tracker_mod, name, spy)
    observe = TrackMemory.observe

    commit_store = TrackMemory.commit_store

    def counted(self, *args):
        calls["observe"] += 1
        stored = observe(self, *args)
        calls["stored"] += stored
        return stored

    def committed(self):
        calls["commit_store"] += 1
        return commit_store(self)

    monkeypatch.setattr(TrackMemory, "observe", counted)
    monkeypatch.setattr(TrackMemory, "commit_store", committed)
    scenario = generate_scenario(ScenarioConfig(n_objects=8, n_frames=60, seed=1))
    # And a step without detections.
    frames = scenario.detections + [DetectionFrame.from_detections([])]
    for policy in MemoryPolicy:
        for min_score in (0.5, 0.75):
            tracker = Tracker(TrackerConfig(min_score=min_score), policy)
            commits = 0
            for frame_idx, frame in enumerate(frames, start=1):
                calls.clear()
                emitted = tracker.step(frame, frame_idx).tracks
                # Each emitted track was matched or born, and observed once;
                # each stored feature went through one commit_store.
                stored = calls.pop("stored", 0)
                assert calls == Counter(iou_matrix=1, build_cost_matrix=1, hungarian_assign=1,
                                        observe=len(emitted), commit_store=stored)
                commits += stored
            assert (commits > 0) == (policy is not MemoryPolicy.NONE)

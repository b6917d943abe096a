"""Association behavior: costs, assignment optimality, lifecycle, reductions."""

import hashlib
import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from sasmot.geometry import Box2D, boxes_to_corners, iou, iou_matrix, max_iou_vs_others
from sasmot.memory import MemoryConfig, MemoryPolicy, TrackMemory
from sasmot.rng import SplitMix64
from sasmot.simulator import ScenarioConfig, generate_scenario
from sasmot.tracker import (
    FORBIDDEN_COST,
    Detection,
    Tracker,
    TrackerConfig,
    TrackState,
    build_cost_matrix,
    cosine_distance,
    hungarian_assign,
)


def _det(cx, cy, emb, score=1.0, w=0.1, h=0.1):
    return Detection(Box2D(cx, cy, w, h), np.asarray(emb, dtype=float), score)


E1 = [1.0, 0.0, 0.0]
E2 = [0.0, 1.0, 0.0]
E3 = [0.0, 0.0, 1.0]


def _cost(tracks, dets, cfg):
    ious = iou_matrix(
        boxes_to_corners([t.last_box for t in tracks]), boxes_to_corners([d.box for d in dets])
    )
    return build_cost_matrix(tracks, dets, ious, cfg)


def test_cosine_distance_analytic():
    d = cosine_distance([[1, 0], [2, 0]], [[1, 0], [0, 1], [-1, 0], [5, 0], [1, 1]])
    assert d.shape == (2, 5)
    for row in d:  # the second row checks scale invariance
        assert row[:4].tolist() == [0.0, 1.0, 2.0, 0.0]
        assert math.isclose(row[4], 1.0 - math.sqrt(0.5), rel_tol=1e-12)


def test_cosine_distance_rejects_zero_norm_and_mismatch():
    with pytest.raises(ValueError):
        cosine_distance([[0.0, 0.0]], [[1.0, 0.0]])
    with pytest.raises(ValueError):
        cosine_distance([[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]])
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
    states = [
        TrackState(k, np.array(e), TrackMemory(cfg.memory), box)
        for k, (e, box) in enumerate(tracks)
    ]
    detections = [Detection(box, np.array(e), 1.0) for e, box in dets]
    cost = _cost(states, detections, cfg)
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


def test_cost_matrix_rejects_embedding_size_mismatch():
    tracker = Tracker()
    tracker.step([_det(0.5, 0.5, E1)], 1)
    with pytest.raises(ValueError, match="dimension mismatch"):
        _cost(tracker.tracks, [_det(0.5, 0.5, [1.0, 0.0])], tracker.cfg)
    assert _cost([], [_det(0.5, 0.5, [1.0, 0.0])], tracker.cfg).shape == (0, 1)


def test_cost_blend_formula():
    # Same box (IoU 1) with a 45-degree appearance angle isolates the
    # appearance term: 0.7 * (1 - cos45) / 2.
    tracker = Tracker(TrackerConfig())
    tracker.step([_det(0.5, 0.5, E1)], 1)
    track = tracker.tracks[0]
    det = _det(0.5, 0.5, [1.0, 1.0, 0.0])
    cost = _cost([track], [det], tracker.cfg)
    expected = 0.7 * (1.0 - math.sqrt(0.5)) / 2.0
    assert cost[0, 0] == pytest.approx(expected, rel=1e-12)


def test_orthogonal_disjoint_pair_is_forbidden():
    # Appearance 0.7 * 1/2 = 0.35 plus spatial 0.3 * 1 = 0.65 > 0.4.
    tracker = Tracker(TrackerConfig())
    tracker.step([_det(0.1, 0.1, E1)], 1)
    det = _det(0.9, 0.9, E2)
    cost = _cost(tracker.tracks, [det], tracker.cfg)
    assert cost[0, 0] == FORBIDDEN_COST


def test_iou_gate_forbids_non_overlapping():
    cfg = TrackerConfig(iou_gate=0.5, match_threshold=2.0)
    tracker = Tracker(cfg)
    tracker.step([_det(0.1, 0.1, E1)], 1)
    near = _det(0.11, 0.1, E1)  # IoU well above 0.5
    far = _det(0.3, 0.1, E1)  # disjoint
    cost = _cost(tracker.tracks, [near, far], cfg)
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
        got = hungarian_assign(cost)
        assert got == hungarian_assign_reference(cost)
        assert all(type(i) is int for pair in got for i in pair)


def test_hungarian_empty_and_forbidden():
    assert hungarian_assign(np.zeros((0, 3))) == []
    assert hungarian_assign(np.zeros((3, 0))) == []
    cost = np.array([[FORBIDDEN_COST, 0.2], [0.1, FORBIDDEN_COST]])
    assert hungarian_assign(cost) == [(0, 1), (1, 0)]
    all_bad = np.full((2, 2), FORBIDDEN_COST)
    assert hungarian_assign(all_bad) == []


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
    assert np.array_equal(tracker.tracks[0].query, det.embedding)


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
    with pytest.raises(ValueError, match=r"frame 2: detection 0 has embedding size 4"):
        tracker.step([_det(0.8, 0.5, [0.0, 0.0, 0.0, 1.0])], 2)


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
    for frame_idx, dets in enumerate(scenario.detections, start=1):
        live_before = {t.track_id for t in tracker.tracks}
        result = tracker.step(dets, frame_idx)
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
    with pytest.raises(ValueError, match="all zeros"):
        Detection(Box2D(0, 0, 1, 1), np.zeros(3), 1.0)
    with pytest.raises(ValueError, match=r"embedding must be 1-D, got shape \(1, 2\)"):
        Detection(Box2D(0, 0, 1, 1), np.array([[1.0, 0.0]]), 1.0)


def _emitted_digest(scenario, policy):
    """sha256 over every emitted (frame, id, box fields as float64 bytes)."""
    h = hashlib.sha256()
    for frame_idx, tracks in _run(scenario, TrackerConfig(), policy):
        for track_id, b in tracks:
            h.update(struct.pack("<2q4d", frame_idx, track_id, b.cx, b.cy, b.w, b.h))
    return h.hexdigest()


# Frozen tracker output: any change to association, lifecycle or memory that
# moves one emitted bit under any policy fails here. A step speed-up must
# keep these digests. On the 8-object scenes some policies emit the same
# output; the 24-object scene tells all five apart.
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
    ],
)
def test_tracker_output_digest_is_frozen(kw, expected):
    scenario = generate_scenario(ScenarioConfig(**kw))
    got = {policy.value: _emitted_digest(scenario, policy) for policy in MemoryPolicy}
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
        want = max_iou_vs_others(boxes_to_corners([d.box for d in dets]))[0]
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

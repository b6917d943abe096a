"""Scenario generator: determinism, motion bounds, appearance coupling."""

import hashlib
import math
import struct
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sasmot import simulator
from sasmot.geometry import Box2D, boxes_to_corners, iou, iou_matrix, max_iou_vs_others
from sasmot.simulator import (
    ScenarioConfig,
    _embeddings,
    _occluders,
    _orthonormal_plane,
    generate_scenario,
)
from sasmot.tracker import DetectionFrame


def _angle(a, b):
    return math.acos(min(1.0, max(-1.0, float(np.dot(a, b)))))


def _quiet(**kw):
    """Config with every stochastic observation effect switched off."""
    base = dict(
        n_objects=2,
        n_frames=40,
        embedding_dim=8,
        rotation_event_prob=0.0,
        noise_sigma=0.0,
        miss_prob_base=0.0,
        miss_prob_occluded=0.0,
        box_jitter=0.0,
        size_jitter=0.0,
        seed=4,
    )
    base.update(kw)
    return ScenarioConfig(**base)


def test_identical_configs_generate_identical_scenarios():
    a = generate_scenario(ScenarioConfig(n_objects=5, n_frames=60, seed=12))
    b = generate_scenario(ScenarioConfig(n_objects=5, n_frames=60, seed=12))
    assert len(a.gt) == len(b.gt) == 60
    for fa, fb in zip(a.gt, b.gt):
        assert fa == fb
    for da, db in zip(a.detections, b.detections):
        assert len(da) == len(db)
        for x, y in zip(da, db):
            assert x.box == y.box
            assert x.score == y.score
            assert np.array_equal(x.embedding, y.embedding)
    for pa, pb in zip(a.true_appearance, b.true_appearance):
        for x, y in zip(pa, pb):
            assert np.array_equal(x, y)


def _scenario_digest(scenario):
    """sha256 over every gt box, detection box, score and embedding, and appearance."""
    h = hashlib.sha256()
    for frame in scenario.gt:
        for obj_id, b in frame:
            h.update(struct.pack("<q4d", obj_id, b.cx, b.cy, b.w, b.h))
    for dets in scenario.detections:
        for d in dets:
            b = d.box
            h.update(struct.pack("<5d", b.cx, b.cy, b.w, b.h, d.score))
            h.update(d.embedding.tobytes())
    for apps in scenario.true_appearance:
        for app in apps:
            h.update(app.tobytes())
    return h.hexdigest()


# Frozen scenes: any change to the generator or its random stream that moves
# one bit of one scene fails here. A speed-up must keep these digests.
@pytest.mark.parametrize(
    "kw, expected",
    [
        (
            dict(n_objects=8, n_frames=60, seed=1),
            "740f00bd73f19b438898429edd84cd6363fb4995265419fa5591a8401962ba5e",
        ),
        (
            dict(n_objects=24, n_frames=60, seed=1),
            "10fd257438f341eeae9b4ed8962df7b46dbd7c089f9c8ae390a2a202043a27c6",
        ),
        (
            dict(n_objects=1, n_frames=200, seed=3),
            "151e3535daab963f8ef8f7fcbaa6f313dfc7ed828190da6c9c75966f9cd40d54",
        ),
        (
            dict(n_objects=8, n_frames=60, embedding_dim=2, seed=5),
            "adb1408031e260335acf1de455b3d938fbf1b911d8e3ff5c17e4e501bf2db0c5",
        ),
        (
            dict(n_objects=8, n_frames=60, embedding_dim=33, seed=7919),
            "c6aee0699f667893ef47ada513a0dc9bca2a041f5e3980994e7674ffe3d3b511",
        ),
        # Large boxes at full blend: many occluders and zero-overlap rows in
        # one frame, so the occluder term is added to some rows only.
        (
            dict(n_objects=24, n_frames=60, size_min=0.3, size_max=0.45,
                 occlusion_blend=1.0, seed=11),
            "465ae69c6c5aa9e9993451bc83a53908bf849a8481a103ae873756ab6e845b15",
        ),
        # An odd D puts the rows of a frame's embedding block off 16-byte
        # boundaries.
        (
            dict(n_objects=24, n_frames=60, embedding_dim=33, seed=7919),
            "c189a17c0f3e373b012bfc50ef0e78e34689f1e7a922006b340995864af39da5",
        ),
        # The edges of the 32-frame array pass: a one-frame scene, three full
        # blocks plus one frame, and blocks that keep no detection at all.
        (
            dict(n_objects=5, n_frames=1, seed=8),
            "84d0c293a4dcac674411553fb0098f2c62f062d09071404a7f8fbb65962f68b2",
        ),
        (
            dict(n_objects=5, n_frames=97, seed=8),
            "00f8fa572c36e01b3fc12363f23fdfda199be537f52a2d74ccc8701225856586",
        ),
        (
            dict(n_objects=6, n_frames=70, miss_prob_base=1.0, miss_prob_occluded=1.0, seed=2),
            "3dfd4d6546e016c3fe5efb8c4bbea441fa88f36f902cb3625256fdc1565bfef5",
        ),
    ],
)
def test_scenario_digest_is_frozen(kw, expected):
    assert _scenario_digest(generate_scenario(ScenarioConfig(**kw))) == expected


@pytest.mark.parametrize(
    "kw",
    [
        dict(n_objects=8, n_frames=60, seed=1),
        dict(n_objects=24, n_frames=60, size_min=0.3, size_max=0.45,
             occlusion_blend=1.0, seed=11),
    ],
)
def test_scene_does_not_depend_on_the_block_size(kw, monkeypatch):
    cfg = ScenarioConfig(**kw)
    default = _scenario_digest(generate_scenario(cfg))
    for block in (1, 7, cfg.n_frames + 5):
        monkeypatch.setattr(simulator, "_BLOCK", block)
        scenario = generate_scenario(cfg)
        assert _scenario_digest(scenario) == default, block
        # The embeddings of a block are row views of one array: the first
        # block's array has a row per detection of its frames.
        first_block = scenario.detections[: min(block, cfg.n_frames)]
        assert len(first_block[0][0].embedding.base) == sum(map(len, first_block)), block


# The configs of the frozen scenes above: D = 2 to 33, 1 to 200 frames,
# blocks that keep no detection, and many overlaps at full blend.
RECORD_SCENES = [
    dict(n_objects=8, n_frames=60, seed=1),
    dict(n_objects=24, n_frames=60, seed=1),
    dict(n_objects=1, n_frames=200, seed=3),
    dict(n_objects=8, n_frames=60, embedding_dim=2, seed=5),
    dict(n_objects=8, n_frames=60, embedding_dim=33, seed=7919),
    dict(n_objects=24, n_frames=60, size_min=0.3, size_max=0.45, occlusion_blend=1.0, seed=11),
    dict(n_objects=24, n_frames=60, embedding_dim=33, seed=7919),
    dict(n_objects=5, n_frames=1, seed=8),
    dict(n_objects=5, n_frames=97, seed=8),
    dict(n_objects=6, n_frames=70, miss_prob_base=1.0, miss_prob_occluded=1.0, seed=2),
]


def assert_records_are_one_frame_records(frames):
    """Each record equals the public constructor's record of its detections,
    byte for byte, so a block-wide area or norm has a one-frame pass's bits,
    and its lowest score is its scores' least; returns how many detections
    overlap another."""
    overlapping = 0
    for frame in frames:
        want = DetectionFrame.from_detections(list(frame))
        assert frame.detections == want.detections
        for name in ("corners", "embeddings", "scores", "overlaps", "areas", "norms"):
            got, ref = getattr(frame, name), getattr(want, name)
            assert got.dtype == ref.dtype == np.float64, name
            assert len(got) == len(ref) == len(frame) and got.tobytes() == ref.tobytes(), name
        assert frame.lowest_score == want.lowest_score == frame.scores.min(initial=math.inf)
        overlapping += int(np.count_nonzero(frame.overlaps))
    return overlapping


@pytest.mark.parametrize("kw", RECORD_SCENES)
def test_block_records_equal_one_frame_records(kw, monkeypatch):
    cfg = ScenarioConfig(**kw)
    overlapping = assert_records_are_one_frame_records(generate_scenario(cfg).detections)
    # Scenes of 8 or more objects have overlaps, so padding is exercised.
    assert overlapping > 0 or cfg.n_objects < 8
    for block in (1, 7, cfg.n_frames + 5):
        monkeypatch.setattr(simulator, "_BLOCK", block)
        assert_records_are_one_frame_records(generate_scenario(cfg).detections)


def test_different_seeds_differ():
    a = generate_scenario(ScenarioConfig(n_objects=3, n_frames=10, seed=1))
    b = generate_scenario(ScenarioConfig(n_objects=3, n_frames=10, seed=2))
    assert any(fa != fb for fa, fb in zip(a.gt, b.gt))


def test_ground_truth_boxes_stay_inside_unit_square():
    scenario = generate_scenario(ScenarioConfig(n_objects=8, n_frames=300, seed=7))
    for frame in scenario.gt:
        for _, box in frame:
            left, top, right, bottom = box.corners()
            assert left >= -1e-12 and top >= -1e-12
            assert right <= 1.0 + 1e-12 and bottom <= 1.0 + 1e-12


def test_ground_truth_ids_are_stable_one_based():
    scenario = generate_scenario(ScenarioConfig(n_objects=4, n_frames=20, seed=3))
    for frame in scenario.gt:
        assert [obj_id for obj_id, _ in frame] == [1, 2, 3, 4]


def test_zero_drift_keeps_appearance_constant():
    scenario = generate_scenario(_quiet(drift_rate=0.0))
    first = scenario.true_appearance[0]
    for frame in scenario.true_appearance[1:]:
        for i, app in enumerate(frame):
            assert np.allclose(app, first[i], atol=1e-12)


def test_zero_drift_zero_noise_detections_equal_true_appearance():
    scenario = generate_scenario(_quiet(drift_rate=0.0, occlusion_blend=0.0))
    for frame_idx, dets in enumerate(scenario.detections):
        assert len(dets) == 2
        for i, det in enumerate(dets):
            assert np.allclose(det.embedding, scenario.true_appearance[frame_idx][i], atol=1e-12)


def test_appearance_angle_tracks_displacement():
    # With events and noise off, the angle between consecutive true
    # appearances must equal drift_rate times realized center travel.
    cfg = _quiet(drift_rate=math.pi, n_frames=120, speed=0.03)
    scenario = generate_scenario(cfg)
    for t in range(1, len(scenario.gt)):
        for i in range(cfg.n_objects):
            prev_box = scenario.gt[t - 1][i][1]
            cur_box = scenario.gt[t][i][1]
            disp = math.hypot(cur_box.cx - prev_box.cx, cur_box.cy - prev_box.cy)
            ang = _angle(scenario.true_appearance[t - 1][i], scenario.true_appearance[t][i])
            assert abs(ang - math.pi * disp) < 1e-9


def test_tenth_pi_rotation_per_frame_at_speed_point_one():
    # speed 0.1 with drift pi radians per unit travel rotates appearance
    # by 0.1*pi per unreflected step.
    cfg = _quiet(drift_rate=math.pi, speed=0.1, n_frames=80, turn_prob=0.0)
    scenario = generate_scenario(cfg)
    checked = 0
    for t in range(1, len(scenario.gt)):
        for i in range(cfg.n_objects):
            prev_box = scenario.gt[t - 1][i][1]
            cur_box = scenario.gt[t][i][1]
            disp = math.hypot(cur_box.cx - prev_box.cx, cur_box.cy - prev_box.cy)
            if abs(disp - 0.1) < 1e-12:  # skip border reflections
                ang = _angle(scenario.true_appearance[t - 1][i], scenario.true_appearance[t][i])
                assert abs(ang - 0.1 * math.pi) < 1e-9
                checked += 1
    assert checked > 50


def test_rotation_events_jump_by_magnitude():
    cfg = _quiet(
        n_objects=1,
        drift_rate=0.0,
        rotation_event_prob=1.0,
        rotation_magnitude=1.0,
        speed=1e-4,
        turn_prob=0.0,
        n_frames=30,
    )
    scenario = generate_scenario(cfg)
    for t in range(1, len(scenario.true_appearance)):
        ang = _angle(scenario.true_appearance[t - 1][0], scenario.true_appearance[t][0])
        assert abs(ang - 1.0) < 1e-9


def test_orthonormal_plane_redraws_degenerate_blocks():
    x, y = [0.1, 0.2, 0.3], [0.0, 1.0, 0.0]
    # A zero block has no direction; 2x leaves about 1e-16 once u is projected out.
    blocks = iter([[0.0, 0.0, 0.0], x, [2.0 * c for c in x], y])

    class Stub:
        def gauss_block(self, n):
            return next(blocks)

    u, v = _orthonormal_plane(Stub(), 3)
    assert next(blocks, None) is None  # all four blocks drawn, and no fifth
    assert np.allclose(u, np.array(x) / np.linalg.norm(x), rtol=0.0, atol=1e-15)
    assert abs(float(np.dot(u, v))) < 1e-15
    assert abs(float(np.linalg.norm(u)) - 1.0) < 1e-15
    assert abs(float(np.linalg.norm(v)) - 1.0) < 1e-15


def test_embedding_block_equals_the_per_row_formula():
    # Rows come from two frames of one block, each with occluders. In frame
    # 0, object 0 has no occluder and a -0.0 that adding 0 * app would turn
    # into 0.0, and objects 1 and 2 cancel to a zero mix and take the true
    # appearance. In frame 1 each occluder's appearance differs from that of
    # the same object in frame 0.
    cfg = ScenarioConfig(noise_sigma=0.0, occlusion_blend=1.0)
    apps = np.array([
        [[-0.0, 0.6, 0.8], [0.0, 0.6, 0.8], [-0.0, -0.6, -0.8], [0.6, 0.8, 0.0]],
        [[0.8, 0.0, 0.6], [0.0, 1.0, 0.0], [0.6, 0.0, -0.8], [-0.0, -0.8, 0.6]],
    ])
    best = np.array([[0.0, 0.5, 0.5, 0.25], [0.2, 0.0, 0.2, 0.75]])
    who = np.array([[-1, 2, 1, 0], [2, -1, 0, 0]])
    frame = np.array([0, 0, 0, 1, 1, 1])
    obj = np.array([0, 1, 3, 0, 1, 3])
    noise = -np.ones((len(frame), 3))
    block = _embeddings(cfg, apps, best, who, frame, obj, noise)
    for r, (f, i) in enumerate(zip(frame, obj)):
        w = cfg.occlusion_blend * best[f, i]
        mix = (1.0 - w) * apps[f, i] + cfg.noise_sigma * noise[r]
        if who[f, i] >= 0:
            mix = mix + w * apps[f, who[f, i]]
        norm = float(np.linalg.norm(mix))
        expected = apps[f, i] if norm < 1e-12 else mix / norm
        assert block[r].tobytes() == expected.tobytes(), r
    assert math.copysign(1.0, block[0, 0]) == -1.0
    assert block[1].tobytes() == apps[0, 1].tobytes()  # the zero mix


def _frame_occluders(group):
    """``_occluders`` of one frame's boxes, with the overlaps it starts from."""
    corners = boxes_to_corners(group)
    best, ious = max_iou_vs_others(iou_matrix(corners, corners))
    return best, ious, _occluders(best, ious)


def test_occluder_is_the_largest_overlap():
    group = [
        Box2D(0.0, 0.0, 1.0, 1.0),
        Box2D(0.5, 0.0, 1.0, 1.0),  # iou 1/3 with first
        Box2D(0.9, 0.0, 1.0, 1.0),  # iou 1/19 with first
        Box2D(5.0, 5.0, 1.0, 1.0),  # disjoint
    ]
    best, _, who = _frame_occluders(group)
    assert who.tolist() == [1, 2, 1, -1]
    assert math.isclose(best[0], 1.0 / 3.0, abs_tol=1e-12) and best[3] == 0.0
    best, _, who = _frame_occluders([Box2D(0.5, 0.5, 0.1, 0.1)])
    assert best.tolist() == [0.0] and who.tolist() == [-1]


def test_occluders_of_a_stack_of_frames():
    frames = [
        # Largest overlap: 1/3 beats 1/19, and 3/7 beats 1/3.
        [Box2D(0.0, 0.0, 1.0, 1.0), Box2D(0.5, 0.0, 1.0, 1.0), Box2D(0.9, 0.0, 1.0, 1.0)],
        # A tie: the first box overlaps both others by exactly 1/3; they touch.
        [Box2D(0.0, 0.0, 1.0, 1.0), Box2D(-0.5, 0.0, 1.0, 1.0), Box2D(0.5, 0.0, 1.0, 1.0)],
        # Each box alone.
        [Box2D(0.0, 0.0, 1.0, 1.0), Box2D(5.0, 5.0, 1.0, 1.0), Box2D(-5.0, 5.0, 1.0, 1.0)],
    ]
    best, ious, _ = zip(*map(_frame_occluders, frames))
    who = _occluders(np.stack(best), np.stack(ious))
    assert who.tolist() == [[1, 2, 1], [1, 0, 0], [-1, -1, -1]]


# Centers on a coarse grid with a few sizes, so equal overlaps (ties) and
# disjoint boxes come up often, plus boxes anywhere.
grid_boxes = st.builds(
    Box2D,
    cx=st.integers(0, 6).map(lambda k: k / 4),
    cy=st.integers(0, 2).map(lambda k: k / 4),
    w=st.sampled_from([0.5, 1.0]),
    h=st.sampled_from([0.5, 1.0]),
)
any_boxes = st.builds(
    Box2D,
    cx=st.floats(-100.0, 100.0),
    cy=st.floats(-100.0, 100.0),
    w=st.floats(1e-3, 50.0),
    h=st.floats(1e-3, 50.0),
)


# One to four frames of equally many boxes, as in one block of a scene.
box_stacks = st.integers(1, 8).flatmap(
    lambda n: st.lists(
        st.lists(st.one_of(grid_boxes, any_boxes), min_size=n, max_size=n),
        min_size=1,
        max_size=4,
    )
)


@given(box_stacks)
def test_occluders_match_scalar_scan(frames):
    best, ious, _ = zip(*map(_frame_occluders, frames))
    best = np.stack(best)
    who = _occluders(best, np.stack(ious))
    for f, group in enumerate(frames):
        for i, a in enumerate(group):
            want, want_who = 0.0, -1
            for j, b in enumerate(group):
                if j != i and iou(a, b) > want:  # strict: the first index wins ties
                    want, want_who = iou(a, b), j
            assert best[f, i] == want
            assert who[f, i] == want_who


def test_detection_embeddings_are_unit_norm():
    scenario = generate_scenario(ScenarioConfig(n_objects=6, n_frames=60, seed=21))
    for dets in scenario.detections:
        for det in dets:
            assert abs(float(np.linalg.norm(det.embedding)) - 1.0) < 1e-9


def test_detection_scores_in_upper_half():
    scenario = generate_scenario(ScenarioConfig(n_objects=6, n_frames=60, seed=22))
    for dets in scenario.detections:
        for det in dets:
            assert 0.5 <= det.score < 1.0


def test_miss_rate_matches_probability():
    cfg = ScenarioConfig(
        n_objects=1, n_frames=10_000, miss_prob_base=0.2, miss_prob_occluded=0.2, seed=33
    )
    scenario = generate_scenario(cfg)
    observed = sum(len(d) for d in scenario.detections)
    rate = 1.0 - observed / cfg.n_frames
    assert abs(rate - 0.2) < 0.02


def test_true_appearance_is_recorded_per_object():
    scenario = generate_scenario(ScenarioConfig(n_objects=3, n_frames=5, seed=2))
    assert scenario.true_appearance.shape == (5, 3, 16)
    for frame in scenario.true_appearance:
        assert len(frame) == 3
        for app in frame:
            assert abs(float(np.linalg.norm(app)) - 1.0) < 1e-12


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(n_objects=0)
    with pytest.raises(ValueError, match="n_frames must be >= 1, got 0"):
        ScenarioConfig(n_frames=0)
    for name in ("drift_rate", "noise_sigma", "box_jitter", "size_jitter"):
        for bad in (-0.1, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite and >= 0, got {bad}"):
                ScenarioConfig(**{name: bad})
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"rotation_magnitude must be finite, got {bad}"):
            ScenarioConfig(rotation_magnitude=bad)
    with pytest.raises(ValueError):
        ScenarioConfig(embedding_dim=1)
    with pytest.raises(ValueError):
        ScenarioConfig(rotation_event_prob=1.5)
    with pytest.raises(ValueError):
        ScenarioConfig(size_min=0.3, size_max=0.2)
    with pytest.raises(ValueError):
        ScenarioConfig(speed=0.0)


def test_jitter_and_noise_that_would_overflow_are_config_errors():
    # The largest variate box_muller returns is sqrt(-2 ln 2**-64): a
    # size_jitter above log(max double) / 9.419... could overflow exp, and
    # a noise_sigma that could overflow an embedding's squared norm would
    # zero its row. Both are refused before any frame is generated.
    with pytest.raises(ValueError, match=r"size_jitter must be at most 75\.354\d*, got 1000"):
        ScenarioConfig(size_jitter=1000, n_frames=40)
    with pytest.raises(ValueError, match=r"noise_sigma must be at most .* for embedding_dim 16"):
        ScenarioConfig(noise_sigma=1e160, n_frames=40)
    # The bounds sit at the edge: just inside them the config is accepted
    # and a scene generates or fails with a box error, never an overflow.
    limit = math.log(sys.float_info.max) / math.sqrt(-2.0 * math.log(2.0**-64))
    try:
        generate_scenario(ScenarioConfig(size_jitter=limit * (1 - 1e-15), n_frames=4))
    except ValueError as exc:  # such sizes collapse; an OverflowError would propagate
        assert str(exc).startswith("box ")
    with pytest.raises(ValueError):
        ScenarioConfig(size_jitter=limit * (1 + 1e-15))
    for dim in (2, 16, 1000):
        root = math.sqrt(sys.float_info.max / dim) / 2.0
        top = (root - 1.0) / math.sqrt(-2.0 * math.log(2.0**-64))
        cfg = ScenarioConfig(noise_sigma=top * (1 - 1e-12), embedding_dim=dim, n_objects=3,
                             n_frames=4)
        with np.errstate(all="raise"):
            scenario = generate_scenario(cfg)
        for frame in scenario.detections:
            assert np.all(np.isfinite(frame.norms)) and np.all(frame.norms > 0.0)
        with pytest.raises(ValueError, match="noise_sigma must be at most"):
            ScenarioConfig(noise_sigma=top * (1 + 1e-12), embedding_dim=dim)


def test_first_bad_box_raises_the_box_error_of_the_per_frame_check():
    # Boxes one subnormal wide collapse: the block's mask fails, and its
    # boxes are built through Box2D in frame order, so the error is the
    # first gt box's, as when every box was checked as it was built.
    with pytest.raises(ValueError) as exc:
        generate_scenario(ScenarioConfig(size_min=1e-320, size_max=1e-320, n_frames=40))
    assert str(exc.value) == ("box corners collapse: cx=0.9710027535867963, "
                              "cy=0.4443592170557721, w=1e-320, h=1e-320")
    # A detection box that collapses: its block's gt boxes pass, its own fail.
    with pytest.raises(ValueError) as exc:
        generate_scenario(ScenarioConfig(size_jitter=60, n_frames=40))
    assert str(exc.value) == ("box corners collapse: cx=0.9007451790713052, "
                              "cy=0.4517094757351376, w=5.231107157208514e+89, "
                              "h=1.76872253931876e-52")


EDGE_SCENES = [
    dict(size_jitter=60, n_frames=40),
    dict(size_jitter=30, n_frames=64, seed=3),
    dict(size_jitter=20, box_jitter=1e300, n_frames=40),
    dict(size_min=1e-17, size_max=1e-17, n_frames=70, seed=2),
    dict(size_min=1e-170, size_max=2e-170, n_frames=40),
    dict(size_min=1e-15, size_max=1e-15, n_frames=40, seed=5),
    dict(size_jitter=2.0, n_frames=70, seed=9),
    dict(n_objects=3, n_frames=40, seed=4),
]


@pytest.mark.parametrize("kw", EDGE_SCENES)
def test_block_masks_accept_exactly_the_boxes_box2d_accepts(kw, monkeypatch):
    # With every box built through Box2D's check, each scene generates the
    # same bytes or fails with the same first error.
    def outcome():
        try:
            return _scenario_digest(generate_scenario(ScenarioConfig(**kw)))
        except ValueError as exc:
            return str(exc)

    fast = outcome()
    monkeypatch.setattr(simulator, "_box", Box2D)
    assert outcome() == fast


def test_scene_memory_per_object_frame():
    # Slotted boxes, detections and frame records, one appearance array per
    # scene and one embedding array per block: about 815 traced bytes per
    # object-frame (Python 3.11, numpy 2.4), 65 of them the frame records'
    # arrays. A dict per record and an array per vector cost about 240 more.
    cfg = ScenarioConfig(n_objects=24, n_frames=100, seed=1)
    tracemalloc.start()
    try:
        scenario = generate_scenario(cfg)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(scenario.gt) == cfg.n_frames
    assert held / (cfg.n_objects * cfg.n_frames) <= 850


def test_scene_transient_memory_is_bounded_by_the_block():
    # The array pass runs per block of 32 frames, so its transient arrays do
    # not grow with the scene: about 1.6 MB above the held scene here
    # (Python 3.11, numpy 2.4), against 6.7 MB for one pass over all frames.
    cfg = ScenarioConfig(n_objects=24, n_frames=200, seed=1)
    tracemalloc.start()
    try:
        scenario = generate_scenario(cfg)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(scenario.gt) == cfg.n_frames
    assert peak - held <= 2_000_000

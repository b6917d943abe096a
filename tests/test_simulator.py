"""Scenario generator: determinism, motion bounds, appearance coupling."""

import math

import numpy as np
import pytest

from sasmot.simulator import ScenarioConfig, generate_scenario


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
    assert len(scenario.true_appearance) == 5
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

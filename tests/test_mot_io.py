"""File formats: MOT rows, embedding sidecars, flat config files."""

import math

import numpy as np
import pytest

from sasmot.geometry import Box2D
from sasmot.memory import MemoryPolicy
from sasmot.mot_io import (
    RunConfig,
    apply_flat_config,
    detections_from_files,
    frames_to_id_boxes,
    parse_flat_config,
    parse_image_size,
    parse_mot_file,
    parse_mot_text,
    read_embeddings_csv,
    results_to_rows,
    write_embeddings_csv,
    write_mot_file,
    write_scenario,
)
from sasmot.simulator import ScenarioConfig, generate_scenario
from sasmot.tracker import FrameResult


def test_parse_row_normalizes_by_image_size():
    text = "1,2,100,200,50,80,1,-1,-1,-1\n"
    frames, _ = parse_mot_text(text, image_size=(1000, 1000))
    assert len(frames) == 1 and len(frames[0]) == 1
    track_id, box, conf = frames[0][0]
    assert (track_id, conf) == (2, 1.0)
    assert box.cx == pytest.approx(0.125)
    assert box.cy == pytest.approx(0.24)
    assert box.w == pytest.approx(0.05)
    assert box.h == pytest.approx(0.08)


def test_header_supplies_image_size():
    text = "# image_size=1920x1080\n1,1,0,0,192,108,0.9,-1,-1,-1\n"
    frames, image_size = parse_mot_text(text)
    assert image_size == (1920, 1080)
    _, box, _ = frames[0][0]
    assert box.w == pytest.approx(0.1)
    assert box.h == pytest.approx(0.1)


def test_explicit_image_size_overrides_header():
    text = "# image_size=100x100\n1,1,0,0,10,10,1,-1,-1,-1\n"
    frames, image_size = parse_mot_text(text, image_size=(200, 200))
    assert image_size == (200, 200)
    assert frames[0][0][1] == Box2D(0.025, 0.025, 0.05, 0.05)


def test_missing_image_size_is_an_error():
    with pytest.raises(ValueError, match="image size"):
        parse_mot_text("1,1,0,0,10,10,1,-1,-1,-1\n")


def test_malformed_line_reports_line_number():
    text = "# image_size=100x100\n1,1,0,0,10,10,1,-1,-1,-1\n1,2,junk\n"
    with pytest.raises(ValueError, match="line 3"):
        parse_mot_text(text)
    for header in ("# image_size", "# image_size=axb"):
        text = f"1,1,0,0,10,10,1,-1,-1,-1\n{header}\n"
        with pytest.raises(ValueError, match="line 2: image size must look like 1920x1080"):
            parse_mot_text(text)


def test_nine_field_rows_parse_like_ten_field_rows(tmp_path):
    # MOT17/DanceTrack gt rows end in conf,class,visibility.
    scenario = generate_scenario(ScenarioConfig(n_objects=3, n_frames=8, seed=2))
    write_scenario(scenario, tmp_path, (1920, 1080))
    ten = (tmp_path / "gt.txt").read_text().splitlines()
    nine = [
        line if line.startswith("#") else ",".join(line.split(",")[:7] + ["1", "0.83"])
        for line in ten
    ]
    (tmp_path / "gt9.txt").write_text("\n".join(nine) + "\n")
    want = parse_mot_file(tmp_path / "gt.txt")
    got = parse_mot_file(tmp_path / "gt9.txt")
    assert len(nine[1].split(",")) == 9
    assert got == want and len(want[0]) == 8
    for fields in (8, 11):
        bad = list(nine)
        bad[2] = ",".join((bad[2].split(",") + ["0", "0"])[:fields])
        (tmp_path / "bad.txt").write_text("\n".join(bad) + "\n")
        with pytest.raises(ValueError, match=f"bad.txt: line 3: expected 9 or 10 fields, got {fields}"):
            parse_mot_file(tmp_path / "bad.txt")


def test_non_numeric_field_reports_line_number():
    text = "1,1,0,0,ten,10,1,-1,-1,-1\n"
    with pytest.raises(ValueError, match="line 1"):
        parse_mot_text(text, image_size=(100, 100))
    with pytest.raises(ValueError, match="line 2: frame must be >= 1, got 0"):
        parse_mot_text("1,1,0,0,10,10,1,-1,-1,-1\n0,1,0,0,10,10,1,-1,-1,-1\n", (100, 100))


def test_non_positive_size_rejected():
    with pytest.raises(ValueError, match="width"):
        parse_mot_text("1,1,0,0,0,10,1,-1,-1,-1\n", image_size=(100, 100))
    with pytest.raises(ValueError, match="line 1"):
        parse_mot_text("1,1,0,0,5,-2,1,-1,-1,-1\n", image_size=(100, 100))
    # Finite pixels whose normalized box is not: the width underflows to 0.
    with pytest.raises(ValueError, match="line 2: non-positive box size"):
        parse_mot_text("\n1,1,0,0,5e-324,10,1,-1,-1,-1\n", image_size=(100, 100))


def test_parse_image_size():
    assert parse_image_size("1920x1080") == (1920, 1080)
    assert parse_image_size("640X480") == (640, 480)
    with pytest.raises(ValueError):
        parse_image_size("1920")
    with pytest.raises(ValueError):
        parse_image_size("0x100")
    with pytest.raises(ValueError):
        parse_image_size("axb")


def test_write_then_parse_round_trip(tmp_path):
    rows = [
        (2, 1, 10.5, 20.25, 30.125, 40.0625, 0.875),
        (1, 3, 1.0, 2.0, 3.0, 4.0, 1.0),
        (1, 1, 5.0, 6.0, 7.0, 8.0, 0.5),
    ]
    path = tmp_path / "out.txt"
    write_mot_file(path, rows, (640, 480))
    text = path.read_text()
    assert text.startswith("# image_size=640x480\n")
    # Sorted by (frame, id) and padded with the conventional -1 triple.
    assert text.splitlines()[1].startswith("1,1,")
    assert text.splitlines()[1].endswith(",-1,-1,-1")
    frames, image_size = parse_mot_text(text)
    assert image_size == (640, 480)
    assert [track_id for track_id, _, _ in frames[0]] == [1, 3]
    track_id, box, conf = frames[1][0]
    assert track_id == 1
    assert (box.cx - box.w / 2) * 640 == pytest.approx(10.5, abs=1e-6)
    assert conf == pytest.approx(0.875, abs=1e-6)
    with pytest.raises(ValueError, match="frame must be >= 1, got 0"):
        write_mot_file(path, [(0, 1, 1.0, 2.0, 3.0, 4.0, 1.0)], (640, 480))


def test_frames_to_id_boxes_fills_missing_frames():
    text = "# image_size=100x100\n1,1,0,0,10,10,1,-1,-1,-1\n3,1,0,0,10,10,1,-1,-1,-1\n"
    frames, _ = parse_mot_text(text)
    assert len(frames) == 3 and frames[1] == []
    id_boxes = frames_to_id_boxes(frames)
    assert len(id_boxes) == 3
    assert id_boxes[1] == []
    assert id_boxes[0] == [(1, Box2D(0.05, 0.05, 0.1, 0.1))]
    assert len(frames_to_id_boxes(frames, 5)) == 5


def test_box_round_trip_through_pixels(tmp_path):
    box = Box2D(0.31, 0.47, 0.12, 0.08)
    path = tmp_path / "pred.txt"
    rows = results_to_rows([FrameResult(frame_idx=1, tracks=[(4, box)])], (1920, 1080))
    write_mot_file(path, rows, (1920, 1080))
    frames, _ = parse_mot_file(path)
    [(track_id, back, conf)] = frames[0]
    assert (track_id, conf) == (4, 1.0)
    for name in ("cx", "cy", "w", "h"):
        assert getattr(back, name) == pytest.approx(getattr(box, name), abs=1e-9)


def test_scenario_files_round_trip(tmp_path):
    cfg = ScenarioConfig(n_objects=3, n_frames=12, seed=6)
    scenario = generate_scenario(cfg)
    gt_path, det_path, emb_path = write_scenario(scenario, tmp_path, (1920, 1080))
    assert gt_path.exists() and det_path.exists() and emb_path.exists()

    frames, image_size = detections_from_files(det_path, emb_path)
    assert image_size == (1920, 1080)
    assert len(frames) == sum(1 for d in scenario.detections if d) or len(frames) >= 1
    # Every written detection comes back with its embedding attached.
    total_in = sum(len(d) for d in scenario.detections)
    total_out = sum(len(d) for d in frames)
    assert total_out == total_in
    src = [d for dets in scenario.detections for d in dets]
    out = [d for dets in frames for d in dets]
    for a, b in zip(src, out):
        assert np.allclose(a.embedding, b.embedding, atol=1e-8)
        assert abs(a.box.cx - b.box.cx) < 1e-6
        assert abs(a.score - b.score) < 1e-6


def test_embeddings_sidecar_round_trip(tmp_path):
    scenario = generate_scenario(ScenarioConfig(n_objects=2, n_frames=4, seed=2))
    path = tmp_path / "emb.csv"
    write_embeddings_csv(path, scenario)
    table = read_embeddings_csv(path)
    for frame_idx, dets in enumerate(scenario.detections, start=1):
        for det_index, det in enumerate(dets):
            got = table[(frame_idx, det_index)]
            assert np.allclose(got, det.embedding, atol=1e-8)


def test_embeddings_sidecar_errors(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text("1,0,0.5,0.5\n1,1,0.5\n")
    with pytest.raises(ValueError, match="line 2"):
        read_embeddings_csv(path)
    path.write_text("1,0,0.5,0.5\n1,0,0.1,0.2\n")
    with pytest.raises(ValueError, match="duplicate"):
        read_embeddings_csv(path)
    path.write_text("1,0,0.5,0.5\n1,1,0,0.0\n")
    with pytest.raises(ValueError, match="emb.csv: line 2: zero-norm"):
        read_embeddings_csv(path)
    path.write_text("1,0,0.5,0.5\n1,1\n")
    with pytest.raises(ValueError, match="emb.csv: line 2: embedding row needs frame,det_index,values"):
        read_embeddings_csv(path)
    path.write_text("1,0,0.5,0.5\n1,x,0.5,0.5\n")
    with pytest.raises(ValueError, match="emb.csv: line 2: non-numeric field"):
        read_embeddings_csv(path)


def test_missing_embedding_for_detection(tmp_path):
    scenario = generate_scenario(ScenarioConfig(n_objects=2, n_frames=3, seed=2))
    _, det_path, emb_path = write_scenario(scenario, tmp_path, (100, 100))
    lines = emb_path.read_text().splitlines()
    emb_path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="missing embedding"):
        detections_from_files(det_path, emb_path)


def test_sidecar_row_without_detection(tmp_path):
    scenario = generate_scenario(ScenarioConfig(n_objects=2, n_frames=3, seed=2))
    _, det_path, emb_path = write_scenario(scenario, tmp_path, (100, 100))
    with open(emb_path, "a") as fh:
        fh.write("2,7,0.5,0.5" + ",0" * (scenario.config.embedding_dim - 2) + "\n")
    with pytest.raises(ValueError, match="frame 2 detection 7 matches no detection"):
        detections_from_files(det_path, emb_path)


def test_parse_flat_config():
    text = """
# a comment
policy = sparse+ofs
memory.epsilon = 0.2   # trailing comment
scenario.n_objects = 4
n_seeds = 3
"""
    items = parse_flat_config(text)
    assert items["policy"] == "sparse+ofs"
    assert items["memory.epsilon"] == "0.2"
    assert items["scenario.n_objects"] == "4"
    with pytest.raises(ValueError, match="line 2"):
        parse_flat_config("\nnot a key value pair\n")


def test_apply_flat_config_builds_run_config():
    items = {
        "policy": "dense",
        "memory.epsilon": "0.25",
        "memory.m_max": "7",
        "memory.alpha": "0.8",
        "tracker.match_threshold": "0.5",
        "scenario.n_objects": "3",
        "scenario.n_frames": "77",
        "seed": "9",
        "n_seeds": "4",
        "output_dir": "runs/x",
    }
    run = apply_flat_config(RunConfig(), items)
    assert run.policy is MemoryPolicy.DENSE
    assert run.tracker.memory.epsilon == 0.25
    assert run.tracker.memory.m_max == 7
    assert run.tracker.memory.alpha == 0.8
    assert run.tracker.match_threshold == 0.5
    assert run.scenario.n_objects == 3
    assert run.scenario.n_frames == 77
    assert run.scenario.seed == 9
    assert run.n_seeds == 4
    assert str(run.output_dir) == "runs/x"


def test_apply_flat_config_supports_infinity():
    run = apply_flat_config(RunConfig(), {"memory.epsilon": "inf", "memory.alpha": "1"})
    assert math.isinf(run.tracker.memory.epsilon)
    assert run.tracker.memory.alpha == 1.0


def test_apply_flat_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config key"):
        apply_flat_config(RunConfig(), {"memory.bogus": "1"})
    with pytest.raises(ValueError, match="unknown config key"):
        apply_flat_config(RunConfig(), {"nonsense": "1"})
    with pytest.raises(ValueError, match="policy"):
        apply_flat_config(RunConfig(), {"policy": "magic"})
    # `seed` is the one key for the scenario seed.
    with pytest.raises(ValueError, match="via seed"):
        apply_flat_config(RunConfig(), {"scenario.seed": "7", "seed": "3"})
    with pytest.raises(ValueError, match=r"via memory\.<field>"):
        apply_flat_config(RunConfig(), {"tracker.memory": "0.1"})


def test_apply_flat_config_validates_values():
    with pytest.raises(ValueError):
        apply_flat_config(RunConfig(), {"memory.alpha": "2.0"})
    with pytest.raises(ValueError):
        apply_flat_config(RunConfig(), {"scenario.n_objects": "0"})
    with pytest.raises(ValueError, match="n_seeds must be >= 1, got 0"):
        apply_flat_config(RunConfig(), {"n_seeds": "0"})

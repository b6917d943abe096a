"""File formats: MOT rows and embedding sidecars."""

import math
import sys
import warnings
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sasmot import mot_io
from sasmot import tracker as tracker_mod
from sasmot.cli import main
from sasmot.geometry import Box2D
from sasmot.metrics import SequencePair, evaluate
from sasmot.mot_io import (
    detections_from_files,
    frames_to_id_boxes,
    pair_from_files,
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
from sasmot.tracker import Detection, FrameResult, embedding_fault, row_norms
from test_simulator import RECORD_SCENES, assert_records_are_one_frame_records
from test_tracker import NORM_INF_ROW


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
        text = f"# written by hand\n{header}\n1,1,0,0,10,10,1,-1,-1,-1\n"
        with pytest.raises(ValueError, match="line 2: image size must look like 1920x1080"):
            parse_mot_text(text)


def test_first_bad_line_is_named_when_a_later_line_is_bad_too():
    # Line 2's corners collapse once normalized; line 3 is non-numeric.
    text = "# image_size=1920x1080\n1,1,1e9,0,1e-7,10,1,-1,-1,-1\n2,1,10,10,x,10,1,-1,-1,-1\n"
    with pytest.raises(ValueError, match="^line 2: box corners collapse"):
        parse_mot_text(text)


def test_image_size_header_comes_before_the_first_row():
    row = "1,1,0,0,10,10,1,-1,-1,-1"
    with pytest.raises(ValueError, match="^line 2: no image size: pass one or put an image_size"):
        parse_mot_text(f"# a comment\n{row}\n# image_size=100x100\n")
    for size in (None, (100, 100)):
        with pytest.raises(ValueError, match="^line 3: image_size header after the first row"):
            parse_mot_text(f"# image_size=100x100\n{row}\n# image_size=200x200\n", size)
    # A size from the caller needs no header at all.
    assert parse_mot_text(f"{row}\n", (100, 100))[1] == (100, 100)


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


def test_bad_numbers_keep_their_messages():
    for row, problem in [
        ("1,1,0,0,ten,10,1,-1,-1,-1", "non-numeric field"),
        ("x,1,0,0,10,10,1,-1,-1,-1", "non-numeric field"),
        ("1,1.5,0,0,10,10,1,-1,-1,-1", "non-numeric field"),
        ("1,1,0,0,10,10,nan,-1,-1,-1", "non-finite field"),
        ("1,1,-inf,0,10,10,1,-1,-1,-1", "non-finite field"),
    ]:
        with pytest.raises(ValueError) as exc:
            parse_mot_text(f"1,1,0,0,10,10,1,-1,-1,-1\n{row}\n", image_size=(100, 100))
        assert str(exc.value) == f"line 2: {problem} in {row!r}"


def test_box_whose_area_overflows_is_named_with_its_line(tmp_path):
    # Finite pixel sizes near 1e203 whose normalized area overflows.
    path = tmp_path / "det.txt"
    path.write_text("# image_size=1920x1080\n1,1,0,0,10,10,1,-1,-1,-1\n1,2,0,0,1e203,1e203,1,-1,-1,-1\n")
    with pytest.raises(ValueError) as exc:
        parse_mot_file(path)
    assert str(exc.value) == (
        f"{path}: line 3: box area overflows: w={1e203 / 1920}, h={1e203 / 1080}"
    )


def test_box_whose_corners_collapse_is_named_with_its_line(tmp_path):
    # A 1e-7 px wide box 1e9 px from the origin: once normalized, its width
    # is below the spacing of doubles at its centre, so left == right.
    path = tmp_path / "det.txt"
    path.write_text("# image_size=1920x1080\n1,1,0,0,10,10,1,-1,-1,-1\n1,1,1e9,0,1e-7,10,1,-1,-1,-1\n")
    with pytest.raises(ValueError) as exc:
        parse_mot_file(path)
    assert str(exc.value) == (
        f"{path}: line 3: box corners collapse: cx={(1e9 + 1e-7 / 2.0) / 1920}, "
        f"cy={5.0 / 1080}, w={1e-7 / 1920}, h={10.0 / 1080}"
    )


def test_box_whose_area_underflows_is_named_with_its_line(tmp_path):
    # A 1e-197 px box at 1920x1080 keeps its corners apart once normalized,
    # but its area underflows to 0, where its IoU with itself is 0/0.
    path = tmp_path / "det.txt"
    path.write_text("# image_size=1920x1080\n1,1,0,0,10,10,1,-1,-1,-1\n1,1,0,0,1e-197,1e-197,1,-1,-1,-1\n")
    with pytest.raises(ValueError) as exc:
        parse_mot_file(path)
    assert str(exc.value) == (
        f"{path}: line 3: box area underflows: w={1e-197 / 1920}, h={1e-197 / 1080}"
    )


@pytest.mark.parametrize("row, problem", [
    # Normalized by a 1x1 image: box (1.7e308, 0.5, 1e308, 1.0).
    ("1,2,1.2e308,0,1e308,1,1,-1,-1,-1",
     f"box corner overflows: cx={1.2e308 + 1e308 / 2.0}, cy=0.5, w=1e+308, h=1.0"),
    # Box (0.0, 0.0, 1e154, 1.5e154).
    ("1,2,-5e153,-7.5e153,1e154,1.5e154,1,-1,-1,-1", "box area overflows: w=1e+154, h=1.5e+154"),
], ids=["corner", "union"])
def test_box_whose_corner_or_union_overflows_is_named_with_its_line(tmp_path, row, problem):
    path = tmp_path / "det.txt"
    path.write_text(f"# image_size=1x1\n1,1,0,0,0.5,0.5,1,-1,-1,-1\n{row}\n")
    with pytest.raises(ValueError) as exc:
        parse_mot_file(path)
    assert str(exc.value) == f"{path}: line 3: {problem}"


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


@pytest.mark.parametrize("kw", RECORD_SCENES)
def test_file_records_equal_one_frame_records(tmp_path, kw, monkeypatch):
    scenario = generate_scenario(ScenarioConfig(**kw))
    _, det_path, emb_path = write_scenario(scenario, tmp_path, (1920, 1080))
    # One frame per IoU pass, a few frames per pass, and the default.
    for cells in (1, 2000, tracker_mod._IOU_CELLS):
        monkeypatch.setattr(tracker_mod, "_IOU_CELLS", cells)
        frames, _ = detections_from_files(det_path, emb_path)
        assert sum(map(len, frames)) == sum(map(len, scenario.detections))
        assert assert_records_are_one_frame_records(frames) > 0 or kw["n_objects"] < 8


def test_each_sidecar_row_is_checked_once(tmp_path, monkeypatch):
    # A block the C reader converts is checked by one row_norms mask: no
    # embedding_fault call and no Detection check runs on a clean read, and
    # only a block that breaks the mask goes to the per-line rule.
    scenario = generate_scenario(ScenarioConfig(n_objects=4, n_frames=20, seed=3))
    _, det_path, emb_path = write_scenario(scenario, tmp_path, (640, 480))
    n_rows = sum(map(len, scenario.detections))
    calls: Dict[str, List[int]] = {"embedding_fault": [], "__post_init__": [], "row_norms": [],
                                   "_check_sidecar_line": []}

    def spy(owner, name, size=lambda *args: 1):
        original = getattr(owner, name)

        def run(*args):
            calls[name].append(size(*args))
            return original(*args)
        monkeypatch.setattr(owner, name, run)

    spy(tracker_mod, "embedding_fault")
    spy(mot_io, "embedding_fault")
    spy(Detection, "__post_init__")
    spy(mot_io, "row_norms", len)
    spy(mot_io, "_check_sidecar_line")
    monkeypatch.setattr(mot_io, "_BLOCK_ROWS", 32)
    frames, _ = detections_from_files(det_path, emb_path)
    assert sum(map(len, frames)) == n_rows > 2 * 32
    assert calls["embedding_fault"] == calls["__post_init__"] == calls["_check_sidecar_line"] == []
    assert calls["row_norms"] == [32] * (n_rows // 32) + [n_rows % 32]
    # A zero row in the second block: that block alone is read line by line,
    # up to the row, which is named.
    lines = emb_path.read_text().splitlines()
    frame, det_index, *values = lines[40].split(",")
    lines[40] = ",".join([frame, det_index] + ["0"] * len(values))
    emb_path.write_text("\n".join(lines) + "\n")
    for seen in calls.values():
        seen.clear()
    with pytest.raises(ValueError) as got:
        detections_from_files(det_path, emb_path)
    assert str(got.value) == f"{emb_path}: line 41: zero-norm embedding"
    assert calls["row_norms"] == [32, 32]
    assert len(calls["_check_sidecar_line"]) == len(calls["embedding_fault"]) == 41 - 32


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
    path.write_text("1,0" + ",0.5" * 16 + "\n1,1," + ",".join(map(repr, NORM_INF_ROW)) + "\n")
    with pytest.raises(ValueError, match="line 2: embedding squared norm overflows to inf"):
        read_embeddings_csv(path)


def read_embeddings_csv_reference(path) -> Dict[Tuple[int, int], np.ndarray]:
    """The per-line sidecar reader that ``read_embeddings_csv`` replaced.

    It parses and checks one row at a time, so it is the oracle for the
    bulk reader's keys, value bits and error text. It predates the
    squared-norm rule, so it accepts rows that overflow or underflow.
    """
    out: Dict[Tuple[int, int], np.ndarray] = {}
    dim: Optional[int] = None
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = f"{path}: line {lineno}"
        parts = line.split(",")
        if len(parts) < 3:
            raise ValueError(f"{where}: embedding row needs frame,det_index,values")
        try:
            frame = int(parts[0])
            det_index = int(parts[1])
            values = np.array([float(p) for p in parts[2:]], dtype=float)
        except ValueError:
            raise ValueError(f"{where}: non-numeric field in embeddings file") from None
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{where}: non-finite value in embedding")
        if dim is None:
            dim = values.size
        elif values.size != dim:
            raise ValueError(f"{where}: embedding dim {values.size} != {dim}")
        if not np.any(values):
            raise ValueError(f"{where}: zero-norm embedding")
        if (frame, det_index) in out:
            raise ValueError(f"{where}: duplicate key ({frame}, {det_index})")
        out[(frame, det_index)] = values
    return out


def _assert_same_table(got, want):
    assert list(got) == list(want)  # the same keys in the same order
    for key, values in want.items():
        assert got[key].dtype == values.dtype and got[key].tobytes() == values.tobytes(), key


@pytest.mark.parametrize("dim", [16, 33])
def test_bulk_reader_equals_per_line_reference_on_simulated_sidecars(tmp_path, dim):
    cfg = ScenarioConfig(n_objects=4, n_frames=40, seed=3, embedding_dim=dim)
    path = tmp_path / "emb.csv"
    write_embeddings_csv(path, generate_scenario(cfg))
    _assert_same_table(read_embeddings_csv(path), read_embeddings_csv_reference(path))


def _spy_c_rows(monkeypatch) -> List[bool]:
    """Whether numpy's C reader refused each block it was given, in order."""
    original, refused = mot_io._c_rows, []

    def spy(*args, **kwargs):
        table = original(*args, **kwargs)
        refused.append(table is None)
        return table

    monkeypatch.setattr(mot_io, "_c_rows", spy)
    return refused


def test_bulk_reader_equals_per_line_reference_on_any_float_spelling(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    spellings = ("%.9g", "%.17g", "%r", "%.3e", "%.25f", " %s", "%s ", "%+.6E", "\t%s\t")
    # Spellings that float() and int() read and numpy's C reader refuses
    # (underscores, non-ASCII digits, a key of 2**63) sit in the first and
    # third blocks of rows, so the per-line rules convert those two and the
    # C reader the others.
    lines = ["# written by hand", ""]
    for frame in range(1, 1600):
        values = rng.uniform(-1.0, 1.0, 7) * 10.0 ** rng.integers(-150, 150, 7)
        picks = rng.integers(0, len(spellings), 7)
        fields = [spellings[k] % v for k, v in zip(picks, values.tolist())]
        odd = ["1_5", "\u0661\u0662", "\uff11.\uff15"] if frame <= mot_io._BLOCK_ROWS else []
        fields[rng.integers(0, 7)] = rng.choice(["0", "-0.0", "7", *odd])
        key = (" %d" % frame, "+0 ") if frame % 3 else ("%d" % frame, "\t0")
        if frame == 1100:
            key = (str(2**63), "0")
        lines.append(",".join([*key, *fields]))
        if frame % 11 == 0:
            lines += ["  ", "#", "   # indented comment"]
    path = tmp_path / "emb.csv"
    path.write_text("\n".join(lines) + "\n")
    want = read_embeddings_csv_reference(path)
    assert len(want) == 1599
    refused = _spy_c_rows(monkeypatch)
    _assert_same_table(read_embeddings_csv(path), want)
    assert refused == [True, False, True, False]


def test_empty_sidecar_reads_as_no_rows(tmp_path):
    path = tmp_path / "emb.csv"
    path.write_text("# nothing\n\n")
    assert read_embeddings_csv(path) == read_embeddings_csv_reference(path) == {}


GOOD_ROWS = ["1,0,0.5,0.5", "# a comment", "", "1,1,0.25,-1", "2,0,1,0", "2,1,0,3"]
BAD_ROWS = {
    "non-numeric value": "3,0,0.5,abc",
    "non-numeric key": "3,x,0.5,0.5",
    "non-finite": "3,0,0.5,nan",
    "infinite": "3,0,-inf,0.5",
    "zero": "3,0,0,0.0",
    "wrong D": "3,0,0.5,0.5,0.5",
    "duplicate key": "1,1,0.5,0.5",
    "short": "3,0",
    # One row, two faults: the reference's order of checks decides.
    "wrong D and non-finite": "3,0,nan,0.5,0.5",
    "wrong D and non-numeric": "3,0,0.5,abc,0.5",
    "duplicate key and zero": "1,1,0,0",
    "duplicate key and infinite": "1,1,inf,0.5",
}


def _sidecar_with(tmp_path, row7: str, row9: str = "3,1,0.5,0.5") -> Path:
    path = tmp_path / "emb.csv"
    path.write_text("\n".join(GOOD_ROWS + [row7, "4,0,1,1", row9, "5,0,2,2"]) + "\n")
    return path


@pytest.mark.parametrize("kind", sorted(BAD_ROWS))
def test_bad_row_on_line_7_is_named_as_the_reference_names_it(tmp_path, kind):
    # Bulk conversion drops the row-to-line map; the comment and the blank
    # line before the bad row make a wrong map name the wrong line.
    path = _sidecar_with(tmp_path, BAD_ROWS[kind])
    with pytest.raises(ValueError) as want:
        read_embeddings_csv_reference(path)
    with pytest.raises(ValueError) as got:
        read_embeddings_csv(path)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith(f"{path}: line 7: ")


@pytest.mark.parametrize("row", ["3,\u01fe5,0.5,0.5", "3\u01ff,0,0.5,0.5", "3,0,\x1f0.5,0.5",
                                 "3,0,0.5\x1f,0.5"])
def test_spellings_numpy_misreads_are_named_as_the_reference_names_them(tmp_path, row):
    # numpy's integer parser reads some non-ASCII letters as digits, and it
    # strips "\x1f" as white space; int() and float() refuse both.
    path = _sidecar_with(tmp_path, row)
    with pytest.raises(ValueError) as want:
        read_embeddings_csv_reference(path)
    with pytest.raises(ValueError) as got:
        read_embeddings_csv(path)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("row, problem", [
    ("3,0,1e300,-1e300", "embedding squared norm overflows to inf"),
    ("3,0,1e-300,1e-300", "embedding squared norm underflows to 0"),
])
def test_norm_that_overflows_or_underflows_is_named_with_its_line(tmp_path, row, problem):
    path = _sidecar_with(tmp_path, row)
    assert len(read_embeddings_csv_reference(path)) == 8  # the old reader let it through
    with pytest.raises(ValueError) as got:
        read_embeddings_csv(path)
    assert str(got.value) == f"{path}: line 7: {problem}"


def test_repeated_key_whose_norm_overflows_is_named_for_its_norm(tmp_path):
    path = _sidecar_with(tmp_path, "1,1,1e300,-1e300")
    with pytest.raises(ValueError) as got:
        read_embeddings_csv(path)
    assert str(got.value) == f"{path}: line 7: embedding squared norm overflows to inf"


@pytest.mark.parametrize("row7, row9", [
    ("3,0,0.5,nan", "3,1,0.5,abc"),
    ("3,0,0.5,abc", "3,1,0,0"),
    ("3,0,0,0", "1,0,0.5,0.5"),
    ("1,0,0.5,0.5", "3,1,inf,0.5"),
    ("3,0,1e300,1", "3,1,0,0"),
])
def test_first_of_two_bad_rows_is_named(tmp_path, row7, row9):
    path = _sidecar_with(tmp_path, row7, row9)
    with pytest.raises(ValueError) as got:
        read_embeddings_csv(path)
    assert str(got.value).startswith(f"{path}: line 7: ")
    if "1e300" not in row7:
        with pytest.raises(ValueError) as want:
            read_embeddings_csv_reference(path)
        assert str(got.value) == str(want.value)


def _boundary_rows(dim: int, count: int = 300) -> List[List[float]]:
    """Seeded rows whose squared norm lies within a few ulps of overflow.

    Unit directions scaled to sqrt(DBL_MAX)·(1 ± 1e-15): two ways of summing
    e·e can round such a row to opposite sides of inf.
    """
    rng = np.random.default_rng(dim)
    unit = rng.standard_normal((count, dim))
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    scale = math.sqrt(sys.float_info.max) * (1.0 + rng.uniform(-1e-15, 1e-15, (count, 1)))
    return (unit * scale).tolist()


def _detection_fault(values: List[float]) -> Optional[str]:
    try:
        Detection(Box2D(0.5, 0.5, 0.1, 0.1), values, 1.0)
    except ValueError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("dim", [2, 16, 33])
def test_reader_and_detection_give_one_verdict_at_the_overflow_boundary(tmp_path, dim):
    path = tmp_path / "emb.csv"
    disagree, verdicts = [], set()
    for k, values in enumerate(_boundary_rows(dim)):
        path.write_text("1,0," + ",".join(map(repr, values)) + "\n")  # repr round-trips
        want = _detection_fault(values)
        try:
            read_embeddings_csv(path)
            got = None
        except ValueError as exc:
            got = str(exc)
        if got != (want and f"{path}: line 1: {want}"):
            disagree.append((k, got, want))
        verdicts.add(want)
    assert disagree == [], f"{len(disagree)} of 300 rows got two verdicts"
    # Rows on both sides of the boundary, so the test shows something.
    assert verdicts == {None, "embedding squared norm overflows to inf"}


@settings(max_examples=150, deadline=None)
@given(dim=st.sampled_from([1, 2, 3, 16, 33]), overflow=st.booleans(),
       seed=st.integers(0, 2**32 - 1), n_rows=st.integers(1, 12))
def test_embedding_fault_and_the_block_mask_decide_by_row_norms(
    tmp_path_factory, dim, overflow, seed, n_rows
):
    # Rows whose e·e lies within a few ulps of overflow, or whose squares
    # sit at the edge of the subnormals, so that two sums may disagree.
    rng = np.random.default_rng(seed)
    if overflow:
        scale = math.sqrt(sys.float_info.max / dim)
        scale *= 1.0 + rng.uniform(-4e-15, 4e-15, (n_rows, 1))
        rows = scale * (1.0 + rng.uniform(-4e-15, 4e-15, (n_rows, dim)))
    else:
        scale = math.sqrt(5e-324) * rng.uniform(0.2, 1.5, (n_rows, 1))
        rows = scale * rng.uniform(0.5, 1.0, (n_rows, dim))
    rows *= rng.choice([-1.0, 1.0], (n_rows, dim))
    faults = [embedding_fault(e) for e in rows]
    for e, fault in zip(rows, faults):
        assert (fault is None) == (0.0 < row_norms(e[None])[0] < math.inf)
    norms = row_norms(rows)  # the reader's block mask
    assert [fault is None for fault in faults] == ((0.0 < norms) & (norms < math.inf)).tolist()
    # A strided row is judged as the contiguous row the tracker stacks.
    wide = np.zeros((n_rows, 2 * dim))
    wide[:, ::2] = rows
    assert [embedding_fault(e) for e in wide[:, ::2]] == faults
    path = tmp_path_factory.getbasetemp() / "norm_edge_emb.csv"
    path.write_text("".join(f"1,{k}," + ",".join(map(repr, e)) + "\n"
                            for k, e in enumerate(rows.tolist())))
    bad = [k for k, fault in enumerate(faults) if fault]
    if not bad:
        assert np.concatenate(list(read_embeddings_csv(path).values())).tobytes() == rows.tobytes()
        return
    with pytest.raises(ValueError) as got:
        read_embeddings_csv(path)
    assert str(got.value) == f"{path}: line {bad[0] + 1}: {faults[bad[0]]}"


def test_embedding_fault_is_named_at_its_sidecar_line_never_the_detection_file(tmp_path):
    det_path, emb_path = tmp_path / "det.txt", tmp_path / "emb.csv"
    write_mot_file(det_path, [(1, -1, 10.0, 10.0, 20.0, 20.0, 0.9)], (640, 480))
    rows = [v for dim in (2, 16, 33) for v in _boundary_rows(dim)]
    rows += [[0.0, -0.0], [math.nan, 1.0], [1e-300, 1e-300], [1e300, -1e300]]
    faults = 0
    for values in rows:
        emb_path.write_text("# one row\n1,0," + ",".join(map(repr, values)) + "\n")
        fault = _detection_fault(values)
        if fault is None:
            [[det]] = detections_from_files(det_path, emb_path)[0]
            assert det.embedding.tolist() == values
            continue
        faults += 1
        with pytest.raises(ValueError) as got:
            detections_from_files(det_path, emb_path)
        assert str(got.value) == f"{emb_path}: line 2: {fault}"
    assert faults > 4


def test_mot_rows_are_written_as_the_f_string_wrote_them(tmp_path):
    # One %-format per row; %s keeps a float or numpy frame as str() prints it.
    rows = [
        (np.int64(3), np.int64(-1), np.float64(1 / 3), -0.0, 1e-7, 123456.789, 0.9999995),
        (2.0, 5, 10, 20.5, 1e300, 2.5e-7, np.float32(0.1)),
        (1, 1, 5.0, 6.0, 7.0, 8.0, 1.0),
    ]
    path = tmp_path / "out.txt"
    write_mot_file(path, rows, (640, 480))
    want = ["# image_size=640x480"] + [
        f"{frame},{track_id},{left:.6f},{top:.6f},{width:.6f},{height:.6f},{conf:.6f},-1,-1,-1"
        for frame, track_id, left, top, width, height, conf in sorted(rows, key=lambda r: r[:2])
    ]
    assert path.read_text() == "\n".join(want) + "\n"
    assert path.read_text().splitlines()[2].startswith("2.0,5,")


def test_missing_embedding_for_detection(tmp_path):
    scenario = generate_scenario(ScenarioConfig(n_objects=2, n_frames=3, seed=2))
    _, det_path, emb_path = write_scenario(scenario, tmp_path, (100, 100))
    lines = emb_path.read_text().splitlines()
    emb_path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="missing embedding"):
        detections_from_files(det_path, emb_path)


def test_sidecar_row_without_detection(tmp_path):
    cfg = ScenarioConfig(n_objects=2, n_frames=3, seed=2)
    _, det_path, emb_path = write_scenario(generate_scenario(cfg), tmp_path, (100, 100))
    with open(emb_path, "a") as fh:
        fh.write("2,7,0.5,0.5" + ",0" * (cfg.embedding_dim - 2) + "\n")
    with pytest.raises(ValueError, match="frame 2 detection 7 matches no detection"):
        detections_from_files(det_path, emb_path)



def parse_mot_text_reference(
    text: str, image_size: Optional[Tuple[int, int]] = None
) -> Tuple[List[list], Tuple[int, int]]:
    """The per-line MOT reader that the column pass replaced.

    It parses and checks one line at a time, so it is the oracle for the
    column reader's boxes, bits and error text. It predates the frame bound.
    """
    size = image_size
    frames: List[list] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if body.startswith("image_size"):
                    if frames:
                        raise ValueError("image_size header after the first row")
                    header_size = parse_image_size(body.partition("=")[2].strip())
                    size = image_size or header_size
                continue
            if size is None:
                raise ValueError("no image size: pass one or put an image_size header first")
            parts = line.split(",")
            if len(parts) not in (9, 10):
                raise ValueError(f"expected 9 or 10 fields, got {len(parts)}")
            try:
                frame = int(parts[0])
                track_id = int(parts[1])
                left, top, width, height, conf = map(float, parts[2:7])
            except ValueError:
                raise ValueError(f"non-numeric field in {line!r}") from None
            if not all(map(math.isfinite, (left, top, width, height, conf))):
                raise ValueError(f"non-finite field in {line!r}")
            if frame < 1:
                raise ValueError(f"frame must be >= 1, got {frame}")
            if width <= 0:
                raise ValueError(f"non-positive width {width}")
            if height <= 0:
                raise ValueError(f"non-positive height {height}")
            w_img, h_img = size
            box = Box2D((left + width / 2.0) / w_img, (top + height / 2.0) / h_img,
                        width / w_img, height / h_img)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        frames.extend([] for _ in range(frame - len(frames)))
        frames[frame - 1].append((track_id, box, conf))
    if size is None:
        raise ValueError("no image size: pass one or put an image_size header first")
    return frames, size


def _box_bits(frames) -> list:
    return [[(i, tuple(map(float.hex, (b.cx, b.cy, b.w, b.h))), c.hex()) for i, b, c in entries]
            for entries in frames]


def _verdict(parse, text, image_size):
    try:
        frames, size = parse(text, image_size)
    except ValueError as exc:
        return str(exc)
    return _box_bits(frames), size


ROW = "1,1,0,0,10,10,1,-1,-1,-1"
# Every bad-row case above, as (text, image size): bad numbers, non-positive
# sizes, collapse, overflow and underflow, headers, 9- against 10-field rows.
BAD_TEXTS = {
    "non-numeric width": (f"{ROW}\n1,1,0,0,ten,10,1,-1,-1,-1\n", (100, 100)),
    "non-numeric frame": (f"{ROW}\nx,1,0,0,10,10,1,-1,-1,-1\n", (100, 100)),
    "float id": (f"{ROW}\n1,1.5,0,0,10,10,1,-1,-1,-1\n", (100, 100)),
    "junk row": (f"# image_size=100x100\n{ROW}\n1,2,junk\n", None),
    "nan conf": (f"{ROW}\n1,1,0,0,10,10,nan,-1,-1,-1\n", (100, 100)),
    "-inf left": (f"{ROW}\n1,1,-inf,0,10,10,1,-1,-1,-1\n", (100, 100)),
    "frame 0": (f"{ROW}\n0,1,0,0,10,10,1,-1,-1,-1\n", (100, 100)),
    "zero width": ("1,1,0,0,0,10,1,-1,-1,-1\n", (100, 100)),
    "negative height": ("1,1,0,0,5,-2,1,-1,-1,-1\n", (100, 100)),
    "width underflows": ("\n1,1,0,0,5e-324,10,1,-1,-1,-1\n", (100, 100)),
    "corners collapse": (f"# image_size=1920x1080\n{ROW}\n1,1,1e9,0,1e-7,10,1,-1,-1,-1\n", None),
    "collapse before junk": ("# image_size=1920x1080\n1,1,1e9,0,1e-7,10,1,-1,-1,-1\n"
                             "2,1,10,10,x,10,1,-1,-1,-1\n", None),
    "area overflows": (f"# image_size=1920x1080\n{ROW}\n1,2,0,0,1e203,1e203,1,-1,-1,-1\n", None),
    "corner overflows": ("# image_size=1x1\n1,1,0,0,0.5,0.5,1,-1,-1,-1\n"
                         "1,2,1.2e308,0,1e308,1,1,-1,-1,-1\n", None),
    "union overflows": ("# image_size=1x1\n1,1,0,0,0.5,0.5,1,-1,-1,-1\n"
                        "1,2,-5e153,-7.5e153,1e154,1.5e154,1,-1,-1,-1\n", None),
    "area underflows": (f"# image_size=1920x1080\n{ROW}\n1,1,0,0,1e-197,1e-197,1,-1,-1,-1\n", None),
    "header after a row": (f"# image_size=100x100\n{ROW}\n# image_size=200x200\n", None),
    "header after a row, size given": (f"# image_size=100x100\n{ROW}\n# image_size=200x200\n",
                                       (100, 100)),
    "bad row before a late header": (f"# image_size=100x100\n{ROW}\n1,1,0,0,0,10,1,-1,-1,-1\n"
                                     "# image_size=200x200\n", None),
    "no image size": (f"# a comment\n{ROW}\n# image_size=100x100\n", None),
    "no image size, no rows": ("# a comment\n\n", None),
    "malformed header": (f"# written by hand\n# image_size=axb\n{ROW}\n", None),
    "8 fields": (f"# image_size=100x100\n{ROW}\n1,2,0,0,10,10,1,-1\n", None),
    "11 fields": (f"# image_size=100x100\n{ROW}\n1,2,0,0,10,10,1,-1,-1,-1,0\n", None),
    "9 then 8 fields": (f"# image_size=100x100\n{ROW[:-3]}\n1,2,0,0,10,10,1,1\n", None),
    # What numpy's C reader reads or refuses: the first error is still the
    # reference's, whichever converter met the block.
    "11 fields, the last empty": (f"# image_size=100x100\n{ROW}\n{ROW},\n", None),
    "9 and 10 then 11 fields": (f"{ROW[:-3]}\n{ROW}\n{ROW},-1\n", (100, 100)),
    "# in a read field": (f"{ROW}\n1,2,0,0,#10,10,1,-1,-1,-1\n", (100, 100)),
    "frame spelled 1.0": (f"{ROW}\n1.0,2,0,0,10,10,1,-1,-1,-1\n", (100, 100)),
    "empty read field": (f"{ROW}\n1,2,0,,10,10,1,-1,-1,-1\n", (100, 100)),
    "id 2**63 before a bad row": (f"{ROW}\n1,{2**63},0,0,10,10,1,-1,-1,-1\n"
                                  "1,3,0,0,0,10,1,-1,-1,-1\n", (100, 100)),
    "1_5 before a bad row": (f"{ROW}\n1,2,0,0,1_5,10,1,-1,-1,-1\n1,3,0,0,10,-1,1,-1,-1,-1\n",
                             (100, 100)),
    "non-ASCII digit before a bad row": (f"{ROW}\n1,\u0662,0,0,10,10,1,-1,-1,-1\n"
                                         "1,3,0,0,10,10,nan,-1,-1,-1\n", (100, 100)),
    "tabs around fields, then a bad row": (f"{ROW}\n\t1\t,\t2 ,0,0,10,10,1,-1,-1,-1\n"
                                           "1,3,0,0,x,10,1,-1,-1,-1\n", (100, 100)),
    # numpy's integer parser reads this letter as digits, 5\u01fe as 512.
    "a letter numpy reads as a digit": (f"{ROW}\n1,5\u01fe,0,0,10,10,1,-1,-1,-1\n", (100, 100)),
    "\\x1f around a field": (f"{ROW}\n1,2,\x1f0,0,10,10,1,-1,-1,-1\n", (100, 100)),
}


@pytest.mark.parametrize("case", sorted(BAD_TEXTS))
def test_bad_row_is_named_by_every_reader_as_the_per_line_reference_names_it(tmp_path, capsys,
                                                                              case):
    text, image_size = BAD_TEXTS[case]
    with pytest.raises(ValueError) as want:
        parse_mot_text_reference(text, image_size)
    with pytest.raises(ValueError) as got:
        parse_mot_text(text, image_size)
    assert str(got.value) == str(want.value)
    bad, good = tmp_path / "bad.txt", tmp_path / "good.txt"
    bad.write_text(text)
    good.write_text(f"# image_size=100x100\n{ROW}\n")
    size_flag = [] if image_size is None else ["--image-size", "%dx%d" % image_size]
    for gt, pred in ((bad, good), (good, bad)):
        with pytest.raises(ValueError) as got:
            pair_from_files(gt, pred, image_size)
        assert str(got.value) == f"{bad}: {want.value}"
        assert main(["eval", "--gt", str(gt), "--pred", str(pred), *size_flag]) == 1
        assert capsys.readouterr().err == f"error: {bad}: {want.value}\n"


def _edge_rows(rng: np.random.Generator, count: int) -> List[Tuple[float, float, float, float]]:
    """Seeded pixel boxes (left, top, width, height) at the edges of the box
    rule: centres near 1e16, sizes near one ulp of the centre, and areas
    near overflow and underflow."""
    tiny, huge = 5e-324, sys.float_info.max
    rows = []
    for k in range(count):
        kind = k % 4
        jitter = 1.0 + rng.uniform(-4e-16, 4e-16)
        if kind == 0:  # a centre near 1e16, where doubles are 2 apart
            left = 1e16 * rng.uniform(0.5, 2.0)
            rows.append((left, rng.uniform(-1e16, 1e16), rng.choice([0.5, 1.0, 2.0, 3.0, 4.0]),
                         rng.choice([1.0, 2.0, 1e-3])))
        elif kind == 1:  # a size of about one ulp of its centre
            centre = 10.0 ** rng.uniform(-300, 300)
            ulp = math.ulp(centre) * rng.choice([0.25, 0.5, 1.0, 1.5, 2.0, 3.0])
            rows.append((centre, -centre, ulp * jitter, 10.0 * ulp))
        elif kind == 2:  # twice the area near the largest double
            w = 10.0 ** rng.uniform(-10, 300)
            rows.append((0.0, 0.0, w, huge / 2.0 / w * jitter))
        else:  # the area near the smallest subnormal
            w = 10.0 ** rng.uniform(-300, 10)
            rows.append((0.0, 0.0, w, tiny / w * rng.choice([0.25, 0.5, 1.0, 2.0, 4.0]) * jitter))
    return rows


@pytest.mark.parametrize("image_size", [(1, 1), (1920, 1080), (7, 3)])
def test_column_rules_accept_exactly_the_rows_box2d_accepts(image_size):
    rng = np.random.default_rng(sum(image_size))
    rows = _edge_rows(rng, 800)
    kept, verdicts = [], set()
    for box in rows:
        text = "1,1,%s,1,-1,-1,-1\n" % ",".join(repr(float(v)) for v in box)
        want = _verdict(parse_mot_text_reference, text, image_size)
        assert _verdict(parse_mot_text, text, image_size) == want, text
        if isinstance(want, str):
            verdicts.add(want.split(":")[1].strip())
        else:
            kept.append(text)
    # Both sides of every edge, so the corpus shows something.
    assert verdicts >= {"box corners collapse", "box area overflows", "box area underflows"}
    assert len(kept) > 100
    # The accepted rows in one text: one block pass, the same bits.
    text = "".join(kept)
    assert _verdict(parse_mot_text, text, image_size) == _verdict(
        parse_mot_text_reference, text, image_size
    )
    # The reader builds its boxes without Box2D's check; each is one that
    # the check accepts, with the same fields.
    boxes = [box for entries in parse_mot_text(text, image_size)[0] for _, box, _ in entries]
    assert len(boxes) == len(kept)
    assert boxes == [Box2D(box.cx, box.cy, box.w, box.h) for box in boxes]


def test_parse_equals_per_line_reference_on_any_spelling_and_order(tmp_path, monkeypatch):
    rng = np.random.default_rng(11)
    spellings = ("%.6f", "%r", "%.3e", " %s", "%s ", "%+.9E", "\t%s\t")
    # Spellings that int() and float() read and numpy's C reader refuses, by
    # data row: the first block of rows has ids up to 2**70, and the third,
    # fourth and fifth one odd row each; the C reader converts the others,
    # whose rows mix 9 and 10 fields and put "#" or nothing in fields that
    # are not read.
    odd = {1200: (4, "1_5"), 1700: (1, "\u0661\u0662"), 1800: (2, "\uff11\uff15"),
           2200: (1, str(2**63))}
    lines = ["# image_size=640x480", "# a comment", ""]
    for k in range(3000):
        frame = int(rng.integers(1, 400))
        left, top = rng.uniform(-50, 600, 2)
        width, height = rng.uniform(0.5, 90, 2)
        fields = [spellings[int(rng.integers(0, len(spellings)))] % float(v)
                  for v in (left, top, width, height, rng.uniform())]
        tail = ["-1", "-1", "-1"] if k % 3 else ["1", "0.5"]
        if k % 5 == 0:
            tail[-1] = str(rng.choice(["", "#", "# a note"]))
        obj_id = int(rng.integers(1, 2**62)) << int(rng.integers(0, 9))  # up to 2**70
        obj_id = obj_id if k < mot_io._BLOCK_ROWS else obj_id >> 8
        row = [" %d" % frame, str(obj_id), *fields, *tail]
        if k in odd:
            row[odd[k][0]] = odd[k][1]
        lines.append(",".join(row))
        if k % 97 == 0:
            lines += ["  ", "   # indented"]
    text = "\n".join(lines) + "\n"
    want = _verdict(parse_mot_text_reference, text, None)
    refused = _spy_c_rows(monkeypatch)
    assert _verdict(parse_mot_text, text, None) == want
    path = tmp_path / "gt.txt"
    path.write_text(text)
    assert _box_bits(parse_mot_file(path)[0]) == want[0]
    assert refused == [True, False, True, True, True, False] * 2


def test_a_block_the_c_reader_warns_on_is_read_by_the_per_line_rules(tmp_path, monkeypatch):
    # numpy 1.24 to 1.26 read "1.0" into an int column and only warn: a
    # warning refuses the block as an error does, even where warnings are
    # otherwise ignored.
    loadtxt, calls = np.loadtxt, []

    def warning_loadtxt(*args, **kwargs):
        warnings.warn("a spelling numpy will refuse", DeprecationWarning)
        return loadtxt(*args, **kwargs)

    def counted(convert):
        def run(*args):
            calls.append(convert.__name__)
            return convert(*args)
        return run

    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    for convert in (mot_io._check_mot_line, mot_io._check_sidecar_line):
        monkeypatch.setattr(mot_io, convert.__name__, counted(convert))
    text = "# image_size=640x480\n" + "".join(
        f"{k % 7 + 1},{k},{k},2.5,30,40,0.5,-1,-1,-1\n" for k in range(600))
    emb = tmp_path / "emb.csv"
    emb.write_text("".join(f"{k % 7 + 1},{k},0.5,{k}\n" for k in range(600)))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = _verdict(parse_mot_text, text, None)
        table = read_embeddings_csv(emb)
    assert got == _verdict(parse_mot_text_reference, text, None)
    _assert_same_table(table, read_embeddings_csv_reference(emb))
    assert calls == ["_check_mot_line"] * 600 + ["_check_sidecar_line"] * 600


def _mot_text(rows, nine: bool = False, notes: bool = False) -> str:
    """Pixel rows (frame, id, left, top, w, h) as MOT text, in the given order."""
    tail = "1,1,0.5" if nine else "1,-1,-1,-1"
    lines = ["# image_size=640x480"]
    for k, (frame, obj_id, left, top, w, h) in enumerate(rows):
        pixels = ",".join(repr(float(v)) for v in (left, top, w, h))
        lines.append(f"{frame},{obj_id},{pixels},{tail}")
        if notes and k % 7 == 0:
            lines += ["", "# a note", "   "]
    return "\n".join(lines) + "\n"


def _tracks(rng, ids, frames):
    """Per id, a box drifting over the given frames: (frame, id, l, t, w, h) rows."""
    rows = []
    for obj_id in ids:
        left, top = rng.uniform(0, 500, 2)
        for frame in frames:
            if rng.uniform() < 0.85:
                left, top = left + rng.normal(0, 3), top + rng.normal(0, 3)
                rows.append((frame, obj_id, left, top, 40.0, 80.0))
    return rows


@pytest.mark.parametrize("nine, notes", [(False, False), (True, True)])
def test_eval_from_columns_equals_eval_of_parsed_lists(tmp_path, nine, notes):
    rng = np.random.default_rng(3 + nine)
    ids = [1, 2, 7, 2**40, 2**63 + 5, 2**70]
    # Frames 6-8 hold nothing; gt ends at 30, pred at 34.
    frames = [f for f in range(1, 31) if not 6 <= f <= 8]
    gt_rows = _tracks(rng, ids, frames)  # sorted by id, as MOT17 gt is
    pred_rows = []
    for frame, obj_id, left, top, w, h in sorted(gt_rows):
        if rng.uniform() < 0.9:
            pred_id = obj_id if rng.uniform() < 0.9 else ids[int(rng.integers(0, len(ids)))]
            pred_rows.append((frame, pred_id, left + rng.normal(0, 4), top, w, h))
    pred_rows = [r for r in pred_rows if r[0] != 3 or r[1] != 1]
    pred_rows.append((34, 2**70, 1.0, 1.0, 10.0, 10.0))
    # One id per frame at most: a pred id switch may repeat an id.
    seen, unique = set(), []
    for row in pred_rows:
        if row[:2] not in seen:
            seen.add(row[:2])
            unique.append(row)
    gt, pred = tmp_path / "gt.txt", tmp_path / "pred.txt"
    gt.write_text(_mot_text(gt_rows, nine, notes))
    pred.write_text(_mot_text(unique, nine, notes))
    gt_frames, _ = parse_mot_file(gt)
    pred_frames, _ = parse_mot_file(pred)
    assert (len(gt_frames), len(pred_frames)) == (30, 34) and gt_frames[6] == []
    n = max(len(gt_frames), len(pred_frames))
    want = SequencePair(frames_to_id_boxes(gt_frames, n), frames_to_id_boxes(pred_frames, n))
    got = pair_from_files(gt, pred)
    assert evaluate(got) == evaluate(want)
    assert evaluate(pair_from_files(pred, gt)) == evaluate(
        SequencePair(frames_to_id_boxes(pred_frames, n), frames_to_id_boxes(gt_frames, n))
    )
    for side in ("_gt", "_pred"):
        a, b = getattr(got, side), getattr(want, side)
        assert a.n_ids == b.n_ids
        for name in ("codes", "counts", "starts", "corners"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), (side, name)


@pytest.mark.parametrize("pred_rows, message", [
    # The repeat is far from its first row in file order, not in frame order.
    ([(1, 5, 0, 0, 9, 9), (2, 5, 0, 0, 9, 9), (3, 6, 0, 0, 9, 9), (2, 5, 5, 5, 9, 9)],
     "pred frame 2: id 5 appears twice"),
    ([(2, 4, 0, 0, 9, 9), (1, 3, 0, 0, 9, 9), (2, 0, 0, 0, 9, 9), (1, -1, 0, 0, 9, 9)],
     "pred frame 1: ids must be positive, got -1"),
    ([(1, 2**70, 0, 0, 9, 9), (1, -2**70, 0, 0, 9, 9), (1, 2**70, 0, 0, 9, 9)],
     "pred frame 1: ids must be positive, got -1180591620717411303424"),
])
def test_side_errors_keep_their_text_from_columns(tmp_path, pred_rows, message):
    gt, pred = tmp_path / "gt.txt", tmp_path / "pred.txt"
    gt.write_text(_mot_text([(1, 1, 0, 0, 9, 9)]))
    pred.write_text(_mot_text(pred_rows))
    lists = [frames_to_id_boxes(parse_mot_file(p)[0], 3) for p in (gt, pred)]
    with pytest.raises(ValueError) as want:
        SequencePair(*lists)
    with pytest.raises(ValueError) as got:
        pair_from_files(gt, pred)
    assert str(got.value) == str(want.value) == message


def test_frame_far_beyond_the_row_count_is_named_before_any_frame_exists(tmp_path, capsys):
    # Two rows may reach frame 16384, the floor of the bound; frame 16385 is
    # refused, and so is frame 10**9.
    rows = "# image_size=100x100\n1,1,0,0,10,10,1,-1,-1,-1\n{},2,0,0,10,10,1,-1,-1,-1\n"
    frames, _ = parse_mot_text(rows.format(16384))
    assert len(frames) == 16384 and frames[-1][0][0] == 2
    rule = "the larger of 16384 and twice the file's row count"
    message = f"line 3: frame 16385 is beyond 16384, {rule}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse_mot_text(rows.format(16385))
    with pytest.raises(ValueError, match=f"^line 3: frame 1000000000 is beyond 16384, {rule}$"):
        parse_mot_text(rows.format(10**9))
    # Past the floor the bound is twice the row count: 8193 rows reach 16386.
    crowd = rows + "".join(f"1,{k},0,0,10,10,1,-1,-1,-1\n" for k in range(3, 8194))
    assert len(parse_mot_text(crowd.format(16386))[0]) == 16386
    with pytest.raises(ValueError, match=f"^line 3: frame 16387 is beyond 16386, {rule}$"):
        parse_mot_text(crowd.format(16387))
    # A frame is checked in its row's turn: an earlier bad row is named first.
    with pytest.raises(ValueError, match="^line 2: non-positive width"):
        parse_mot_text(rows.replace("10,10,1", "0,10,1", 1).format(16385))
    bad, good = tmp_path / "bad.txt", tmp_path / "good.txt"
    bad.write_text(rows.format(16385))
    good.write_text(rows.format(2))
    for gt, pred in ((bad, good), (good, bad)):
        assert main(["eval", "--gt", str(gt), "--pred", str(pred)]) == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
    emb = tmp_path / "emb.csv"
    emb.write_text("1,0,0.5,0.5\n16385,0,0.5,0.5\n")
    with pytest.raises(ValueError) as got:
        detections_from_files(bad, emb)
    assert str(got.value) == f"{bad}: {message}"


def _transient_and_peak(fn) -> Tuple[int, int]:
    """Bytes allocated during ``fn()`` beyond what its result keeps, and the peak."""
    import tracemalloc

    tracemalloc.start()
    try:
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - kept, peak


def _lines_peak(*paths: Path) -> int:
    """The peak of holding every file's text and stripped lines at once."""
    return _transient_and_peak(
        lambda: [[raw.strip() for raw in p.read_text().splitlines()] for p in paths]
    )[1]


@pytest.fixture(scope="module")
def big_scene(tmp_path_factory):
    scenario = generate_scenario(ScenarioConfig(n_objects=20, n_frames=1000, seed=1))
    return write_scenario(scenario, tmp_path_factory.mktemp("big"), (1920, 1080))


def _reads_over_bound(scene, block_rows: int) -> List[Tuple[str, int, int]]:
    """(read, transient bytes, bound) of ``track``'s read, its det file's
    read alone, and ``eval``'s two.

    Holding a file's lines is the one whole-file cost of a read. Beyond it,
    a read may keep about 100 B per row (row numbers, the columns it fills,
    the records it builds) and 2 KB per row of a block of ``block_rows``.
    """
    gt, det, emb = scene
    n_rows = {p: len(p.read_text().splitlines()) for p in scene}
    assert min(n_rows.values()) >= 8 * block_rows, "the files must span many blocks"
    reads = [
        ("detections_from_files", lambda: detections_from_files(det, emb), (det, emb)),
        ("det read", lambda: mot_io._parse_file(det, mot_io._mot_columns), (det,)),
        ("pair_from_files", lambda: pair_from_files(gt, gt), (gt, gt)),
    ]
    out = []
    for name, read, paths in reads:
        bound = _lines_peak(*paths) + 100 * sum(n_rows[p] for p in paths) + 2048 * block_rows
        out.append((name, _transient_and_peak(read)[0], bound))
    return out


@pytest.fixture(scope="module")
def refused_scene(big_scene, tmp_path_factory):
    """``big_scene`` respelled so that numpy's C reader refuses every block
    and the per-line rules convert it: gt ids from 2**63 up, det ids of
    2**63, and sidecar frames spelled ``0_<frame>``, which ``int()`` reads."""
    out = tmp_path_factory.mktemp("refused")

    def respell(path: Path, field: int, spell) -> Path:
        lines = path.read_text().splitlines()
        for k, line in enumerate(lines):
            if not line.startswith("#"):
                parts = line.split(",")
                parts[field] = spell(parts[field])
                lines[k] = ",".join(parts)
        (out / path.name).write_text("\n".join(lines) + "\n")
        return out / path.name

    gt, det, emb = big_scene
    return (respell(gt, 1, lambda s: str(2**63 + int(s))), respell(det, 1, lambda s: str(2**63)),
            respell(emb, 0, lambda s: "0_" + s))


def test_reads_hold_one_block_of_converted_rows_at_a_time(big_scene, refused_scene):
    for scene in (big_scene, refused_scene):
        for name, transient, bound in _reads_over_bound(scene, mot_io._BLOCK_ROWS):
            assert transient < bound, (name, transient, bound)


def test_the_memory_bound_refuses_a_whole_file_conversion(refused_scene, monkeypatch):
    # The per-line rules hold each converted MOT row, about 450 B, until the
    # block's columns are built; on this corpus the C reader refuses every
    # block, so the conversion runs in Python. The C reader holds little more
    # than the columns it fills, even for a whole file, and the sidecar's rows
    # convert into the array they fill, so neither can break the bound.
    # ``detections_from_files`` is not asserted: its transient is its peak
    # less the records it keeps, and building them peaks above its reads.
    block_rows = mot_io._BLOCK_ROWS
    refused = _spy_c_rows(monkeypatch)
    monkeypatch.setattr(mot_io, "_BLOCK_ROWS", 10**9)
    for name, transient, bound in _reads_over_bound(refused_scene, block_rows):
        if name != "detections_from_files":
            assert transient > bound, (name, transient, bound)
    assert refused == [True] * 5  # det and sidecar, det, gt twice: one whole-file block each

"""File formats: MOT rows and embedding sidecars."""

import math
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

from sasmot import mot_io
from sasmot import tracker as tracker_mod
from sasmot.geometry import Box2D
from sasmot.mot_io import (
    detections_from_files,
    frames_to_id_boxes,
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
from sasmot.tracker import Detection, FrameResult
from test_simulator import RECORD_SCENES, assert_records_are_one_frame_records


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
    scenario = generate_scenario(ScenarioConfig(n_objects=4, n_frames=20, seed=3))
    _, det_path, emb_path = write_scenario(scenario, tmp_path, (640, 480))
    original, calls = tracker_mod.embedding_fault, []

    def counting(e):
        calls.append(e)
        return original(e)

    # The reader's check and the one Detection(...) would make.
    monkeypatch.setattr(mot_io, "embedding_fault", counting)
    monkeypatch.setattr(tracker_mod, "embedding_fault", counting)
    frames, _ = detections_from_files(det_path, emb_path)
    assert len(calls) == sum(map(len, frames)) == sum(map(len, scenario.detections)) > 0


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


def test_bulk_reader_equals_per_line_reference_on_any_float_spelling(tmp_path):
    rng = np.random.default_rng(5)
    spellings = ("%.9g", "%.17g", "%r", "%.3e", "%.25f", " %s", "%s ", "%+.6E")
    lines = ["# written by hand", ""]
    for frame in range(1, 60):
        values = rng.uniform(-1.0, 1.0, 7) * 10.0 ** rng.integers(-150, 150, 7)
        picks = rng.integers(0, len(spellings), 7)
        fields = [spellings[k] % v for k, v in zip(picks, values.tolist())]
        fields[rng.integers(0, 7)] = rng.choice(["0", "-0.0", "1_5", "7"])
        key = (" %d" % frame, "+0 ") if frame % 3 else ("%d" % frame, "0")
        lines.append(",".join([*key, *fields]))
        if frame % 11 == 0:
            lines += ["  ", "#", "   # indented comment"]
    path = tmp_path / "emb.csv"
    path.write_text("\n".join(lines) + "\n")
    want = read_embeddings_csv_reference(path)
    assert len(want) == 59
    _assert_same_table(read_embeddings_csv(path), want)


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


"""MOTChallenge text I/O and embedding sidecars.

Row format is the comma-separated MOTChallenge convention::

    frame,id,bb_left,bb_top,bb_width,bb_height,conf,-1,-1,-1

with pixel coordinates; the 9-field ground-truth layout of MOT17 and
DanceTrack (``...,conf,class,visibility``) is read too, and fields after
``conf`` are ignored; a non-finite number is an error naming the line.
``eval`` drops ``conf`` as well, so MOT17's zero-marked and non-pedestrian
gt rows are scored as ground truth and its scores are not comparable with
the official toolkit; DanceTrack gt (every row conf 1, class 1) is unaffected.
Pixels appear only in the text: parsing yields normalized frames, where
``frames[k]`` lists the ``(id, box, conf)`` entries of frame k + 1 in file
order, and writing takes the pixel rows that one converter builds from
(frame, id, box, conf) tuples. Files written here carry a
``# image_size=WxH`` header so they can be normalized back to unit
coordinates without external context; a caller-supplied image size
overrides the header, which otherwise must come before the first row. A
frame number above twice the file's row count is an error naming its line,
so no reader makes a frame for a row far past the others. Ground truth
and tracker output carry conf 1, detections carry id -1 and their score,
and rows are sorted by (frame, id) with 6 decimals per float. Embeddings ride in a sidecar CSV
(``frame,det_index,e_1,...,e_D``, 9 significant digits) keyed by position
within the frame, because MOT rows cannot carry vectors. Each sidecar
value is parsed as ``float()`` parses it, and every embedding must satisfy
``0 < e·e < inf``, the rule ``Detection`` applies, by the same check and
wording; a bad row is an error naming its line. Writers format each row
with one ``%`` operation.

Both readers work in column passes over blocks of ``_BLOCK_ROWS`` data
rows: one pass sorts the lines into comments and data, then each block is
split, its int fields converted with ``int`` and its float fields with one
numpy call, and its rules checked as masks; the first bad row is worded by
the per-line rules, so the error is the one a line-by-line reader raises
first. The MOT columns become the parsed frames, the detections of
``detections_from_files`` (joined to their sidecar rows by one array pass,
each row checked once, by the sidecar reader, and built into
``DetectionFrame`` records by ``_detection_frames``), or the two sides of
``pair_from_files``, which builds ``eval``'s pair without a ``Box2D`` per row.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from contextlib import contextmanager
from itertools import islice, repeat
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .geometry import Box2D, _box, corners_of, valid_boxes
from .metrics import SequencePair
from .simulator import Scenario
from .tracker import DetectionFrame, FrameResult, _detection, _detection_frames, embedding_fault

__all__ = [
    "parse_image_size",
    "parse_mot_text",
    "parse_mot_file",
    "write_mot_file",
    "frames_to_id_boxes",
    "results_to_rows",
    "write_embeddings_csv",
    "read_embeddings_csv",
    "detections_from_files",
    "pair_from_files",
    "write_scenario",
]


_PixelRow = Tuple[int, int, float, float, float, float, float]  # frame, id, left, top, w, h, conf
_Frames = List[List[Tuple[int, Box2D, float]]]  # frames[k]: (id, box, conf) of frame k + 1


def parse_image_size(text: str) -> Tuple[int, int]:
    """Parse ``WxH`` into a pair of positive ints."""
    parts = text.lower().split("x")
    try:
        w, h = (int(p) for p in parts)
    except (TypeError, ValueError):
        raise ValueError(f"image size must look like 1920x1080, got {text!r}") from None
    if w <= 0 or h <= 0:
        raise ValueError(f"image size must be positive, got {text!r}")
    return w, h


def parse_mot_text(
    text: str, image_size: Optional[Tuple[int, int]] = None
) -> Tuple[_Frames, Tuple[int, int]]:
    """Frames 1..max of (id, box, conf) in file order, and the argument's or header's size."""
    rows, size = _mot_columns(text, image_size)
    order, counts, boxes = _in_frame_order(rows)
    entries = zip(map(rows.ids.__getitem__, order.tolist()), boxes, rows.confs[order].tolist())
    return [list(islice(entries, count)) for count in counts.tolist()], size


def parse_mot_file(
    path: Path | str, image_size: Optional[Tuple[int, int]] = None
) -> Tuple[_Frames, Tuple[int, int]]:
    """Parse a MOT file; every parse error starts with the path."""
    text = Path(path).read_text()
    with _named(path):
        return parse_mot_text(text, image_size)


@contextmanager
def _named(path: Path | str) -> Iterator[None]:
    """Prefix the path to a ``ValueError`` raised inside."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


class _Rows(NamedTuple):
    """A MOT text's data rows as columns, in file order."""

    frames: np.ndarray  # (k,) int64, each in 1..2k
    ids: List[int]  # Python ints, of any size
    boxes: np.ndarray  # (4, k): normalized cx, cy, w, h, the fields of each row's Box2D
    confs: np.ndarray  # (k,)


def _in_frame_order(rows: _Rows) -> Tuple[np.ndarray, np.ndarray, Iterator[Box2D]]:
    """The rows' order by frame, stable, so file order holds within a frame;
    the row counts of frames 1..max; and the rows' boxes in that order."""
    order = np.argsort(rows.frames, kind="stable")
    counts = np.bincount(rows.frames, minlength=1)[1:]
    return order, counts, map(_box, *rows.boxes[:, order].tolist())


def _read_mot_columns(
    path: Path | str, image_size: Optional[Tuple[int, int]] = None
) -> Tuple[_Rows, Tuple[int, int]]:
    """``_mot_columns`` of a file; every parse error starts with the path."""
    text = Path(path).read_text()
    with _named(path):
        return _mot_columns(text, image_size)


def _mot_columns(
    text: str, image_size: Optional[Tuple[int, int]] = None
) -> Tuple[_Rows, Tuple[int, int]]:
    """The data rows of a MOT text as columns, and the argument's or header's size.

    One pass sorts the lines into comments and data rows and reads the
    headers; the data rows are then converted ``_BLOCK_ROWS`` at a time by
    ``_mot_block``. A bad row is worded by ``_check_mot_line``, so the error
    is the one a line-by-line reader would raise first, with its line number.
    """
    lines, data = _data_lines(text)
    notes = [i for i, line in enumerate(lines) if line.startswith("#")]
    first = data[0] if data else len(lines)
    # The row count is known before any row is read, so each row's frame is
    # checked against the bound as it converts.
    max_frame = 2 * len(data)
    size, late = image_size, None
    for i in notes:
        body = lines[i].lstrip("#").strip()
        if not body.startswith("image_size"):
            continue
        if i > first:
            # Rows before this header are read first: one of them may be bad.
            late = i
            data = data[: bisect_left(data, i)]
            break
        try:
            header_size = parse_image_size(body.partition("=")[2].strip())
        except ValueError as exc:
            raise ValueError(f"line {i + 1}: {exc}") from None
        size = image_size or header_size
    if size is None:
        where = f"line {first + 1}: " if data else ""
        raise ValueError(f"{where}no image size: pass one or put an image_size header first")
    n = len(data)
    rows = _Rows(np.empty(n, dtype=np.int64), [], np.empty((4, n)), np.empty(n))
    for a in range(0, n, _BLOCK_ROWS):
        at = data[a : a + _BLOCK_ROWS]
        block = [lines[i] for i in at]
        columns = _mot_block(block, size, max_frame)
        if columns is None:
            for i, line in zip(at, block):
                try:
                    _check_mot_line(line, size, max_frame)
                except ValueError as exc:
                    raise ValueError(f"line {i + 1}: {exc}") from None
        b = a + len(at)
        rows.frames[a:b], ids, rows.boxes[:, a:b], rows.confs[a:b] = columns
        rows.ids.extend(ids)
    if late is not None:
        raise ValueError(f"line {late + 1}: image_size header after the first row")
    return rows, size


def _data_lines(text: str) -> Tuple[List[str], List[int]]:
    """The stripped lines of a text, and the indices of its data lines: those
    neither blank nor a ``#`` comment."""
    lines = [raw.strip() for raw in text.splitlines()]
    return lines, [i for i, line in enumerate(lines) if line and line[0] != "#"]


# Data rows converted at a time: bounds the split fields and temporaries a
# read holds, whatever the size of the file. Larger blocks read no faster.
_BLOCK_ROWS = 512


def _mot_block(
    block: List[str], size: Tuple[int, int], max_frame: int
) -> Optional[Tuple[List[int], List[int], Tuple[np.ndarray, ...], np.ndarray]]:
    """(frames, ids, boxes, confs) of a block of data lines, or None when a
    line breaks a rule of ``_check_mot_line``.

    Frames and ids convert with ``int``, so ids keep Python-int range; the
    five float fields convert in one numpy call, which parses each string as
    ``float()`` does. The pixel-field rules and ``Box2D``'s box rule
    (``valid_boxes``) then run as masks over the same elementwise operations,
    so the boxes have the bits of the per-line code's, and the readers build
    them without a second check.
    """
    parts = [line.split(",") for line in block]
    if not set(map(len, parts)) <= {9, 10}:
        return None
    try:
        frames = list(map(int, [p[0] for p in parts]))
        ids = list(map(int, [p[1] for p in parts]))
        fields = np.array([p[2:7] for p in parts], dtype=float).T
    except ValueError:
        return None
    if not 1 <= min(frames) <= max(frames) <= max_frame:
        return None
    left, top, width, height, conf = fields
    w_img, h_img = size
    # A bad row may overflow or make a NaN here; the masks reject it.
    with np.errstate(all="ignore"):
        w, h = width / w_img, height / h_img
        cx, cy = (left + width / 2.0) / w_img, (top + height / 2.0) / h_img
    good = np.isfinite(fields).all(axis=0) & (width > 0.0) & (height > 0.0)
    if not (good & valid_boxes(cx, cy, w, h)).all():
        return None
    return frames, ids, (cx, cy, w, h), conf


def _check_mot_line(line: str, size: Tuple[int, int], max_frame: int) -> None:
    """Raise the first fault of one data line: the rules ``_mot_block``
    applies as masks, in the order and wording of the line-by-line reader."""
    parts = line.split(",")
    if len(parts) not in (9, 10):
        raise ValueError(f"expected 9 or 10 fields, got {len(parts)}")
    try:
        frame = int(parts[0])
        int(parts[1])
        left, top, width, height, conf = map(float, parts[2:7])
    except ValueError:
        raise ValueError(f"non-numeric field in {line!r}") from None
    if not all(map(math.isfinite, (left, top, width, height, conf))):
        raise ValueError(f"non-finite field in {line!r}")
    if frame < 1:
        raise ValueError(f"frame must be >= 1, got {frame}")
    if frame > max_frame:
        raise ValueError(f"frame {frame} is beyond {max_frame}, twice the file's row count")
    if width <= 0:
        raise ValueError(f"non-positive width {width}")
    if height <= 0:
        raise ValueError(f"non-positive height {height}")
    w_img, h_img = size
    Box2D((left + width / 2.0) / w_img, (top + height / 2.0) / h_img, width / w_img, height / h_img)


def write_mot_file(
    path: Path | str, rows: Iterable[_PixelRow], image_size: Tuple[int, int]
) -> None:
    """Write pixel rows sorted by (frame, id) with an image-size header."""
    ordered = sorted(rows, key=lambda r: r[:2])
    # Sorted by frame, so the first row holds the smallest.
    if ordered and ordered[0][0] < 1:
        raise ValueError(f"frame must be >= 1, got {ordered[0][0]}")
    # %s prints the ids as str() does, so a float frame is not truncated.
    lines = [f"# image_size={image_size[0]}x{image_size[1]}"]
    lines += ["%s,%s,%.6f,%.6f,%.6f,%.6f,%.6f,-1,-1,-1" % row for row in ordered]
    Path(path).write_text("\n".join(lines) + "\n")


def frames_to_id_boxes(
    frames: _Frames, n_frames: Optional[int] = None
) -> List[List[Tuple[int, Box2D]]]:
    """Per-frame (id, box) lists for frames 1..n; frames past the parsed ones are empty."""
    last = len(frames) if n_frames is None else n_frames
    out = [[(track_id, box) for track_id, box, _ in entries] for entries in frames[:last]]
    out.extend([] for _ in range(last - len(out)))
    return out


def _mot_rows(
    entries: Iterable[Tuple[int, int, Box2D, float]], image_size: Tuple[int, int]
) -> List[_PixelRow]:
    """(frame, id, normalized box, conf) tuples to pixel rows."""
    w_img, h_img = image_size
    return [
        (frame, track_id, (box.cx - box.w / 2.0) * w_img, (box.cy - box.h / 2.0) * h_img,
         box.w * w_img, box.h * h_img, conf)
        for frame, track_id, box, conf in entries
    ]


def results_to_rows(results: Sequence[FrameResult], image_size: Tuple[int, int]) -> List[_PixelRow]:
    return _mot_rows(
        ((r.frame_idx, track_id, box, 1.0) for r in results for track_id, box in r.tracks),
        image_size,
    )


def write_embeddings_csv(path: Path | str, scenario: Scenario) -> None:
    """Sidecar: one `frame,det_index,e_1,...,e_D` line per detection."""
    lines = []
    dim, fmt = -1, ""
    for frame_idx, dets in enumerate(scenario.detections, start=1):
        for det_index, det in enumerate(dets):
            values = det.embedding.tolist()
            if len(values) != dim:
                dim = len(values)
                fmt = "%d,%d" + ",%.9g" * dim
            lines.append(fmt % (frame_idx, det_index, *values))
    Path(path).write_text("\n".join(lines) + "\n")


def read_embeddings_csv(path: Path | str) -> Dict[Tuple[int, int], np.ndarray]:
    """Sidecar rows keyed by (frame, det_index), in file order; every row has
    the same size D, and each value is a row view of one (rows, D) array.

    The rows convert ``_BLOCK_ROWS`` at a time, values as ``float()`` parses
    them, and each row is then checked: its embedding by ``embedding_fault``,
    the rule ``Detection`` applies, then its key. The first bad row in the
    file stops the read, and the error names its line.
    """
    index, values = _read_sidecar(path)
    return dict(zip(index, values))


def _read_sidecar(path: Path | str) -> Tuple[Dict[Tuple[int, int], int], np.ndarray]:
    """The checked sidecar: each key's row number, in file order, and the rows."""
    lines, data = _data_lines(Path(path).read_text())
    width = len(lines[data[0]].split(",")) if data else 2
    values = np.empty((len(data), max(width - 2, 0)))
    index: Dict[Tuple[int, int], int] = {}
    for a in range(0, len(data), _BLOCK_ROWS):
        at = data[a : a + _BLOCK_ROWS]
        parts = [lines[i].split(",") for i in at]
        block = values[a : a + len(at)]
        try:
            if width < 3 or set(map(len, parts)) != {width}:
                raise ValueError
            keys = list(zip(map(int, [p[0] for p in parts]), map(int, [p[1] for p in parts])))
            block[:] = [p[2:] for p in parts]  # numpy parses each string as float() does
        except ValueError:
            keys = [None] * len(at)  # a row did not convert; the loop finds it
        for k, (i, key, row) in enumerate(zip(at, keys, block)):
            try:
                if key is None:
                    key = _sidecar_row(parts[k], width, row)
            except ValueError:
                fault = _row_fault(parts[k], width - 2)
            else:
                fault = embedding_fault(row) or (f"duplicate key {key}" if key in index else None)
            if fault:
                raise ValueError(f"{path}: line {i + 1}: {fault}")
            index[key] = a + k
    return index, values


def _sidecar_row(parts: List[str], width: int, row: np.ndarray) -> Tuple[int, int]:
    """Convert one sidecar row's values into ``row``; returns its key."""
    if not 3 <= len(parts) == width:
        raise ValueError  # short or of another size: _row_fault words it
    key = (int(parts[0]), int(parts[1]))
    row[:] = parts[2:]
    return key


def _row_fault(parts: List[str], dim: int) -> str:
    """Why a sidecar row that did not convert is bad, its rules checked in the
    order a row is read; a row of finite numbers has the wrong size."""
    if len(parts) < 3:
        return "embedding row needs frame,det_index,values"
    try:
        int(parts[0]), int(parts[1])
        row = [float(p) for p in parts[2:]]
    except ValueError:
        return "non-numeric field in embeddings file"
    if not all(map(math.isfinite, row)):
        return "non-finite value in embedding"
    return f"embedding dim {len(row)} != {dim}"


def detections_from_files(
    det_path: Path | str,
    emb_path: Path | str,
    image_size: Optional[Tuple[int, int]] = None,
) -> Tuple[List[DetectionFrame], Tuple[int, int]]:
    """Join a detection file with its embedding sidecar.

    Returns the records of frames 1..max and the resolved image size. Every
    detection needs a sidecar row and a score in [0, 1], and every sidecar
    row a detection; the first detection, in frame order, that breaks a rule
    is named, then the first unmatched sidecar row. Each row is checked once,
    by the sidecar reader. The join is an array pass over the detections in
    frame order: their sidecar rows are gathered into one (k, D) array, whose
    rows become the embeddings, and ``_detection_frames`` builds the records
    over the whole file.
    """
    rows, size = _read_mot_columns(det_path, image_size)
    index, values = _read_sidecar(emb_path)
    order, counts, boxes = _in_frame_order(rows)
    frames = rows.frames[order]
    slots = np.arange(len(frames)) - (np.cumsum(counts) - counts)[frames - 1]
    found = np.fromiter(
        map(index.get, zip(frames.tolist(), slots.tolist()), repeat(-1)), dtype=np.intp,
        count=len(frames),
    )
    confs = rows.confs[order]
    bad = (found < 0) | ~((0.0 <= confs) & (confs <= 1.0))
    if bad.any():
        k = int(bad.argmax())
        where = f"frame {frames[k]} detection {slots[k]}"
        if found[k] < 0:
            raise ValueError(f"{emb_path}: missing embedding for {where}")
        raise ValueError(f"{det_path}: {where}: score must be in [0, 1], got {confs[k].item()}")
    if len(index) > len(frames):
        unmatched = np.ones(len(index), dtype=bool)
        unmatched[found] = False
        frame, det_index = list(index)[unmatched.argmax()]
        raise ValueError(
            f"{emb_path}: embedding for frame {frame} detection {det_index} matches no detection"
        )
    block = values.take(found, 0)
    dets = map(_detection, boxes, block, confs.tolist())
    by_frame = [list(islice(dets, count)) for count in counts.tolist()]
    corners = corners_of(rows.boxes[:2, order], rows.boxes[2:, order])
    return _detection_frames(by_frame, corners, block), size


def pair_from_files(
    gt_path: Path | str,
    pred_path: Path | str,
    image_size: Optional[Tuple[int, int]] = None,
) -> SequencePair:
    """The scoring pair of a ground-truth and a prediction file.

    Each side is built from its file's columns, frame, id and box corners,
    without a ``Box2D`` per row; it scores as the pair of the parsed files'
    ``frames_to_id_boxes`` does, over frames 1 to the larger last frame.
    """
    sides = []
    for path in (gt_path, pred_path):
        rows, _ = _read_mot_columns(path, image_size)
        sides.append((rows.frames, rows.ids, corners_of(rows.boxes[:2], rows.boxes[2:])))
    return SequencePair.from_columns(*sides)


def write_scenario(
    scenario: Scenario, out_dir: Path | str, image_size: Tuple[int, int]
) -> Tuple[Path, Path, Path]:
    """Write gt.txt, det.txt, and embeddings.csv into a directory."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    gt_path = out / "gt.txt"
    det_path = out / "det.txt"
    emb_path = out / "embeddings.csv"
    gt = (
        (frame, obj_id, box, 1.0)
        for frame, entries in enumerate(scenario.gt, start=1)
        for obj_id, box in entries
    )
    dets = (
        (frame, -1, det.box, det.score)
        for frame, frame_dets in enumerate(scenario.detections, start=1)
        for det in frame_dets
    )
    write_mot_file(gt_path, _mot_rows(gt, image_size), image_size)
    write_mot_file(det_path, _mot_rows(dets, image_size), image_size)
    write_embeddings_csv(emb_path, scenario)
    return gt_path, det_path, emb_path


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
overrides the header, which otherwise must come before the first row, so
each row is checked and normalized in the pass that reads it. Ground truth
and tracker output carry conf 1, detections carry id -1 and their score,
and rows are sorted by (frame, id) with 6 decimals per float. Embeddings ride in a sidecar CSV
(``frame,det_index,e_1,...,e_D``, 9 significant digits) keyed by position
within the frame, because MOT rows cannot carry vectors. Each sidecar
value is parsed as ``float()`` parses it, and every embedding must satisfy
``0 < e·e < inf``, the rule ``Detection`` applies, by the same check and
wording; a bad row is an error naming its line. Writers format each row
with one ``%`` operation; the sidecar reader parses its rows into one
array in one pass and checks each row as it converts, the only check an
embedding gets on this path. ``detections_from_files`` checks each score
and joins rows to detections, then builds the file's ``DetectionFrame``
records at once with ``_detection_frames``, whose IoU passes span groups of
frames zero-padded to their largest.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .geometry import Box2D, boxes_to_corners
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
    size = image_size
    frames: _Frames = []
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
            if not (math.isfinite(left) and math.isfinite(top) and math.isfinite(width)
                    and math.isfinite(height) and math.isfinite(conf)):
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


def parse_mot_file(
    path: Path | str, image_size: Optional[Tuple[int, int]] = None
) -> Tuple[_Frames, Tuple[int, int]]:
    """Parse a MOT file; every parse error starts with the path."""
    text = Path(path).read_text()
    try:
        return parse_mot_text(text, image_size)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


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
    """Sidecar rows keyed by (frame, det_index); every row has the same size D.

    One pass parses values as ``float()`` does into one (rows, D) array and
    checks each row as it converts: its embedding by ``embedding_fault``,
    the rule ``Detection`` applies, then its key. The first bad row in the
    file stops the pass, and the error names its line.
    """
    lines = Path(path).read_text().splitlines()
    out: Dict[Tuple[int, int], np.ndarray] = {}
    width = -1
    values = np.empty((0, 0))
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if width < 0:
            width = len(parts)
            values = np.empty((len(lines), max(width - 2, 0)))
        row = values[len(out)]
        try:
            if not 3 <= len(parts) == width:
                raise ValueError  # short or of another size: _row_fault words it
            key = (int(parts[0]), int(parts[1]))
            row[:] = parts[2:]  # numpy parses each string as float() does
        except ValueError:
            fault = _row_fault(parts, width - 2)
        else:
            fault = embedding_fault(row) or (f"duplicate key {key}" if key in out else None)
        if fault:
            raise ValueError(f"{path}: line {lineno}: {fault}")
        out[key] = row
    return out


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
    row a detection. Each row is checked once, by the sidecar reader; the
    embeddings of all detections are then row views of one (k, D) array,
    and ``_detection_frames`` builds the records over the whole file.
    """
    parsed, size = parse_mot_file(det_path, image_size)
    embeddings = read_embeddings_csv(emb_path)
    rows: List[np.ndarray] = []
    for frame, entries in enumerate(parsed, start=1):
        for det_index, (_, _, conf) in enumerate(entries):
            embedding = embeddings.pop((frame, det_index), None)
            if embedding is None:
                raise ValueError(
                    f"{emb_path}: missing embedding for frame {frame} detection {det_index}"
                )
            if not 0.0 <= conf <= 1.0:
                raise ValueError(f"{det_path}: frame {frame} detection {det_index}: "
                                 f"score must be in [0, 1], got {conf}")
            rows.append(embedding)
    if embeddings:
        frame, det_index = next(iter(embeddings))
        raise ValueError(
            f"{emb_path}: embedding for frame {frame} detection {det_index} matches no detection"
        )
    block = np.array(rows) if rows else np.empty((0, 0))
    views = iter(block)
    frames = [[_detection(box, next(views), conf) for _, box, conf in entries]
              for entries in parsed]
    corners = boxes_to_corners([box for entries in parsed for _, box, _ in entries])
    return _detection_frames(frames, corners, block), size


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


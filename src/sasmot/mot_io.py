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
overrides the header. Ground truth and tracker output carry conf 1,
detections carry id -1 and their score, and rows are sorted by (frame, id)
with 6 decimals per float. Embeddings ride in a sidecar CSV
(``frame,det_index,e_1,...,e_D``, 9 significant digits) keyed by position
within the frame, because MOT rows cannot carry vectors.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .geometry import Box2D
from .simulator import Scenario
from .tracker import Detection, FrameResult

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
    header_size: Optional[Tuple[int, int]] = None
    rows: List[Tuple[int, _PixelRow]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("image_size"):
                _, _, value = body.partition("=")
                try:
                    header_size = parse_image_size(value.strip())
                except ValueError as exc:
                    raise ValueError(f"line {lineno}: {exc}") from None
            continue
        parts = line.split(",")
        if len(parts) not in (9, 10):
            raise ValueError(f"line {lineno}: expected 9 or 10 fields, got {len(parts)}")
        try:
            frame = int(parts[0])
            track_id = int(parts[1])
            left, top, width, height, conf = (float(p) for p in parts[2:7])
        except ValueError:
            raise ValueError(f"line {lineno}: non-numeric field in {line!r}") from None
        if not all(math.isfinite(v) for v in (left, top, width, height, conf)):
            raise ValueError(f"line {lineno}: non-finite field in {line!r}")
        if frame < 1:
            raise ValueError(f"line {lineno}: frame must be >= 1, got {frame}")
        if width <= 0:
            raise ValueError(f"line {lineno}: non-positive width {width}")
        if height <= 0:
            raise ValueError(f"line {lineno}: non-positive height {height}")
        rows.append((lineno, (frame, track_id, left, top, width, height, conf)))

    size = image_size if image_size is not None else header_size
    if size is None:
        raise ValueError("no image size: pass one or include an image_size header")
    w_img, h_img = size
    frames: _Frames = [[] for _ in range(max((row[0] for _, row in rows), default=0))]
    for lineno, (frame, track_id, left, top, width, height, conf) in rows:
        try:
            box = Box2D((left + width / 2.0) / w_img, (top + height / 2.0) / h_img,
                        width / w_img, height / h_img)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        frames[frame - 1].append((track_id, box, conf))
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
    lines = [f"# image_size={image_size[0]}x{image_size[1]}"]
    for frame, track_id, left, top, width, height, conf in sorted(rows, key=lambda r: r[:2]):
        if frame < 1:
            raise ValueError(f"frame must be >= 1, got {frame}")
        lines.append(f"{frame},{track_id},{left:.6f},{top:.6f},"
                     f"{width:.6f},{height:.6f},{conf:.6f},-1,-1,-1")
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
    for frame_idx, dets in enumerate(scenario.detections, start=1):
        for det_index, det in enumerate(dets):
            values = ",".join(f"{v:.9g}" for v in det.embedding)
            lines.append(f"{frame_idx},{det_index},{values}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_embeddings_csv(path: Path | str) -> Dict[Tuple[int, int], np.ndarray]:
    """Sidecar rows keyed by (frame, det_index); every row has the same size D."""
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


def detections_from_files(
    det_path: Path | str,
    emb_path: Path | str,
    image_size: Optional[Tuple[int, int]] = None,
) -> Tuple[List[List[Detection]], Tuple[int, int]]:
    """Join a detection file with its embedding sidecar.

    Returns the detections of frames 1..max and the resolved image size.
    Every detection needs a sidecar row and every sidecar row a detection.
    """
    parsed, size = parse_mot_file(det_path, image_size)
    embeddings = read_embeddings_csv(emb_path)
    frames: List[List[Detection]] = []
    for frame, entries in enumerate(parsed, start=1):
        dets = []
        for det_index, (_, box, conf) in enumerate(entries):
            embedding = embeddings.pop((frame, det_index), None)
            if embedding is None:
                raise ValueError(
                    f"{emb_path}: missing embedding for frame {frame} detection {det_index}"
                )
            try:
                dets.append(Detection(box, embedding, conf))
            except ValueError as exc:
                where = f"{det_path}: frame {frame} detection {det_index}"
                raise ValueError(f"{where}: {exc}") from None
        frames.append(dets)
    if embeddings:
        frame, det_index = next(iter(embeddings))
        raise ValueError(
            f"{emb_path}: embedding for frame {frame} detection {det_index} matches no detection"
        )
    return frames, size


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


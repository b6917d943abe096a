"""Sparse-memory multi-object tracking toolkit.

A training-free memory layer for appearance-based trackers: each track
keeps a short bank of past embeddings, stores a new one only after the
object has moved far enough, prefers snapshots taken while the object
was unoccluded, and answers queries with a fused average of the current
embedding and the bank. The package bundles the memory itself, a
matching tracker, a synthetic benchmark with controllable appearance
drift, standard evaluation metrics, and a CLI that reproduces the
ablation and sweep tables.
"""

from .geometry import (
    Box2D,
    iou,
    iou_matrix,
    max_iou_vs_others,
)
from .memory import MemoryConfig, MemoryEntry, MemoryPolicy, TrackMemory
from .metrics import (
    ALPHA_GRID,
    MetricsReport,
    SequencePair,
    clear_mota,
    evaluate,
    hota,
    idf1,
)
from .mot_io import (
    RunConfig,
    apply_flat_config,
    detections_from_files,
    frames_to_id_boxes,
    parse_flat_config,
    parse_mot_file,
    parse_mot_text,
    write_mot_file,
    write_scenario,
)
from .rng import SplitMix64, splitmix64_next
from .simulator import Scenario, ScenarioConfig, generate_scenario
from .tracker import (
    FORBIDDEN_COST,
    Detection,
    FrameResult,
    Tracker,
    TrackerConfig,
    TrackState,
    build_cost_matrix,
    cosine_distance,
    hungarian_assign,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHA_GRID",
    "FORBIDDEN_COST",
    "Box2D",
    "Detection",
    "FrameResult",
    "MemoryConfig",
    "MemoryEntry",
    "MemoryPolicy",
    "MetricsReport",
    "RunConfig",
    "Scenario",
    "ScenarioConfig",
    "SequencePair",
    "SplitMix64",
    "TrackMemory",
    "TrackState",
    "Tracker",
    "TrackerConfig",
    "apply_flat_config",
    "build_cost_matrix",
    "clear_mota",
    "cosine_distance",
    "detections_from_files",
    "evaluate",
    "frames_to_id_boxes",
    "generate_scenario",
    "hota",
    "hungarian_assign",
    "idf1",
    "iou",
    "iou_matrix",
    "max_iou_vs_others",
    "parse_flat_config",
    "parse_mot_file",
    "parse_mot_text",
    "splitmix64_next",
    "write_mot_file",
    "write_scenario",
    "__version__",
]

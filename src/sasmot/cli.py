"""Command line entry point.

Subcommands:

* ``simulate``  write gt.txt / det.txt / embeddings.csv for one seed
* ``track``     run the tracker over a detection file plus embedding sidecar
* ``eval``      score a prediction file against a ground-truth file
* ``ablate``    memory ablation table (none / sparse / sparse+ofs)
* ``design``    storage-rule table (dense / sparse / delaying / sparse+ofs)
* ``sweep``     epsilon and memory-length hyperparameter sweep

Run configuration is a flat ``key = value`` text format with ``#`` comments
and dotted keys for nesting (``memory.epsilon = 0.1``), trivially parseable
from any language. Each config flag sets one key (``--out`` of ``simulate``
and the table commands sets ``output_dir``), and the given flags are merged
over the ``--config`` file's keys before anything is checked: every key is
checked, and every value that reaches the run is checked once, so a file
value that a flag replaces is not read. All outputs are deterministic for a
given configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from .experiments import (
    ablation_table,
    design_table,
    render_table_csv,
    render_table_markdown,
    sweep_table,
)
from .memory import MemoryConfig, MemoryPolicy
from .metrics import evaluate
from .mot_io import (
    detections_from_files,
    pair_from_files,
    parse_image_size,
    results_to_rows,
    write_mot_file,
    write_scenario,
)
from .simulator import ScenarioConfig, generate_scenario
from .tracker import Tracker, TrackerConfig

__all__ = ["main", "build_parser"]

DEFAULT_IMAGE_SIZE = (1920, 1080)

POLICY_CHOICES = tuple(p.value for p in MemoryPolicy)


@dataclass
class RunConfig:
    """Everything one experiment run needs."""

    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    tracker: TrackerConfig = field(default_factory=TrackerConfig)
    policy: MemoryPolicy = MemoryPolicy.SPARSE_OFS
    output_dir: Optional[Path] = None
    n_seeds: int = 5

    def __post_init__(self):
        if self.n_seeds < 1:
            raise ValueError(f"n_seeds must be >= 1, got {self.n_seeds}")


# Config sections by key prefix; "" is RunConfig itself. Every scalar field
# is a key, ``prefix.field``; a field holding a section is set through that
# section's own keys.
_SECTIONS = {"": RunConfig, "scenario": ScenarioConfig, "tracker": TrackerConfig,
             "memory": MemoryConfig}
_CONFIG_KEYS = {
    (f"{prefix}.{f.name}" if prefix else f.name): (prefix, f.name)
    for prefix, cls in _SECTIONS.items()
    for f in dataclasses.fields(cls)
    if f.name not in _SECTIONS
}
_CONFIG_KEYS["seed"] = _CONFIG_KEYS.pop("scenario.seed")
# Fields that a key could name but that are set another way.
_MISPLACED_KEYS = {"scenario.seed": "set the scenario seed via seed",
                   "tracker.memory": "set memory fields via memory.<field>"}


def parse_flat_config(text: str) -> Dict[str, str]:
    """Flat `key = value` lines; later keys override earlier.

    A `#` at the start of a line or after whitespace starts a comment, so
    `output_dir = runs/#1` keeps its `#`.
    """
    items: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"line {lineno}: expected key = value, got {line!r}")
        items[key.strip()] = re.split(r"\s#", value, maxsplit=1)[0].strip()
    return items


def _coerce(dotted: str, current, value: str):
    if dotted == "policy":
        if value not in POLICY_CHOICES:
            names = ", ".join(POLICY_CHOICES)
            raise ValueError(f"policy must be one of {names}, got {value!r}")
        return MemoryPolicy(value)
    if dotted == "output_dir":
        if not value:
            raise ValueError(f"{dotted}: empty path")
        return Path(value)
    # Every other settable value is an int or a float.
    try:
        return type(current)(value)
    except ValueError as exc:
        raise ValueError(f"{dotted}: {exc}") from None


def apply_flat_config(run: RunConfig, items: Dict[str, str]) -> RunConfig:
    """Set dotted keys on a RunConfig; every key is checked, and each
    dataclass is built and checked once, on its final values."""
    sections = {"": run, "scenario": run.scenario, "tracker": run.tracker,
                "memory": run.tracker.memory}
    changes: Dict[str, Dict[str, object]] = {prefix: {} for prefix in sections}
    for dotted, value in items.items():
        if dotted not in _CONFIG_KEYS:
            raise ValueError(_MISPLACED_KEYS.get(dotted, f"unknown config key {dotted!r}"))
        prefix, name = _CONFIG_KEYS[dotted]
        changes[prefix][name] = _coerce(dotted, getattr(sections[prefix], name), value)
    memory = dataclasses.replace(run.tracker.memory, **changes["memory"])
    tracker = dataclasses.replace(run.tracker, memory=memory, **changes["tracker"])
    scenario = dataclasses.replace(run.scenario, **changes["scenario"])
    return dataclasses.replace(run, scenario=scenario, tracker=tracker, **changes[""])


# Every config flag as (flag, config key, argparse options), in groups. A
# flag's dest is its config key, so ``_resolve_run`` reads the given flags
# back by key.
_SCENARIO_FLAGS = (
    ("--seed", "seed", dict(type=int, help="base scenario seed")),
    ("--n-objects", "scenario.n_objects", dict(type=int)),
    ("--n-frames", "scenario.n_frames", dict(type=int)),
)
_SEED_FLAGS = (
    ("--n-seeds", "n_seeds",
     dict(type=int, help="number of consecutive seeds starting at --seed")),
)
# Only ``track`` and ``sweep`` take a policy; ``ablate`` and ``design`` run
# fixed policy rows.
_POLICY_FLAGS = (
    ("--policy", "policy",
     dict(choices=POLICY_CHOICES, help="memory storage policy (default sparse+ofs)")),
)
_MEMORY_FLAGS = (
    ("--epsilon", "memory.epsilon",
     dict(type=float, help="displacement threshold before a store")),
    ("--memory-len", "memory.m_max", dict(type=int, help="memory capacity per track")),
    ("--alpha", "memory.alpha",
     dict(type=float, help="query fusion weight on the current embedding")),
)
_TRACKER_FLAGS = (
    ("--match-threshold", "tracker.match_threshold", dict(type=float)),
    ("--iou-gate", "tracker.iou_gate", dict(type=float)),
    ("--min-score", "tracker.min_score", dict(type=float)),
    ("--max-misses", "tracker.max_misses", dict(type=int)),
    ("--cost-blend", "tracker.cost_blend", dict(type=float)),
)
# A string, so that an empty path reaches the key's own check.
_OUT_DIR_FLAGS = (("--out", "output_dir", dict(help="output directory")),)

# ``eval`` table columns; lower-cased, each names a MetricsReport field and
# is its report.csv header.
_EVAL_COLUMNS = ("HOTA", "DetA", "AssA", "MOTA", "IDF1", "IDSW")


def _add_flags(parser: argparse.ArgumentParser, *groups) -> None:
    for group in groups:
        for flag, key, options in group:
            parser.add_argument(flag, dest=key, default=None, **options)


def _resolve_run(args: argparse.Namespace) -> RunConfig:
    """The ``--config`` file's keys, then every given flag on top, applied
    once: every key is checked, and a file value a flag replaces is not read."""
    items = parse_flat_config(args.config.read_text()) if args.config is not None else {}
    items.update((key, str(value)) for key, value in vars(args).items()
                 if key in _CONFIG_KEYS and value is not None)
    return apply_flat_config(RunConfig(), items)


def _image_size(
    args: argparse.Namespace, default: Optional[Tuple[int, int]] = None
) -> Optional[Tuple[int, int]]:
    """``--image-size`` as (W, H), or ``default`` when the flag is absent."""
    if args.image_size is None:
        return default
    return parse_image_size(args.image_size)


def _resolve_out_dir(run: RunConfig) -> Path:
    if run.output_dir is None:
        raise ValueError("no output directory: pass --out or set output_dir in the config")
    return run.output_dir


def cmd_simulate(args: argparse.Namespace) -> int:
    run = _resolve_run(args)
    image_size = _image_size(args, DEFAULT_IMAGE_SIZE)
    out_dir = _resolve_out_dir(run)
    for path in write_scenario(generate_scenario(run.scenario), out_dir, image_size):
        print(f"wrote {path}")
    return 0


def cmd_track(args: argparse.Namespace) -> int:
    run = _resolve_run(args)
    frames, image_size = detections_from_files(args.det, args.emb, _image_size(args))
    tracker = Tracker(run.tracker, policy=run.policy)
    results = [tracker.step(dets, idx) for idx, dets in enumerate(frames, start=1)]
    write_mot_file(args.out, results_to_rows(results, image_size), image_size)
    print(f"wrote {args.out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    report = evaluate(pair_from_files(args.gt, args.pred, _image_size(args)))
    row = {name: getattr(report, name.lower()) for name in _EVAL_COLUMNS}
    print(render_table_markdown([row]))
    if args.out is not None:
        csv_row = {name.lower(): value for name, value in row.items()}
        Path(args.out).write_text(render_table_csv([csv_row]) + "\n")
        print(f"wrote {args.out}")
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    run = _resolve_run(args)
    out_dir = _resolve_out_dir(run)
    # Fail on an unusable output directory before computing any seed.
    out_dir.mkdir(parents=True, exist_ok=True)
    # Only the commands that take --policy pass it; the policy tables run fixed rows.
    policy = {"policy": run.policy} if "policy" in vars(args) else {}
    seeds = list(range(run.scenario.seed, run.scenario.seed + run.n_seeds))
    table, lines = args.build(run.scenario, run.tracker, seeds, **policy)
    markdown = render_table_markdown(table)
    if lines:
        markdown += "\n\n" + "\n".join(lines)
    md_path, csv_path = out_dir / f"{args.stem}.md", out_dir / f"{args.stem}.csv"
    md_path.write_text(markdown + "\n")
    csv_path.write_text(render_table_csv(table) + "\n")
    print(markdown)
    print(f"wrote {md_path}")
    print(f"wrote {csv_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sasmot",
        description="Sparse-memory multi-object tracking toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic scenario")
    p_sim.add_argument("--config", type=Path, default=None,
                       help="flat key = value config file")
    _add_flags(p_sim, _SCENARIO_FLAGS)
    p_sim.add_argument("--image-size", type=str, default=None,
                       help="pixel canvas as WxH (default 1920x1080)")
    _add_flags(p_sim, _OUT_DIR_FLAGS)
    p_sim.set_defaults(func=cmd_simulate)

    p_track = sub.add_parser("track", help="track detections from files")
    p_track.add_argument("--det", type=Path, required=True, help="detection file")
    p_track.add_argument("--emb", type=Path, required=True, help="embedding sidecar")
    p_track.add_argument("--out", type=Path, required=True, help="result file")
    p_track.add_argument("--config", type=Path, default=None)
    p_track.add_argument("--image-size", type=str, default=None)
    _add_flags(p_track, _POLICY_FLAGS, _MEMORY_FLAGS, _TRACKER_FLAGS)
    p_track.set_defaults(func=cmd_track)

    p_eval = sub.add_parser("eval", help="score predictions against ground truth")
    p_eval.add_argument("--gt", type=Path, required=True)
    p_eval.add_argument("--pred", type=Path, required=True)
    p_eval.add_argument("--image-size", type=str, default=None)
    p_eval.add_argument("--out", type=Path, default=None, help="report CSV path")
    p_eval.set_defaults(func=cmd_eval)

    for name, helptext, stem, build, policy_flags in (
        ("ablate", "memory ablation over seeds", "ablation", ablation_table, ()),
        ("design", "storage-rule comparison over seeds", "design", design_table, ()),
        ("sweep", "epsilon and capacity sweep over seeds", "sweep", sweep_table, _POLICY_FLAGS),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", type=Path, default=None,
                       help="flat key = value config file")
        _add_flags(p, _SCENARIO_FLAGS, _SEED_FLAGS, policy_flags, _MEMORY_FLAGS, _TRACKER_FLAGS,
                   _OUT_DIR_FLAGS)
        p.set_defaults(func=cmd_table, stem=stem, build=build)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

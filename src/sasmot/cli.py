"""Command line entry point.

Subcommands:

* ``simulate``  write gt.txt / det.txt / embeddings.csv for one seed
* ``track``     run the tracker over a detection file plus embedding sidecar
* ``eval``      score a prediction file against a ground-truth file
* ``ablate``    memory ablation table (none / sparse / sparse+ofs)
* ``design``    storage-rule table (dense / sparse / delaying / sparse+ofs)
* ``sweep``     epsilon and memory-length hyperparameter sweep

Options may come from a flat ``key = value`` config file (``--config``);
explicit flags always win over the file. All outputs are deterministic
for a given configuration.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .experiments import (
    ABLATION_ROWS,
    DESIGN_ROWS,
    ablation_table,
    design_table,
    paired_sign_test,
    render_table_csv,
    render_table_markdown,
    sweep_table,
)
from .memory import MemoryPolicy
from .metrics import SequencePair, evaluate
from .mot_io import (
    RunConfig,
    apply_flat_config,
    detections_from_files,
    frames_to_id_boxes,
    parse_flat_config,
    parse_image_size,
    parse_mot_file,
    results_to_rows,
    write_mot_file,
    write_scenario,
)
from .simulator import generate_scenario
from .tracker import Tracker

__all__ = ["main", "build_parser"]

DEFAULT_IMAGE_SIZE = (1920, 1080)

POLICY_CHOICES = tuple(p.value for p in MemoryPolicy)

# Every config flag as (flag, dotted config key, argparse options), in
# groups. The parser is built from these rows and ``_resolve_run`` reads
# them back; a flag's dest is argparse's default for it.
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
_CONFIG_FLAGS = _SCENARIO_FLAGS + _SEED_FLAGS + _POLICY_FLAGS + _MEMORY_FLAGS + _TRACKER_FLAGS

# ``eval`` table columns; lower-cased, each names a MetricsReport field and
# is its report.csv header.
_EVAL_COLUMNS = ("HOTA", "DetA", "AssA", "MOTA", "IDF1", "IDSW")


def _add_flags(parser: argparse.ArgumentParser, *groups) -> None:
    for group in groups:
        for flag, _, options in group:
            parser.add_argument(flag, default=None, **options)


def _resolve_run(args: argparse.Namespace) -> RunConfig:
    """Config file first, then explicit flags on top, one validation path."""
    run = RunConfig()
    if getattr(args, "config", None) is not None:
        run = apply_flat_config(run, parse_flat_config(args.config.read_text()))
    given = vars(args)
    overrides = {}
    for flag, dotted, _ in _CONFIG_FLAGS:
        value = given.get(flag[2:].replace("-", "_"))
        if value is not None:
            overrides[dotted] = str(value)
    return apply_flat_config(run, overrides)


def _image_size(
    args: argparse.Namespace, default: Optional[Tuple[int, int]] = None
) -> Optional[Tuple[int, int]]:
    """``--image-size`` as (W, H), or ``default`` when the flag is absent."""
    if args.image_size is None:
        return default
    return parse_image_size(args.image_size)


def _resolve_out_dir(args: argparse.Namespace, run: RunConfig) -> Path:
    if args.out is not None:
        return Path(args.out)
    if run.output_dir is not None:
        return run.output_dir
    raise ValueError("no output directory: pass --out or set output_dir in the config")


def _seed_list(run: RunConfig) -> List[int]:
    base = run.scenario.seed
    return list(range(base, base + run.n_seeds))


def cmd_simulate(args: argparse.Namespace) -> int:
    run = _resolve_run(args)
    image_size = _image_size(args, DEFAULT_IMAGE_SIZE)
    out_dir = _resolve_out_dir(args, run)
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
    image_size = _image_size(args)
    gt, _ = parse_mot_file(args.gt, image_size)
    pred, _ = parse_mot_file(args.pred, image_size)
    n_frames = max(len(gt), len(pred))
    pair = SequencePair(
        gt=frames_to_id_boxes(gt, n_frames),
        pred=frames_to_id_boxes(pred, n_frames),
    )
    report = evaluate(pair)
    row = {name: getattr(report, name.lower()) for name in _EVAL_COLUMNS}
    print(render_table_markdown([row]))
    if args.out is not None:
        csv_row = {name.lower(): value for name, value in row.items()}
        Path(args.out).write_text(render_table_csv([csv_row]) + "\n")
        print(f"wrote {args.out}")
    return 0


def _write_experiment(
    out_dir: Path, stem: str, table: List[Dict[str, object]], extra_lines: Sequence[str] = ()
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    markdown = render_table_markdown(table)
    if extra_lines:
        markdown += "\n\n" + "\n".join(extra_lines)
    (out_dir / f"{stem}.md").write_text(markdown + "\n")
    (out_dir / f"{stem}.csv").write_text(render_table_csv(table) + "\n")
    print(markdown)
    print(f"wrote {out_dir / (stem + '.md')}")
    print(f"wrote {out_dir / (stem + '.csv')}")


class _PolicyTable(NamedTuple):
    """One policy-table command: output stem, builder, rows, sign tests."""

    stem: str
    build: Callable
    rows: Tuple[Tuple[str, MemoryPolicy], ...]
    pairs: Tuple[Tuple[str, str], ...]  # (baseline label, treatment label)
    metrics: Tuple[str, ...]


_ABLATE = _PolicyTable(
    "ablation", ablation_table, ABLATION_ROWS,
    (("baseline", "+sasm"), ("+sasm", "+sasm+ofs")), ("assa", "idf1"),
)
_DESIGN = _PolicyTable(
    "design", design_table, DESIGN_ROWS,
    (("dense", "sparse"), ("delaying", "sparse+ofs")), ("hota",),
)


def cmd_policy_table(args: argparse.Namespace) -> int:
    spec: _PolicyTable = args.table
    run = _resolve_run(args)
    out_dir = _resolve_out_dir(args, run)
    table, suite = spec.build(run.scenario, run.tracker, _seed_list(run))
    policy_of = dict(spec.rows)
    lines = []
    for base_label, treat_label in spec.pairs:
        for metric in spec.metrics:
            base = [getattr(r, metric) for r in suite[policy_of[base_label]]]
            treat = [getattr(r, metric) for r in suite[policy_of[treat_label]]]
            wins, n, p = paired_sign_test(base, treat)
            lines.append(
                f"{base_label} -> {treat_label} on {metric}: "
                f"wins {wins}/{n}, one-sided sign test p = {p:.6g}"
            )
    _write_experiment(out_dir, spec.stem, table, lines)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    run = _resolve_run(args)
    out_dir = _resolve_out_dir(args, run)
    table = sweep_table(run.scenario, run.tracker, _seed_list(run), run.policy)
    _write_experiment(out_dir, "sweep", table)
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
    p_sim.add_argument("--out", type=Path, default=None, help="output directory")
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

    for name, helptext, func, table, policy_flags in (
        ("ablate", "memory ablation over seeds", cmd_policy_table, _ABLATE, ()),
        ("design", "storage-rule comparison over seeds", cmd_policy_table, _DESIGN, ()),
        ("sweep", "epsilon and capacity sweep over seeds", cmd_sweep, None, _POLICY_FLAGS),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", type=Path, default=None,
                       help="flat key = value config file")
        _add_flags(p, _SCENARIO_FLAGS, _SEED_FLAGS, policy_flags, _MEMORY_FLAGS, _TRACKER_FLAGS)
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.set_defaults(func=func, table=table)

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

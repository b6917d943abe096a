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
from typing import Dict, List, Optional, Sequence, Tuple

from .experiments import (
    ablation_table,
    design_table,
    paired_sign_test,
    render_table_csv,
    render_table_markdown,
    run_policy_suite,
    sweep_table,
)
from .memory import MemoryPolicy
from .metrics import SequencePair, evaluate, report_csv, report_markdown
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

# argparse dest -> dotted config key; flags override file values.
_OVERRIDE_KEYS: Dict[str, str] = {
    "seed": "seed",
    "n_seeds": "n_seeds",
    "policy": "policy",
    "epsilon": "memory.epsilon",
    "memory_len": "memory.m_max",
    "alpha": "memory.alpha",
    "match_threshold": "tracker.match_threshold",
    "iou_gate": "tracker.iou_gate",
    "min_score": "tracker.min_score",
    "max_misses": "tracker.max_misses",
    "cost_blend": "tracker.cost_blend",
    "n_objects": "scenario.n_objects",
    "n_frames": "scenario.n_frames",
}


def _add_memory_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--policy", choices=POLICY_CHOICES, default=None,
                        help="memory storage policy (default sparse+ofs)")
    parser.add_argument("--epsilon", type=float, default=None,
                        help="displacement threshold before a store")
    parser.add_argument("--memory-len", type=int, default=None, dest="memory_len",
                        help="memory capacity per track")
    parser.add_argument("--alpha", type=float, default=None,
                        help="query fusion weight on the current embedding")


def _add_tracker_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--match-threshold", type=float, default=None)
    parser.add_argument("--iou-gate", type=float, default=None)
    parser.add_argument("--min-score", type=float, default=None)
    parser.add_argument("--max-misses", type=int, default=None)
    parser.add_argument("--cost-blend", type=float, default=None)


def _add_common(parser: argparse.ArgumentParser, with_seeds: bool = False) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="flat key = value config file")
    parser.add_argument("--seed", type=int, default=None, help="base scenario seed")
    parser.add_argument("--n-objects", type=int, default=None, dest="n_objects")
    parser.add_argument("--n-frames", type=int, default=None, dest="n_frames")
    parser.add_argument("--image-size", type=str, default=None, dest="image_size",
                        help="pixel canvas as WxH (default 1920x1080)")
    if with_seeds:
        parser.add_argument("--n-seeds", type=int, default=None, dest="n_seeds",
                            help="number of consecutive seeds starting at --seed")


def _resolve_run(args: argparse.Namespace) -> RunConfig:
    """Config file first, then explicit flags on top, one validation path."""
    run = RunConfig()
    if getattr(args, "config", None) is not None:
        run = apply_flat_config(run, parse_flat_config(args.config.read_text()))
    overrides: Dict[str, str] = {}
    for dest, dotted in _OVERRIDE_KEYS.items():
        value = getattr(args, dest, None)
        if value is not None:
            overrides[dotted] = str(value)
    if overrides:
        run = apply_flat_config(run, overrides)
    return run


def _resolve_image_size(args: argparse.Namespace) -> Tuple[int, int]:
    if getattr(args, "image_size", None) is not None:
        return parse_image_size(args.image_size)
    return DEFAULT_IMAGE_SIZE


def _resolve_out_dir(args: argparse.Namespace, run: RunConfig) -> Path:
    out = getattr(args, "out", None)
    if out is not None:
        return Path(out)
    if run.output_dir is not None:
        return run.output_dir
    raise ValueError("no output directory: pass --out or set output_dir in the config")


def _seed_list(run: RunConfig) -> List[int]:
    base = run.scenario.seed
    return list(range(base, base + run.n_seeds))


def cmd_simulate(args: argparse.Namespace) -> int:
    run = _resolve_run(args)
    image_size = _resolve_image_size(args)
    out_dir = _resolve_out_dir(args, run)
    scenario = generate_scenario(run.scenario)
    gt_path, det_path, emb_path = write_scenario(scenario, out_dir, image_size)
    print(f"wrote {gt_path}")
    print(f"wrote {det_path}")
    print(f"wrote {emb_path}")
    return 0


def cmd_track(args: argparse.Namespace) -> int:
    run = _resolve_run(args)
    image_size = None
    if args.image_size is not None:
        image_size = parse_image_size(args.image_size)
    frames, image_size = detections_from_files(args.det, args.emb, image_size)
    tracker = Tracker(run.tracker, policy=run.policy)
    results = [tracker.step(dets, idx) for idx, dets in enumerate(frames, start=1)]
    write_mot_file(args.out, results_to_rows(results, image_size), image_size)
    print(f"wrote {args.out}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    image_size = None
    if args.image_size is not None:
        image_size = parse_image_size(args.image_size)
    gt = parse_mot_file(args.gt, image_size)
    pred = parse_mot_file(args.pred, image_size)
    n_frames = max(gt.max_frame, pred.max_frame)
    pair = SequencePair(
        gt=frames_to_id_boxes(gt, n_frames),
        pred=frames_to_id_boxes(pred, n_frames),
    )
    report = evaluate(pair)
    print(report_markdown(report))
    if args.out is not None:
        Path(args.out).write_text(report_csv(report))
        print(f"wrote {args.out}")
    return 0


def _sign_test_lines(
    suite, pairs: Sequence[Tuple[str, MemoryPolicy, str, MemoryPolicy]], metrics: Sequence[str]
) -> List[str]:
    lines = []
    for base_label, base_policy, treat_label, treat_policy in pairs:
        for metric in metrics:
            base = [getattr(r, metric) for r in suite[base_policy]]
            treat = [getattr(r, metric) for r in suite[treat_policy]]
            wins, n, p = paired_sign_test(base, treat)
            lines.append(
                f"{base_label} -> {treat_label} on {metric}: "
                f"wins {wins}/{n}, one-sided sign test p = {p:.6g}"
            )
    return lines


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


def cmd_ablate(args: argparse.Namespace) -> int:
    run = _resolve_run(args)
    out_dir = _resolve_out_dir(args, run)
    table, suite = ablation_table(run.scenario, run.tracker, _seed_list(run))
    lines = _sign_test_lines(
        suite,
        [
            ("baseline", MemoryPolicy.NONE, "+sasm", MemoryPolicy.SPARSE),
            ("+sasm", MemoryPolicy.SPARSE, "+sasm+ofs", MemoryPolicy.SPARSE_OFS),
        ],
        ("assa", "idf1"),
    )
    _write_experiment(out_dir, "ablation", table, lines)
    return 0


def cmd_design(args: argparse.Namespace) -> int:
    run = _resolve_run(args)
    out_dir = _resolve_out_dir(args, run)
    table, suite = design_table(run.scenario, run.tracker, _seed_list(run))
    lines = _sign_test_lines(
        suite,
        [
            ("dense", MemoryPolicy.DENSE, "sparse", MemoryPolicy.SPARSE),
            ("delaying", MemoryPolicy.DELAYING, "sparse+ofs", MemoryPolicy.SPARSE_OFS),
        ],
        ("hota",),
    )
    _write_experiment(out_dir, "design", table, lines)
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
    _add_common(p_sim)
    p_sim.add_argument("--out", type=Path, default=None, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_track = sub.add_parser("track", help="track detections from files")
    p_track.add_argument("--det", type=Path, required=True, help="detection file")
    p_track.add_argument("--emb", type=Path, required=True, help="embedding sidecar")
    p_track.add_argument("--out", type=Path, required=True, help="result file")
    p_track.add_argument("--config", type=Path, default=None)
    p_track.add_argument("--image-size", type=str, default=None, dest="image_size")
    _add_memory_flags(p_track)
    _add_tracker_flags(p_track)
    p_track.set_defaults(func=cmd_track)

    p_eval = sub.add_parser("eval", help="score predictions against ground truth")
    p_eval.add_argument("--gt", type=Path, required=True)
    p_eval.add_argument("--pred", type=Path, required=True)
    p_eval.add_argument("--image-size", type=str, default=None, dest="image_size")
    p_eval.add_argument("--out", type=Path, default=None, help="report CSV path")
    p_eval.set_defaults(func=cmd_eval)

    for name, func, helptext in (
        ("ablate", cmd_ablate, "memory ablation over seeds"),
        ("design", cmd_design, "storage-rule comparison over seeds"),
        ("sweep", cmd_sweep, "epsilon and capacity sweep over seeds"),
    ):
        p = sub.add_parser(name, help=helptext)
        _add_common(p, with_seeds=True)
        _add_memory_flags(p)
        _add_tracker_flags(p)
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.set_defaults(func=func)

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

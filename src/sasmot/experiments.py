"""Multi-seed experiment drivers: ablations, design comparisons, sweeps.

Every experiment follows the same shape: generate one scenario per seed,
run each memory policy on the *same* scenario, evaluate, and aggregate
means across seeds. Sharing the scenario across policies makes the
comparisons paired, which is what the sign test assumes. Seeds run one
after another, in the order given.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .memory import MemoryPolicy
from .metrics import MetricsReport, SequencePair, evaluate
from .simulator import Scenario, ScenarioConfig, generate_scenario
from .tracker import FrameResult, Tracker, TrackerConfig

__all__ = [
    "EPSILON_GRID",
    "MEMORY_GRID",
    "track_scenario",
    "evaluate_tracking",
    "run_policy_suite",
    "mean",
    "paired_sign_test",
    "ablation_table",
    "design_table",
    "sweep_table",
    "render_table_markdown",
    "render_table_csv",
]

EPSILON_GRID: Tuple[float, ...] = (0.05, 0.1, 0.2, 0.3, 0.4)
MEMORY_GRID: Tuple[int, ...] = (5, 10, 15, 20)

# Each policy table: row label -> policy in presentation order, the
# (baseline label, treatment label) pairs that get a sign test, and the
# metrics each pair is tested on.
_ABLATION_ROWS: Tuple[Tuple[str, MemoryPolicy], ...] = (
    ("baseline", MemoryPolicy.NONE),
    ("+sasm", MemoryPolicy.SPARSE),
    ("+sasm+ofs", MemoryPolicy.SPARSE_OFS),
)
_ABLATION_PAIRS = (("baseline", "+sasm"), ("+sasm", "+sasm+ofs"))
_ABLATION_METRICS = ("assa", "idf1")

_DESIGN_ROWS: Tuple[Tuple[str, MemoryPolicy], ...] = (
    ("dense", MemoryPolicy.DENSE),
    ("sparse", MemoryPolicy.SPARSE),
    ("delaying", MemoryPolicy.DELAYING),
    ("sparse+ofs", MemoryPolicy.SPARSE_OFS),
)
_DESIGN_PAIRS = (("dense", "sparse"), ("delaying", "sparse+ofs"))
_DESIGN_METRICS = ("hota",)

_METRIC_FIELDS = ("hota", "deta", "assa", "mota", "idf1")


def track_scenario(
    scenario: Scenario,
    tracker_cfg: Optional[TrackerConfig] = None,
    policy: MemoryPolicy = MemoryPolicy.SPARSE_OFS,
) -> List[FrameResult]:
    """Run the tracker over every detection frame of a scenario."""
    tracker = Tracker(tracker_cfg, policy=policy)
    return [
        tracker.step(dets, frame_idx)
        for frame_idx, dets in enumerate(scenario.detections, start=1)
    ]


def evaluate_tracking(scenario: Scenario, results: Sequence[FrameResult]) -> MetricsReport:
    return evaluate(SequencePair(gt=scenario.gt, pred=[r.tracks for r in results]))


def _run_variants(
    base_cfg: ScenarioConfig,
    variants: Sequence[Tuple[Optional[TrackerConfig], MemoryPolicy]],
    seeds: Sequence[int],
) -> List[List[MetricsReport]]:
    """Reports per (tracker config, policy) variant over seeds.

    Each seed's scenario is generated once and shared by every variant.
    """
    per_variant: List[List[MetricsReport]] = [[] for _ in variants]
    for seed in seeds:
        scenario = generate_scenario(dataclasses.replace(base_cfg, seed=seed))
        for (cfg, policy), reports in zip(variants, per_variant):
            reports.append(evaluate_tracking(scenario, track_scenario(scenario, cfg, policy)))
        # Drop the scene before the next one is generated, so only one is
        # ever held.
        del scenario
    return per_variant


def run_policy_suite(
    base_cfg: ScenarioConfig,
    tracker_cfg: Optional[TrackerConfig],
    policies: Sequence[MemoryPolicy],
    seeds: Sequence[int],
) -> Dict[MemoryPolicy, List[MetricsReport]]:
    """Per-policy reports over seeds; each seed's scenario is shared by all policies."""
    unique = list(dict.fromkeys(policies))
    reports = _run_variants(base_cfg, [(tracker_cfg, policy) for policy in unique], seeds)
    return dict(zip(unique, reports))


def mean(values: Iterable[float]) -> float:
    xs = list(values)
    if not xs:
        raise ValueError("mean of empty sequence")
    return sum(xs) / len(xs)


def paired_sign_test(baseline: Sequence[float], treatment: Sequence[float]) -> Tuple[int, int, float]:
    """One-sided sign test that treatment > baseline on paired values.

    Ties are dropped. Returns (wins, n_informative, p_value) where the
    p-value is the exact binomial tail P(X >= wins) under fair coin flips.
    """
    if len(baseline) != len(treatment):
        raise ValueError("paired samples must have equal length")
    wins = sum(1 for b, t in zip(baseline, treatment) if t > b)
    losses = sum(1 for b, t in zip(baseline, treatment) if t < b)
    n = wins + losses
    if n == 0:
        return 0, 0, 1.0
    p = sum(math.comb(n, k) for k in range(wins, n + 1)) / 2**n
    return wins, n, p


_Table = List[Dict[str, object]]


def _summary_rows(
    heads: Sequence[Dict[str, object]], reports: Sequence[Sequence[MetricsReport]]
) -> _Table:
    """One table row per head: its leading columns, then each core metric's
    mean over seeds and the mean switch count."""
    return [
        {
            **head,
            **{name: mean(getattr(r, name) for r in runs) for name in _METRIC_FIELDS},
            "idsw": mean(float(r.idsw) for r in runs),
        }
        for head, runs in zip(heads, reports)
    ]


def _policy_table(
    rows: Sequence[Tuple[str, MemoryPolicy]],
    pairs: Sequence[Tuple[str, str]],
    metrics: Sequence[str],
    base_cfg: ScenarioConfig,
    tracker_cfg: Optional[TrackerConfig],
    seeds: Sequence[int],
) -> Tuple[_Table, List[str]]:
    labels = [label for label, _ in rows]
    runs = _run_variants(base_cfg, [(tracker_cfg, policy) for _, policy in rows], seeds)
    reports = dict(zip(labels, runs))
    table = _summary_rows([{"variant": label} for label in labels], runs)
    lines = []
    for base_label, treat_label in pairs:
        for metric in metrics:
            base = [getattr(r, metric) for r in reports[base_label]]
            treat = [getattr(r, metric) for r in reports[treat_label]]
            wins, n, p = paired_sign_test(base, treat)
            lines.append(
                f"{base_label} -> {treat_label} on {metric}: "
                f"wins {wins}/{n}, one-sided sign test p = {p:.6g}"
            )
    return table, lines


def ablation_table(
    base_cfg: ScenarioConfig,
    tracker_cfg: Optional[TrackerConfig],
    seeds: Sequence[int],
) -> Tuple[_Table, List[str]]:
    """Stacked ablation: no memory, sparse memory, sparse memory + selector.

    Returns the table and one sign-test line per (step, metric).
    """
    return _policy_table(
        _ABLATION_ROWS, _ABLATION_PAIRS, _ABLATION_METRICS, base_cfg, tracker_cfg, seeds
    )


def design_table(
    base_cfg: ScenarioConfig,
    tracker_cfg: Optional[TrackerConfig],
    seeds: Sequence[int],
) -> Tuple[_Table, List[str]]:
    """Storage-rule comparison: dense vs sparse, delaying vs overlap-aware.

    Returns the table and one sign-test line per compared pair.
    """
    return _policy_table(
        _DESIGN_ROWS, _DESIGN_PAIRS, _DESIGN_METRICS, base_cfg, tracker_cfg, seeds
    )


def sweep_table(
    base_cfg: ScenarioConfig,
    tracker_cfg: Optional[TrackerConfig],
    seeds: Sequence[int],
    policy: MemoryPolicy = MemoryPolicy.SPARSE_OFS,
) -> Tuple[_Table, List[str]]:
    """Hyperparameter sweep: epsilon at fixed size, then size at fixed epsilon.

    Scenarios depend only on the seed, so they are generated once per seed
    and reused across every (epsilon, m_max) cell. Returns the table and no
    sign-test lines, so it has the shape of the policy tables.
    """
    cfg = tracker_cfg if tracker_cfg is not None else TrackerConfig()
    cells = [("epsilon", eps, cfg.memory.m_max) for eps in EPSILON_GRID]
    cells += [("memory_len", cfg.memory.epsilon, m) for m in MEMORY_GRID]
    memories = [dataclasses.replace(cfg.memory, epsilon=eps, m_max=m) for _, eps, m in cells]
    variants = [(dataclasses.replace(cfg, memory=memory), policy) for memory in memories]
    heads = [{"sweep": kind, "epsilon": eps, "memory_len": m} for kind, eps, m in cells]
    return _summary_rows(heads, _run_variants(base_cfg, variants, seeds)), []


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def render_table_markdown(table: Sequence[Dict[str, object]]) -> str:
    """Aligned markdown table; column order follows the first row's keys."""
    if not table:
        return ""
    columns = list(table[0].keys())
    cells = [[_format_cell(row[c]) for c in columns] for row in table]
    widths = [
        max(len(columns[j]), max(len(r[j]) for r in cells)) for j in range(len(columns))
    ]
    header = "| " + " | ".join(c.ljust(w) for c, w in zip(columns, widths)) + " |"
    rule = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
    body = [
        "| " + " | ".join(v.rjust(w) for v, w in zip(r, widths)) + " |" for r in cells
    ]
    return "\n".join([header, rule, *body])


def render_table_csv(table: Sequence[Dict[str, object]]) -> str:
    if not table:
        return ""
    columns = list(table[0].keys())
    lines = [",".join(columns)]
    lines.extend(",".join(_format_cell(row[c]) for c in columns) for row in table)
    return "\n".join(lines)

"""Layer timings taken from outside the program.

The tracer replaces public functions of ``sasmot`` modules with timing
wrappers for the duration of a ``with tracer.installed():`` block. A
function is patched at every module that binds it (``sasmot.tracker.iou``
as well as ``sasmot.geometry.iou``), and a method on its class, so calls
made through any import path are seen. ``hungarian_assign`` is the one name
traced separately per binding site: the tracker's calls and the metrics'
calls are different layers.

For every wrapped name the tracer keeps calls, inclusive time and self time
(inclusive time minus the time of wrapped calls made inside it). For every
group it keeps busy time, counted only at the outermost open call of that
group so nested calls are not counted twice. Coarse calls are also kept as
spans in memory and written out by :meth:`Tracer.write_spans`; calls made
hundreds of thousands of times per run (``iou``, random draws, memory
updates) are only aggregated.

Tracing is single-threaded: the benchmark runs with ``SASM_THREADS`` unset.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import program  # noqa: F401  (the checkout's src/ on sys.path)
import sasmot  # noqa: F401  (loads every module that TARGETS names)

perf = time.perf_counter


def _count_cells(counters, args, result) -> None:
    counters["tracker.cost_cells"] += result.size


def _count_matches(counters, args, result) -> None:
    counters["tracker.matches"] += len(result)


def _count_read(counters, args, result) -> None:
    counters["mot_io.bytes_read"] += os.path.getsize(args[0])


def _count_written(counters, args, result) -> None:
    counters["mot_io.bytes_written"] += os.path.getsize(args[0])


@dataclass(frozen=True)
class Target:
    """One traced public name.

    ``where`` is ``module:attribute`` or ``module:Class.method``. ``group``
    defaults to the layer (the first part of ``name``). ``timed=False``
    only counts calls; ``span=False`` aggregates without keeping spans;
    ``site_only`` patches the named binding alone instead of every module
    binding the same function; ``work_of`` adds the call's inclusive time
    to that layer's work while a call of the layer is open; ``hook`` gets
    ``(counters, args, result)`` after a call returns.
    """

    name: str
    where: str
    group: str = ""
    timed: bool = True
    span: bool = True
    site_only: bool = False
    work_of: str = ""
    hook: Optional[Callable] = None


PARSE, WRITE = "mot_io.parse", "mot_io.write"

# Site-only entries come first so the module-wide entry for the same
# function skips the binding they claimed.
TARGETS: Tuple[Target, ...] = (
    Target("rng.next_u64", "sasmot.rng:SplitMix64.next_u64", timed=False),
    Target("rng.uniform", "sasmot.rng:SplitMix64.uniform", span=False),
    Target("rng.gauss", "sasmot.rng:SplitMix64.gauss", span=False),
    Target("geometry.iou", "sasmot.geometry:iou", span=False),
    Target("geometry.iou_matrix", "sasmot.geometry:iou_matrix", span=False),
    Target("geometry.max_iou_vs_others", "sasmot.geometry:max_iou_vs_others", span=False),
    Target("simulator.generate_scenario", "sasmot.simulator:generate_scenario",
           work_of="experiments"),
    Target("memory.observe", "sasmot.memory:TrackMemory.observe", span=False),
    Target("memory.fused_query", "sasmot.memory:TrackMemory.fused_query", span=False),
    Target("memory.commit_store", "sasmot.memory:TrackMemory.commit_store", span=False),
    Target("metrics.assign", "sasmot.metrics:hungarian_assign", site_only=True),
    Target("tracker.assign", "sasmot.tracker:hungarian_assign", hook=_count_matches),
    Target("tracker.cost_matrix", "sasmot.tracker:build_cost_matrix", hook=_count_cells),
    Target("tracker.step", "sasmot.tracker:Tracker.step"),
    Target("metrics.evaluate", "sasmot.metrics:evaluate"),
    Target("metrics.hota", "sasmot.metrics:hota"),
    Target("metrics.clear_mota", "sasmot.metrics:clear_mota"),
    Target("metrics.idf1", "sasmot.metrics:idf1"),
    Target("mot_io.parse_mot_text", "sasmot.mot_io:parse_mot_text", group=PARSE),
    Target("mot_io.parse_mot_file", "sasmot.mot_io:parse_mot_file", group=PARSE,
           hook=_count_read),
    Target("mot_io.read_embeddings_csv", "sasmot.mot_io:read_embeddings_csv", group=PARSE,
           hook=_count_read),
    Target("mot_io.detections_from_files", "sasmot.mot_io:detections_from_files", group=PARSE),
    Target("mot_io.frames_to_id_boxes", "sasmot.mot_io:frames_to_id_boxes", group=PARSE),
    Target("mot_io.write_mot_file", "sasmot.mot_io:write_mot_file", group=WRITE,
           hook=_count_written),
    Target("mot_io.write_embeddings_csv", "sasmot.mot_io:write_embeddings_csv", group=WRITE,
           hook=_count_written),
    Target("mot_io.write_scenario", "sasmot.mot_io:write_scenario", group=WRITE),
    Target("mot_io.results_to_rows", "sasmot.mot_io:results_to_rows", group=WRITE),
    Target("experiments.run_policy_suite", "sasmot.experiments:run_policy_suite"),
    Target("experiments.track_scenario", "sasmot.experiments:track_scenario",
           work_of="experiments"),
    Target("experiments.evaluate_tracking", "sasmot.experiments:evaluate_tracking",
           work_of="experiments"),
    Target("cli.main", "sasmot.cli:main"),
    Target("cli.cmd_simulate", "sasmot.cli:cmd_simulate"),
    Target("cli.cmd_track", "sasmot.cli:cmd_track"),
    Target("cli.cmd_eval", "sasmot.cli:cmd_eval"),
)


def _resolve(where: str):
    """(owner object, attribute name, original value) for ``module:attr``."""
    module_name, _, path = where.partition(":")
    owner = sys.modules[module_name]
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Aggregates calls, times, counters and spans of one traced block."""

    def __init__(self, unit: str = ""):
        self.unit = unit
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.busy: Dict[str, float] = defaultdict(float)
        self.work: Dict[str, float] = defaultdict(float)
        self.counters: Dict[str, float] = defaultdict(float)
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self._depth: Dict[str, int] = defaultdict(int)
        self._stack: List[list] = []  # open calls: [child seconds, span id, excluded at entry]
        self._next_id = 0
        self._excluded = 0.0

    def exclude(self, seconds: float) -> None:
        """Leave ``seconds`` the benchmark spent inside open calls out of their times."""
        self._excluded += seconds

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        patched: List[Tuple[object, str, object]] = []
        claimed = set()
        try:
            for target in TARGETS:
                owner, attr, original = _resolve(target.where)
                wrapper = self._wrap(target, original)
                if isinstance(owner, type) or target.site_only:
                    sites = [(owner, attr)]
                else:
                    sites = [
                        (module, name)
                        for module_name, module in list(sys.modules.items())
                        if module_name.split(".")[0] == "sasmot"
                        for name, value in list(vars(module).items())
                        if value is original
                    ]
                for owner_obj, name in sites:
                    if (id(owner_obj), name) in claimed:
                        continue
                    claimed.add((id(owner_obj), name))
                    patched.append((owner_obj, name, getattr(owner_obj, name)))
                    setattr(owner_obj, name, wrapper)
            yield self
        finally:
            for owner_obj, name, original in reversed(patched):
                setattr(owner_obj, name, original)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        name = target.name
        calls = self.calls
        if not target.timed:
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        group = target.group or name.split(".")[0]
        total, self_time, busy = self.total, self.self_time, self.busy
        work, depth, stack, spans = self.work, self._depth, self._stack, self.spans
        counters, hook, work_of, keep = self.counters, target.hook, target.work_of, target.span

        def traced(*args, **kwargs):
            outer = depth[group]
            depth[group] = outer + 1
            self._next_id += 1
            frame = [0.0, self._next_id, self._excluded]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                depth[group] = outer
                dur = t1 - t0 - (self._excluded - frame[2])
                calls[name] += 1
                total[name] += dur
                self_time[name] += dur - frame[0]
                if not outer:
                    busy[group] += dur
                if work_of and depth[work_of]:
                    work[work_of] += dur
                if stack:
                    stack[-1][0] += dur
                if keep:
                    spans.append((frame[1], parent, name, t0, t1))
            if hook is not None:
                hook(counters, args, result)
            return result

        return traced

    def write_spans(self, path: Path) -> None:
        """One JSON object per kept span, in completion order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span_id, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"unit": self.unit, "id": span_id, "parent": parent,
                                     "name": name, "start": t0, "end": t1}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(*tracers: Tracer) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics (value, unit) summed over the given tracers."""
    def add(attr: str):
        out: Dict[str, float] = defaultdict(float)
        for t in tracers:
            for key, value in getattr(t, attr).items():
                out[key] += value
        return out

    calls, total, self_time = add("calls"), add("total"), add("self_time")
    busy, work, counters = add("busy"), add("work"), add("counters")
    cells = counters["tracker.cost_cells"]
    commits = calls["memory.commit_store"]
    return {
        "simulator.busy_s": (busy["simulator"], "s"),
        "rng.draws": (calls["rng.next_u64"], "count"),
        "rng.busy_s": (busy["rng"], "s"),
        "geometry.iou_calls": (calls["geometry.iou"] + calls["geometry.iou_matrix"], "count"),
        "geometry.iou_busy_s": (busy["geometry"], "s"),
        "tracker.cost_matrix_s": (total["tracker.cost_matrix"], "s"),
        "tracker.cost_cells": (cells, "count"),
        "tracker.assign_s": (total["tracker.assign"], "s"),
        "tracker.step_self_s": (self_time["tracker.step"], "s"),
        "tracker.match_ratio": (_ratio(counters["tracker.matches"], cells), "ratio"),
        "memory.observe_s": (total["memory.observe"], "s"),
        "memory.fused_query_s": (total["memory.fused_query"], "s"),
        "memory.commits": (commits, "count"),
        "memory.commit_ratio": (_ratio(commits, calls["memory.observe"]), "ratio"),
        "metrics.hota_s": (total["metrics.hota"], "s"),
        "metrics.clear_s": (total["metrics.clear_mota"], "s"),
        "metrics.idf1_s": (total["metrics.idf1"], "s"),
        "metrics.assign_calls": (calls["metrics.assign"], "count"),
        "mot_io.parse_s": (busy[PARSE], "s"),
        "mot_io.write_s": (busy[WRITE], "s"),
        "mot_io.parse_calls": (calls["mot_io.parse_mot_text"]
                               + calls["mot_io.read_embeddings_csv"], "count"),
        "mot_io.bytes_read": (counters["mot_io.bytes_read"], "B"),
        "mot_io.bytes_written": (counters["mot_io.bytes_written"], "B"),
        "cli.self_s": (sum(v for k, v in self_time.items() if k.startswith("cli.")), "s"),
        "experiments.work_s": (work["experiments"], "s"),
        "experiments.concurrency": (_ratio(work["experiments"],
                                           total["experiments.run_policy_suite"]), "ratio"),
    }

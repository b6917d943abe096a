"""Tests of the benchmark itself, at the tiny profile.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run  # puts the checkout's src/ on sys.path first
import checks
import fingerprint
import pace
import workloads
from sasmot import metrics as metrics_mod
from sasmot import tracker as tracker_mod
from sasmot.geometry import Box2D
from tracer import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170)


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind):
    proc = _bench(HERE.parent, "--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), "--profile", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    units = {name: v["unit"] for name, v in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC[kind]}
    if kind == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_and_untraced_runs_give_the_same_fingerprint():
    frames = workloads.PROFILES["tiny"].frames
    plain = fingerprint.compute(frames)
    tracer = Tracer()
    original_step = tracker_mod.Tracker.step
    with tracer.installed():
        traced = fingerprint.compute(frames)
    assert tracer.calls["tracker.step"] > 0 and tracer.calls["metrics.assign"] > 0
    assert tracker_mod.Tracker.step is original_step
    assert traced == plain == json.loads((HERE / "fingerprint.json").read_text())["tiny"]


def test_step_latencies_are_medians_over_equal_rounds():
    probe = checks.StepProbe()
    probe.pace_samples = [pace.REFERENCE_S] * 3
    probe.raw_latencies = [1.0, 5.0, 3.0, 2.0, 4.0, 9.0, 7.0, 4.5, 2.0]
    probe._step_ends = [1.0] * 9
    probe._round_starts = [0, 3, 6]
    assert probe.step_latencies() == pytest.approx([2.0, 4.5, 3.0])
    probe._round_starts = [0, 4]
    assert probe.step_latencies() == pytest.approx(probe.raw_latencies)


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        wl = workloads.make("cli", "tiny", 0)
        tracer = Tracer()
        wl.setup()
        try:
            with tracer.installed():
                run.run_round(wl, checks.StepProbe(), _reference("cli"))
        finally:
            wl.close()
        layer = layer_metrics(tracer)
        counts.append({k: v for k, (v, unit) in layer.items() if unit in ("count", "B")})
        assert layer["cli.self_s"][0] > 0 and layer["mot_io.parse_calls"][0] == 5 * 4
    assert counts[0] == counts[1]


def _reference(workload):
    return json.loads(run.REFERENCE.read_text())["profiles"]["tiny"][workload]


def _shared_id(tracker, result):
    if len(result.tracks) >= 2:
        result.tracks[1] = (result.tracks[0][0], result.tracks[1][1])


def _foreign_box(tracker, result):
    if result.tracks:
        track_id, box = result.tracks[0]
        result.tracks[0] = (track_id, Box2D(box.cx, box.cy, box.w, box.h))


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("corrupt", [_shared_id, _foreign_box])
def test_corrupted_tracker_output_fails_units(workload, corrupt, monkeypatch):
    original = tracker_mod.Tracker.step

    def step(self, detections, frame_idx):
        result = original(self, detections, frame_idx)
        corrupt(self, result)
        return result

    monkeypatch.setattr(tracker_mod.Tracker, "step", step)
    tally = _one_round(workload)
    assert tally.attempted > 0 and tally.failed == tally.attempted


@pytest.mark.parametrize("workload", NAMES)
def test_corrupted_scores_fail_units(workload, monkeypatch):
    original = metrics_mod.hota

    def hota(pair):
        h, d, a = original(pair)
        return h + 1e-4, d, a

    monkeypatch.setattr(metrics_mod, "hota", hota)
    tally = _one_round(workload)
    assert tally.attempted > 0 and tally.failed == tally.attempted


def _one_round(workload):
    wl = workloads.make(workload, "tiny", 0)
    probe = checks.StepProbe()
    wl.setup()
    try:
        with probe.installed():
            return run.run_round(wl, probe, _reference(workload))
    finally:
        wl.close()


def test_fails_without_the_program_beside_it(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "suite", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0 and proc.stdout == ""

#!/usr/bin/env python3
"""sasmot benchmark. Run from the root of a checkout.

    python3 bench/run.py --workload suite --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20
    python3 bench/run.py --fingerprint
    python3 bench/run.py --make-reference

One workload per process. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced run. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record the
run environment and a readable summary. ``--workload all`` runs every
workload in both modes, each in a fresh process, and prints all metrics.
``--fingerprint`` prints the behaviour fingerprint and compares it with the
stored one. ``--make-reference`` records the scores and fingerprint of the
program as it is now; a change that alters output must say so.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Tuple

try:
    import program
except ImportError as exc:  # the benchmark directory without the program beside it
    sys.exit(f"error: {exc}")

import numpy
import scipy

import checks
import fingerprint
import pace
import workloads
from tracer import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
FINGERPRINT = HERE / "fingerprint.json"

perf = time.perf_counter


class Tally:
    """Running totals over the units of a run."""

    def __init__(self):
        self.frames = 0
        self.attempted = 0
        self.failed = 0
        self.elapsed = 0.0

    def add(self, other: "Tally") -> None:
        self.frames += other.frames
        self.attempted += other.attempted
        self.failed += other.failed
        self.elapsed += other.elapsed


def run_unit(wl: workloads.Workload, unit, probe: checks.StepProbe, reference) -> Tally:
    """Time one unit, then check its invariants and scores."""
    tally = Tally()
    frames, tally.attempted = wl.size(unit)
    before, paced = probe.violations, probe.pace_s
    t0 = perf()
    try:
        out = wl.run(unit)
    except Exception:  # a unit that raises is a failed unit; the run goes on
        tally.elapsed = perf() - t0 - (probe.pace_s - paced)
        traceback.print_exc()
        tally.failed = tally.attempted
        return tally
    tally.elapsed = perf() - t0 - (probe.pace_s - paced)
    tally.frames = frames
    if probe.violations > before:
        print(f"{wl.name} {unit}: tracker invariant violated", file=sys.stderr)
        tally.failed = tally.attempted
        return tally
    for key, values in wl.scores(unit, out).items():
        expected = reference.get(key)
        if expected is None or not checks.scores_match(values, expected):
            print(f"{wl.name} {key}: scores {values} != reference {expected}", file=sys.stderr)
            tally.failed += 1
    return tally


def run_round(wl, probe, reference) -> Tally:
    tally = Tally()
    for unit in wl.round():
        tally.add(run_unit(wl, unit, probe, reference))
    return tally


def percentile(samples: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def setup_samples(args) -> List[float]:
    """Scaled seconds from process start until set-up is done, in fresh processes."""
    samples = []
    for _ in range(workloads.PROFILES[args.profile].setup_repeats):
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
             "--seed", str(args.seed), "--profile", args.profile],
            capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        done, pace_s = (float(v) for v in proc.stdout.split()[-2:])
        samples.append((done - t0) * pace.REFERENCE_S / pace_s)
    return samples


def setup_probe(args) -> int:
    """Child side of ``setup_samples``: set up, then report the time and the pace.

    Pacing runs before and after set-up; the time spent pacing before it is
    taken off the reported time.
    """
    wl = workloads.make(args.workload, args.profile, args.seed)
    t0 = time.time()
    paced = pace.sample(15)
    pacing = time.time() - t0
    wl.setup()
    done = time.time() - pacing
    paced += pace.sample(15)
    print(repr(done), repr(statistics.fmean(paced)))
    wl.close()
    return 0


def measure(wl, seconds: float, reference, setup: List[float]) -> Tuple[Tally, Dict, str]:
    """Closed loop, whole rounds, until ``seconds`` have passed; tracing off."""
    wl.setup()
    probe = checks.StepProbe()
    tally = Tally()
    rounds = 0
    start = perf()
    with probe.installed():
        while True:
            probe.mark_round()
            tally.add(run_round(wl, probe, reference))
            rounds += 1
            if perf() - start >= seconds:
                break
    lat = probe.step_latencies()
    values = {
        "setup_s": (statistics.median(setup), "s"),
        "frames_per_s": (tally.frames / tally.elapsed * probe.speed, "1/s"),
        "step_p50_ms": (percentile(lat, 50) * 1e3, "ms"),
        "step_p99_ms": (percentile(lat, 99) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = probe.raw_latencies
    note = (f"{tally.frames} frame-steps in {tally.elapsed:.3f} s unscaled "
            f"({tally.frames / tally.elapsed:.2f}/s); machine speed {probe.speed:.3f}x reference "
            f"over {len(probe.pace_samples)} pace samples; {len(raw)} steps in "
            f"{rounds} rounds, {len(lat)} per-step medians; unscaled "
            f"p50 {percentile(raw, 50) * 1e3:.4f} ms p99 {percentile(raw, 99) * 1e3:.4f} ms "
            f"over all steps; "
            f"scaled set-up samples {[round(s, 4) for s in setup]}")
    return tally, values, note


def measure_traced(wl, seconds: float, reference) -> Tuple[Tally, Dict, str]:
    """Pairs of (untraced round, traced round) until ``seconds`` have passed."""
    setup_tracer = Tracer("setup")
    with setup_tracer.installed():
        wl.setup()
    tally = Tally()
    blocks = []
    start = perf()
    while True:
        probe = checks.StepProbe()
        with probe.installed():
            plain = run_round(wl, probe, reference)
        plain_s = plain.elapsed / probe.speed
        tracer = Tracer(f"round{len(blocks) + 1}")
        probe = checks.StepProbe(tracer)
        with tracer.installed(), probe.installed():
            traced = run_round(wl, probe, reference)
        tally.add(plain)
        tally.add(traced)
        layers = {name: (v / probe.speed if unit == "s" else v, unit)
                  for name, (v, unit) in layer_metrics(setup_tracer, tracer).items()}
        blocks.append((traced.elapsed / probe.speed / plain_s, layers))
        if perf() - start >= seconds:
            break
    spans = program.OUT / f"spans-{wl.name}.jsonl"
    tracer.write_spans(spans)
    values = {
        name: (statistics.median(b[1][name][0] for b in blocks), unit)
        for name, (_, unit) in blocks[0][1].items()
    }
    values["trace.overhead_ratio"] = (statistics.median(b[0] for b in blocks), "ratio")
    note = f"{len(blocks)} traced rounds, median reported; spans of the last in {spans}"
    return tally, values, note


def environment(args) -> Dict:
    wl = workloads.make(args.workload, args.profile, args.seed)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cores": len(os.sched_getaffinity(0)),
        "SASM_THREADS": os.environ.get("SASM_THREADS", "unset"),
        "workload": args.workload,
        "profile": args.profile,
        "seed": args.seed,
        "scenes": [list(u) if isinstance(u, tuple) else u for u in wl.round()],
        "held_out_seed": workloads.HELD_OUT_SEED,
    }


def run_workload(args) -> int:
    reference = json.loads(REFERENCE.read_text())["profiles"][args.profile][args.workload]
    setup = [] if args.trace else setup_samples(args)
    wl = workloads.make(args.workload, args.profile, args.seed)
    try:
        if args.trace:
            tally, values, note = measure_traced(wl, args.seconds, reference)
        else:
            tally, values, note = measure(wl, args.seconds, reference, setup)
    finally:
        wl.close()
    print("env " + json.dumps(environment(args)))
    print(f"summary {args.workload} trace={args.trace}: {tally.attempted} units, "
          f"{tally.failed} failed, fail_ratio {tally.failed / max(1, tally.attempted):.6f}; {note}")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    results = {}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                 str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
                 "--profile", args.profile],
                capture_output=True, text=True, timeout=900)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            print(f"== {name} trace={trace} (exit {proc.returncode})")
            print("\n".join(lines[:-1]))
            if proc.returncode == 0:
                env = next(line[4:] for line in lines if line.startswith("env "))
                results[f"{name}/trace{trace}"] = {"env": json.loads(env),
                                                   "result": json.loads(lines[-1])}
    ok = len(results) == 2 * len(workloads.WORKLOADS) and all(
        r["result"]["correct"] for r in results.values())
    for key, r in results.items():
        for metric, v in r["result"]["metrics"].items():
            print(f"{key:14s} {metric:26s} {v['value']:.6g} {v['unit']}")
    out = program.OUT / f"all-{args.profile}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if ok else 1


def run_fingerprint(args) -> int:
    digests = fingerprint.compute(workloads.PROFILES[args.profile].frames)
    stored = json.loads(FINGERPRINT.read_text())[args.profile]
    for key, digest in digests.items():
        mark = "" if stored.get(key) == digest else "  CHANGED"
        print(f"{digest}  {key}{mark}")
    same = digests == stored
    print(f"fingerprint {digests['all']} {'unchanged' if same else 'changed'}")
    return 0 if same else 1


def make_reference() -> int:
    """Record the current program's scores and fingerprint, for both profiles."""
    references, digests = {}, {}
    for profile in workloads.PROFILES:
        per_workload = {}
        for name in workloads.WORKLOADS:
            scores = {}
            for seed in (0, workloads.HELD_OUT_SEED):
                wl = workloads.make(name, profile, seed)
                wl.setup()
                try:
                    for unit in wl.round():
                        scores.update(wl.scores(unit, wl.run(unit)))
                finally:
                    wl.close()
            per_workload[name] = dict(sorted(scores.items()))
            print(f"{profile}/{name}: {len(scores)} reference entries", flush=True)
        references[profile] = per_workload
        digests[profile] = fingerprint.compute(workloads.PROFILES[profile].frames)
    REFERENCE.write_text(json.dumps(
        {"tolerance": checks.TOLERANCE, "profiles": references}, indent=1) + "\n")
    FINGERPRINT.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {REFERENCE} and {FINGERPRINT}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="sasmot benchmark")
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=list(workloads.PROFILES), default="full")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--fingerprint", action="store_true")
    parser.add_argument("--make-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    # The baseline is single-threaded; a thread pool would also confuse the tracer.
    os.environ.pop("SASM_THREADS", None)

    if args.make_reference:
        return make_reference()
    if args.fingerprint:
        return run_fingerprint(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        return setup_probe(args)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

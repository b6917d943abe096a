"""Correctness checks the benchmark applies to every unit it times.

Two kinds of check:

* tracker invariants, checked on the output of every ``Tracker.step``
  call: ids are unique within a frame, an id that is not live from the
  previous frame is new (ids are never reused after a track dies), and
  every emitted box is the box object of one of the step's input
  detections;
* sequence scores (HOTA, DetA, AssA, MOTA, IDF1 and IDSW) compared with a
  reference recorded from this program and stored beside the benchmark.
  Floats must agree within ``TOLERANCE`` absolute, a margin for summation
  order only; an assignment that flips moves a score by far more. IDSW
  must match exactly.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
import weakref
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping

import pace
import program  # noqa: F401  (the checkout's src/ on sys.path)
from sasmot import tracker as tracker_mod

TOLERANCE = 1e-9
PACE_INTERVAL_S = 0.1
SCORE_FIELDS = ("hota", "deta", "assa", "mota", "idf1", "idsw")


class StepProbe:
    """Times each ``Tracker.step`` call and checks the invariants of its output.

    It patches the class, so steps made by the experiments module and the
    CLI are seen as well as direct calls. While installed, a wall-clock
    timer also times the ``pace`` loop every ``PACE_INTERVAL_S``, whatever
    the program is doing. ``pace_s`` is the time the loop and the checks
    took: step latencies leave it out, callers leave it out of their unit
    times, and a given tracer leaves it out of its spans.
    """

    def __init__(self, tracer=None):
        self._tracer = tracer
        self.raw_latencies: List[float] = []
        self._step_ends: List[float] = []
        self._round_starts: List[int] = []
        self.pace_samples: List[float] = pace.sample(3)
        self._pace_times: List[float] = [time.perf_counter()] * 3
        self.pace_s = 0.0
        self.violations = 0
        # Per tracker: ids live after its last step, and every id it emitted.
        self._ids: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    @property
    def speed(self) -> float:
        """Mean pace-loop time over the reference time: 2.0 on a machine half as fast."""
        return statistics.fmean(self.pace_samples) / pace.REFERENCE_S

    def mark_round(self) -> None:
        """Note that a round starts; every round makes the same steps in the same order."""
        self._round_starts.append(len(self.raw_latencies))

    def step_latencies(self) -> List[float]:
        """Each step's median scaled latency over the rounds.

        Step i of every round is the same frame of the same scene under the
        same policy, so the median of its repeats leaves out a stall of the
        machine that hit one repeat. Falls back to every scaled latency when
        the rounds differ in length, as they do after a failed unit.
        """
        scaled = self.scaled_latencies()
        bounds = self._round_starts + [len(scaled)]
        rounds = [scaled[a:b] for a, b in zip(bounds, bounds[1:])]
        if len({len(r) for r in rounds}) != 1:
            return scaled
        return [statistics.median(repeats) for repeats in zip(*rounds)]

    def scaled_latencies(self) -> List[float]:
        """Step latencies, each scaled by the median of the four loop times around it."""
        times, samples = self._pace_times, self.pace_samples
        out = []
        for end, raw in zip(self._step_ends, self.raw_latencies):
            i = bisect.bisect(times, end)
            out.append(raw * pace.REFERENCE_S / statistics.median(samples[max(0, i - 2):i + 2]))
        return out

    def _leave_out(self, seconds: float) -> None:
        self.pace_s += seconds
        if self._tracer is not None:
            self._tracer.exclude(seconds)

    def _on_timer(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.pace_samples.extend(pace.sample())
        self._pace_times.append(time.perf_counter())
        self._leave_out(time.perf_counter() - t0)

    @contextmanager
    def installed(self) -> Iterator["StepProbe"]:
        cls = tracker_mod.Tracker
        original = cls.step
        perf = time.perf_counter

        def step(tracker, detections, frame_idx):
            paced = self.pace_s
            t0 = perf()
            result = original(tracker, detections, frame_idx)
            t1 = perf()
            self.raw_latencies.append(t1 - t0 - (self.pace_s - paced))
            self._step_ends.append(t1)
            self._check(tracker, detections, result)
            self._leave_out(perf() - t1)
            return result

        cls.step = step
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PACE_INTERVAL_S, PACE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            cls.step = original

    def _check(self, tracker, detections, result) -> None:
        live, seen = self._ids.setdefault(tracker, (set(), set()))
        ids = [track_id for track_id, _ in result.tracks]
        ok = len(set(ids)) == len(ids)
        inputs = {id(det.box) for det in detections}
        ok = ok and all(id(box) in inputs for _, box in result.tracks)
        for track_id in ids:
            if track_id not in live:
                ok = ok and track_id not in seen
                seen.add(track_id)
        live.clear()
        live.update(track.track_id for track in tracker.tracks)
        if not ok:
            self.violations += 1


def scores_of(report) -> Dict[str, float]:
    """The compared fields of a ``MetricsReport``."""
    return {name: getattr(report, name) for name in SCORE_FIELDS}


def scores_match(values: Mapping[str, float], reference: Mapping[str, float]) -> bool:
    if values["idsw"] != reference["idsw"]:
        return False
    return all(abs(values[f] - reference[f]) <= TOLERANCE for f in SCORE_FIELDS if f != "idsw")

"""The benchmark's workloads: ``suite``, ``crowd`` and ``cli``.

Each workload is closed-loop from one caller with no threads: the next
unit starts when the previous one returns. A run repeats rounds until the
requested seconds have passed, and a round visits the workload's whole
scene pool once. ``--seed`` sets the order in which a round visits the
pool; ``HELD_OUT_SEED`` switches to a held-out pool that no other seed
reaches, so a claim can be checked on scenes not used while it was made.

The pools are fixed because the cost of one scene depends on its content.
On a 2-core Xeon virtual machine with Python 3.11, the five-policy suite
on one default scene took 2.8 s to 4.2 s across
seeds 1-6, and crowd passes over 24-object scenes took 5.1 s to 7.2 s
across seeds 1-5, while one scene repeated varied by about 2 %. A run
affords only a few scenes, so drawing scenes from the seed would make
run-to-run spread far wider than any useful regression bound.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import program
from checks import scores_of
from sasmot import cli, experiments, metrics, simulator
from sasmot import tracker as tracker_mod
from sasmot.memory import MemoryPolicy
from sasmot.simulator import ScenarioConfig

POLICIES: Tuple[MemoryPolicy, ...] = tuple(MemoryPolicy)
HELD_OUT_SEED = 7919

SCENE_POOL = (1, 2, 3, 4)
HELD_OUT_SCENES = (5, 6, 7, 8)
CROWD_POOL = (1, 2)
HELD_OUT_CROWD = (3, 4)
# Seeds per run_policy_suite call: one per core of the 2-core machine the
# baseline was taken on, so a parallel fan-out has work for each core.
SUITE_BATCH = 2


@dataclass(frozen=True)
class Profile:
    """Input sizes. ``full`` is the benchmark; ``tiny`` is for its tests."""

    frames: int  # frames per 8-object scene (suite, cli)
    crowd_objects: int
    crowd_frames: int
    setup_repeats: int


PROFILES: Dict[str, Profile] = {
    "full": Profile(frames=500, crowd_objects=24, crowd_frames=500, setup_repeats=3),
    "tiny": Profile(frames=30, crowd_objects=24, crowd_frames=30, setup_repeats=1),
}


def pool_order(seed: int, pool: Sequence[int], held_out: Sequence[int]) -> List[int]:
    """The scenes of one round, rotated by the seed."""
    chosen = list(held_out if seed == HELD_OUT_SEED else pool)
    k = seed % len(chosen)
    return chosen[k:] + chosen[:k]


class Workload:
    """Units to time, their sizes, and the scores checked against the reference."""

    name = ""

    def __init__(self, profile: Profile, seed: int):
        self.profile = profile

    def setup(self) -> None:
        """Work done once before timing starts."""

    def close(self) -> None:
        """Release what ``setup`` made."""

    def round(self) -> List:
        raise NotImplementedError

    def run(self, unit):
        raise NotImplementedError

    def size(self, unit) -> Tuple[int, int]:
        """(frame-policy steps, checked results) of one unit."""
        raise NotImplementedError

    def scores(self, unit, out) -> Dict[str, Dict[str, float]]:
        """Reference key -> scores, one entry per checked result."""
        raise NotImplementedError


class Suite(Workload):
    """``experiments.run_policy_suite``: all five policies on default scenes."""

    name = "suite"

    def __init__(self, profile: Profile, seed: int):
        super().__init__(profile, seed)
        self.cfg = ScenarioConfig(n_frames=profile.frames)
        order = pool_order(seed, SCENE_POOL, HELD_OUT_SCENES)
        self.units = [tuple(order[i:i + SUITE_BATCH]) for i in range(0, len(order), SUITE_BATCH)]

    def round(self):
        return self.units

    def run(self, unit):
        return experiments.run_policy_suite(self.cfg, None, POLICIES, list(unit))

    def size(self, unit):
        return len(unit) * len(POLICIES) * self.cfg.n_frames, len(unit) * len(POLICIES)

    def scores(self, unit, out):
        return {
            f"{seed}/{policy.value}": scores_of(out[policy][i])
            for policy in POLICIES
            for i, seed in enumerate(unit)
        }


class Crowd(Workload):
    """24-object scenes fed frame by frame to ``Tracker.step`` under sparse+ofs."""

    name = "crowd"

    def __init__(self, profile: Profile, seed: int):
        super().__init__(profile, seed)
        self.order = pool_order(seed, CROWD_POOL, HELD_OUT_CROWD)
        self.scenes = {}

    def setup(self):
        p = self.profile
        self.scenes = {
            s: simulator.generate_scenario(
                ScenarioConfig(n_objects=p.crowd_objects, n_frames=p.crowd_frames, seed=s))
            for s in self.order
        }

    def round(self):
        return self.order

    def run(self, unit):
        scene = self.scenes[unit]
        tracker = tracker_mod.Tracker(policy=MemoryPolicy.SPARSE_OFS)
        pred = [tracker.step(dets, i).tracks for i, dets in enumerate(scene.detections, start=1)]
        return metrics.evaluate(metrics.SequencePair(gt=scene.gt, pred=pred))

    def size(self, unit):
        return self.profile.crowd_frames, 1

    def scores(self, unit, out):
        return {str(unit): scores_of(out)}


class Cli(Workload):
    """``cli.main`` simulate -> track -> eval on a default scene, in-process."""

    name = "cli"

    def __init__(self, profile: Profile, seed: int):
        super().__init__(profile, seed)
        self.order = pool_order(seed, SCENE_POOL, HELD_OUT_SCENES)
        self.workdir = program.OUT / f"cli-{os.getpid()}"

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def round(self):
        return self.order

    def run(self, unit):
        d = self.workdir / str(unit)
        argvs = [
            ["simulate", "--out", d, "--seed", unit, "--n-frames", self.profile.frames],
            ["track", "--det", d / "det.txt", "--emb", d / "embeddings.csv",
             "--out", d / "pred.txt", "--policy", MemoryPolicy.SPARSE_OFS.value],
            ["eval", "--gt", d / "gt.txt", "--pred", d / "pred.txt", "--out", d / "report.csv"],
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in argvs:
                if cli.main([str(a) for a in argv]) != 0:
                    raise RuntimeError(f"sasmot {argv[0]} exited with an error")
        return (d / "report.csv").read_text()

    def size(self, unit):
        return self.profile.frames, 1

    def scores(self, unit, out):
        header, row = out.strip().splitlines()
        values = dict(zip(header.split(","), row.split(",")))
        return {str(unit): {k: (int(v) if k == "idsw" else float(v)) for k, v in values.items()}}


WORKLOADS = {w.name: w for w in (Suite, Crowd, Cli)}


def make(name: str, profile: str, seed: int) -> Workload:
    return WORKLOADS[name](PROFILES[profile], seed)

"""Experiment drivers: what a multi-seed run keeps alive."""

import tracemalloc

from sasmot.experiments import run_policy_suite
from sasmot.memory import MemoryPolicy
from sasmot.simulator import ScenarioConfig, generate_scenario


def _suite_peak(cfg, seeds):
    tracemalloc.start()
    try:
        run_policy_suite(cfg, None, [MemoryPolicy.NONE], seeds)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_policy_suite_holds_one_scene_at_a_time():
    # Each seed's scene is dropped before the next one is generated, so a
    # second seed leaves the traced peak where the first put it: about
    # 1.04 MB for both runs here (Python 3.11, numpy 2.4). Holding the first
    # scene while generating the second raised the two-seed peak by one
    # whole 0.62 MB scene. The same seed twice keeps both scenes one size.
    cfg = ScenarioConfig(n_frames=100, seed=1)
    tracemalloc.start()
    try:
        scene = generate_scenario(cfg)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del scene
    one = _suite_peak(cfg, [1])
    two = _suite_peak(cfg, [1, 1])
    assert two - one <= held / 4

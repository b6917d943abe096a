"""Experiment drivers: what a multi-seed run keeps alive, and the sign test
at seed counts past a float power of two."""

import math
import tracemalloc
from fractions import Fraction

from sasmot.experiments import paired_sign_test, run_policy_suite
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


def test_sign_test_p_is_exact_past_1023_informative_pairs():
    # 2.0**1024 overflows a float; the int 2**n does not, and int / int
    # rounds the exact quotient once, as Fraction does.
    n = 1100
    baseline = [0.5] * n
    treatment = [1.0] * 550 + [0.0] * 550
    wins, informative, p = paired_sign_test(baseline, treatment)
    assert (wins, informative) == (550, n)
    tail = sum(math.comb(n, k) for k in range(550, n + 1))
    assert p == float(Fraction(tail, 2**n))
    assert 0.5 < p < 0.52
    # Every pair a win: the tail is one outcome, 2**-1030, a subnormal float.
    assert paired_sign_test([0.0] * 1030, [1.0] * 1030) == (1030, 1030, 2.0**-1030)

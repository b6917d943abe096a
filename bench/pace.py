"""Machine-speed reference for the benchmark's timings.

The 2-core Xeon virtual machine the baseline was taken on changes speed by
itself. The same crowd pass, repeated in one process for three minutes,
ran 1.1x to 2.2x its fastest time, staying slow or fast for seconds to
tens of seconds at a time. This fixed pure-Python loop slows down with it:
over 25 s windows the tracker's raw throughput spread 18 % (quartile
distance over median), and its throughput scaled by the loop's mean time
in the same window spread 2 %.

So while it measures, the benchmark times ``kernel`` on a wall-clock timer
and reports times scaled to ``REFERENCE_S``, the loop's time on that
machine when it is fast: ``scaled = measured * REFERENCE_S / loop time
nearby``. The loop does not touch the program, so a change to the program
cannot move it.
"""

from __future__ import annotations

import math
import time
from typing import List

REFERENCE_S = 0.0007


def kernel() -> float:
    """A fixed mix of integer, float and dict work, about 0.7 ms when fast."""
    acc = 0.0
    seen = {}
    for i in range(3000):
        x = (i * 2654435761) & 0xFFFF
        seen[x & 255] = seen.get(x & 255, 0) + 1
        acc += math.sqrt(x + 1.0)
    return acc + len(seen)


def sample(n: int = 1) -> List[float]:
    """Seconds taken by each of ``n`` kernel calls, each after an untimed call.

    The untimed call refills the caches the program just used, which made
    a timed call straight after tracker steps about 5 % slower.
    """
    out = []
    for _ in range(n):
        kernel()
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
    return out

"""Reference-calibrated time.

The single-thread speed of a shared machine swings with its neighbours'
load: on a 2-CPU virtual machine the reference loop below was seen taking
from 10 to 21 ms, in phases of a few seconds.  Raw wall times then differ
by 20-25% from one run to the next.  The benchmark therefore runs a fixed
reference loop, shaped like the kernels' scalar float math, right before
and after each timed unit of work, and scales the unit's times by
``REF_NOMINAL_S`` over the mean of the two reference times.  Reported
times are seconds of a machine on which the reference loop takes
``REF_NOMINAL_S``; on the 2-CPU machine this benchmark was tuned on, that
is close to its typical speed.
"""

from __future__ import annotations

import time
from math import exp, log

REF_NOMINAL_S = 0.01
_REF_POINTS = 20_000


def _scaled(s: float, alpha: float, beta: float) -> tuple[float, tuple]:
    g = (alpha * log(0.5 / s) + beta * log(0.5 / (1.0 - s))) / (alpha + beta)
    return s * exp(g), (g, s)


def reference_s() -> float:
    """Wall time of one pass of the reference loop."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, _REF_POINTS):
        v, _ = _scaled(i / _REF_POINTS, 0.4, 0.6)
        acc += v
    return time.perf_counter() - t0


class Calibration:
    """Reference timings between units; ``factor`` converts the last unit's times."""

    def __init__(self):
        self._last = reference_s()

    def factor(self) -> float:
        """Scale for the unit that ran since the previous call (or construction)."""
        now = reference_s()
        f = 2.0 * REF_NOMINAL_S / (self._last + now)
        self._last = now
        return f

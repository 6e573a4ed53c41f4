"""Speed probe: how fast this CPU runs while the benchmark measures.

On a small machine shared with other tenants, the speed of one core changes by
up to 40% within seconds, and stays changed for several seconds, whatever this
process does; process CPU time rises with wall time, so the loss is in the
core, not in waiting to be scheduled. A timer signal runs a short, fixed
kernel every ``PERIOD_S`` seconds: a pure-Python loop, then one pass over an
array larger than the core's caches, so that it slows both when the core does
and when neighbours take memory bandwidth; the program's Python code and its
large numpy arrays slow the same ways. The kernel is timed in CPU time of its
thread, which follows the core's slowdown but leaves out any wait for the GIL
or for the scheduler, so the program's own threads cannot stretch it. A timed
interval is then reported in calibrated seconds: its wall time, less the time
spent in the probe, scaled by ``NOMINAL_KERNEL_S`` over the probe's mean
kernel time in that interval.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.05
# the kernel's typical time on the 2-vCPU VM whose figures perfbench/README.md
# gives, so that a calibrated second is about a wall second there; it only
# sets the scale of calibrated seconds
NOMINAL_KERNEL_S = 0.0014
# 3.2 MB: more than the core's caches hold
_STREAM = np.ones(400_000)


def kernel() -> float:
    s, f = 0, 1.0
    for i in range(10_000):
        s += (i * 7) % 13
        f = f * 0.999 + 1.0
    np.negative(_STREAM, out=_STREAM)
    return s + f + float(_STREAM.sum())


class SpeedProbe:
    """Samples kernel times on SIGALRM between ``start`` and ``stop``."""

    def __init__(self):
        # (wall start, wall duration, thread CPU duration)
        self.samples: list[tuple[float, float, float]] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t, cpu = time.perf_counter(), time.thread_time()
        kernel()
        cpu = time.thread_time() - cpu
        self.samples.append((t, time.perf_counter() - t, cpu))

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def interval(self, t0: float, t1: float) -> tuple[float, float]:
        """(seconds spent in the probe, speed factor) over [t0, t1] of ``time.perf_counter``.

        The factor is ``NOMINAL_KERNEL_S`` over the mean kernel CPU time of the
        samples in the interval, without its fastest and slowest tenth (a
        sample can be cut short or stretched by the program's own work), or
        over the time of the nearest sample when the interval holds none.
        """
        inside = [s for s in self.samples if t0 <= s[0] < t1]
        if inside:
            cut = len(inside) // 10
            kept = sorted(cpu for _, _, cpu in inside)[cut : len(inside) - cut]
            return sum(wall for _, wall, _ in inside), NOMINAL_KERNEL_S * len(kept) / sum(kept)
        if not self.samples:
            return 0.0, 1.0
        nearest = min(self.samples, key=lambda s: abs(s[0] - t0))
        return 0.0, NOMINAL_KERNEL_S / nearest[2]

"""The host's CPU speed, sampled while a job runs.

On a shared host the speed a process gets moves by up to 2x for seconds to
minutes at a time, with the other load on the host, whatever the process
does.  A job therefore samples its own CPU's speed: every
`INTERVAL_S` of wall time a signal handler times a fixed pure-Python
kernel, which does not touch cliffrb, `REPEATS` times and keeps the fastest.
`KERNEL_REF_S` / that time is the speed relative to a reference CPU, and a
window's time multiplied by its mean speed is the time the same work takes
at the reference speed.  The driver reports those reference-speed seconds,
so a change in the program moves them and a change in the host much less.

The handler's own time is counted and taken out of the window it falls in.
"""

import math
import signal
import time
from typing import List, Tuple

INTERVAL_S = 0.01
REPEATS = 5
# the kernel's fastest time seen on a 2-vCPU cloud VM (Python 3.11)
KERNEL_REF_S = 17e-6


def _kernel() -> int:
    acc = 0
    seen = {}
    for i in range(120):
        key = (i, i ^ 5)
        seen[key] = acc
        acc = (acc * 31 + key[1]) & 0xFFFF
    return acc


class SpeedSampler:
    def __init__(self) -> None:
        # per sample: start, end, fastest kernel time
        self.samples: List[Tuple[float, float, float]] = []

    def _sample(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        best = math.inf
        for _ in range(REPEATS):
            a = time.perf_counter()
            _kernel()
            best = min(best, time.perf_counter() - a)
        self.samples.append((t0, time.perf_counter(), best))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def window(self, start: float, end: float) -> dict:
        """The window's sampling cost (s) and its mean relative speed, each
        sample weighted by the wall time since the one before."""
        cost = weight = speed = 0.0
        n = 0
        prev = start
        for t0, t1, best in self.samples:
            if start <= t0 < end:
                n += 1
                cost += t1 - t0
                weight += t0 - prev
                speed += (t0 - prev) * KERNEL_REF_S / best
                prev = t1
        return {"probe_s": cost, "samples": n,
                "speed": speed / weight if weight > 0 else 1.0}

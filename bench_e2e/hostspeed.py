"""Host-speed probes: wall time re-expressed in reference-host seconds.

The benchmark runs on a few cores of a shared host whose speed changes
under it: the same deterministic job runs at one of two speeds about 1.4x
apart, and a slow stretch can last from a second to minutes.  Wall time
then moves with the host's share of slow time, which no window length
averages out.

A probe times a fixed pure-Python kernel, which no change to the program
can speed up or slow down, in the thread that runs the program's work and
while no program work runs.  Each stretch of program work between two
probes is scaled by ``REFERENCE_S`` over the mean of their kernel times,
so the stretch reads as the seconds it would take on a host on which the
kernel takes ``REFERENCE_S``.  A change that makes the program slower
makes its reference seconds grow by the same share; a slow host does not.
Probe time itself is never counted.
"""

from __future__ import annotations

import time
from typing import Callable, List, Tuple

from .stats import median

__all__ = ["HostClock", "REFERENCE_S", "kernel"]

#: Kernel seconds on the reference host (2-CPU KVM guest, Xeon model 143,
#: Python 3.11): about the middle of its fast (4.2 ms) and slow (6.0 ms)
#: speeds, so a reference second is close to a wall second there.
REFERENCE_S = 0.005
#: Kernel runs per probe; the probe keeps their median.
REPEATS = 3
ITERATIONS = 40_000


def kernel() -> int:
    """Fixed pure-Python work: integer arithmetic and small-dict stores."""
    acc = 0
    table = {}
    for i in range(ITERATIONS):
        acc += i * 7 % 13
        table[i & 255] = acc
    return acc


class HostClock:
    """Probes taken between stretches of program work, and what they imply.

    ``probes`` holds ``(start, end, kernel_s)`` per probe, in time order.
    An interval is measured only between the first and the last probe, so
    a caller probes before its first job and after its last.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        work: Callable[[], object] = kernel,
    ):
        self.clock = clock
        self.work = work
        self.probes: List[Tuple[float, float, float]] = []

    def probe(self) -> float:
        """Time the kernel ``REPEATS`` times; returns and records the median."""
        start = self.clock()
        samples = []
        for _ in range(REPEATS):
            started = self.clock()
            self.work()
            samples.append(self.clock() - started)
        kernel_s = median(samples)
        self.probes.append((start, self.clock(), kernel_s))
        return kernel_s

    def _stretches(self, a: float, b: float):
        """(seconds, scale) for each part of ``[a, b]`` between two probes."""
        for (_, end0, k0), (start1, _, k1) in zip(self.probes, self.probes[1:]):
            lo, hi = max(a, end0), min(b, start1)
            if hi > lo:
                yield hi - lo, 2.0 * REFERENCE_S / (k0 + k1)

    def wall_s(self, a: float, b: float) -> float:
        """Wall seconds of ``[a, b]`` outside probes."""
        return sum(seconds for seconds, _ in self._stretches(a, b))

    def reference_s(self, a: float, b: float) -> float:
        """Reference seconds of ``[a, b]`` outside probes."""
        return sum(seconds * scale for seconds, scale in self._stretches(a, b))

    def median_kernel_s(self) -> float:
        return median([kernel_s for _, _, kernel_s in self.probes])

"""Small statistics helpers shared by the workloads (pure, unit-tested)."""

from __future__ import annotations

import math
import threading
import time
from typing import Callable, List, Optional, Sequence

__all__ = [
    "Counts",
    "CycleDispenser",
    "median",
    "percentile",
    "reportable_percentile",
    "whole_cycle_limit",
]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample >= ``q`` of the data."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def reportable_percentile(
    values: Sequence[float], q: float, *, beyond: int = 10
) -> Optional[float]:
    """The ``q``-th percentile, or None unless >= ``beyond`` samples exceed its rank.

    A tail percentile is only reported when at least ten samples lie beyond
    it: p90 needs 100 samples, p99 needs 1000.
    """
    n = len(values)
    rank = max(1, math.ceil(q / 100.0 * n)) if n else 0
    if n - rank < beyond:
        return None
    return percentile(values, q)


class Counts:
    """Tasks attempted and failed, over every job of a run.

    A job that fails a correctness check fails all of its tasks; a job the
    service refused (throttled, rejected) is attempted and failed too, so
    refusals can never shrink the denominator.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def job(self, tasks: int, failed: int, errors: Sequence[str] = ()) -> None:
        self.attempted += tasks
        self.failed += tasks if errors else failed
        self.reasons.extend(errors)

    def refused(self, tasks: int, reason: str) -> None:
        self.job(tasks, tasks, [f"refused: {reason}"])

    def fail_all(self, reason: str) -> None:
        """A run-level check failed: every attempted task counts as failed."""
        self.failed = self.attempted
        self.reasons.append(reason)

    @property
    def failure_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def whole_cycle_limit(issued: int, cycle: int) -> int:
    """Job count at which a window that closes after ``issued`` jobs stops.

    The window stops issuing at the next multiple of ``cycle``, so every
    window covers whole cycles of the fixed job order and the job mix never
    depends on where the clock ran out.
    """
    if cycle <= 0:
        raise ValueError("cycle must be positive")
    return -(-issued // cycle) * cycle


class CycleDispenser:
    """Hands out job indices until the window closes on a whole cycle.

    With ``jobs`` given, exactly that many indices are issued.  Otherwise
    indices flow until ``seconds`` have passed since construction; the
    first request after that fixes the limit at the next multiple of
    ``cycle`` (:func:`whole_cycle_limit`).  Thread-safe, so closed-loop
    clients can share one dispenser.

    With ``between_cycles`` given, clients report each finished job with
    :meth:`finished`; the first index of every cycle after the first is
    issued only once every earlier job has finished, and ``between_cycles``
    runs just before it, while no job is in flight.
    """

    def __init__(
        self,
        cycle: int,
        seconds: float,
        jobs: Optional[int] = None,
        clock: Callable[[], float] = time.perf_counter,
        between_cycles: Optional[Callable[[], object]] = None,
    ):
        self.cycle = cycle
        self.seconds = seconds
        self.limit = jobs
        self.clock = clock
        self.between_cycles = between_cycles
        self.start = clock()
        self.issued = 0
        self.done = 0
        self._cond = threading.Condition()

    def next(self) -> Optional[int]:
        with self._cond:
            while True:
                if self.limit is None and self.clock() - self.start >= self.seconds:
                    self.limit = whole_cycle_limit(max(self.issued, 1), self.cycle)
                if self.limit is not None and self.issued >= self.limit:
                    return None
                boundary = self.issued > 0 and self.issued % self.cycle == 0
                if self.between_cycles is None or not boundary:
                    break
                if self.done == self.issued:
                    self.between_cycles()
                    break
                self._cond.wait()
            self.issued += 1
            return self.issued - 1

    def finished(self) -> None:
        """Report one finished job (needed only with ``between_cycles``)."""
        with self._cond:
            self.done += 1
            self._cond.notify_all()

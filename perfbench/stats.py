"""Percentiles, the tail rule, and the per-run outcome record."""

from __future__ import annotations

import math
import resource
import statistics
from dataclasses import dataclass, field

#: Samples a tail percentile needs beyond it.
TAIL_MIN_BEYOND = 10


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of raw samples."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(samples: list[float], q: float) -> tuple[float, str]:
    """``(value, label)`` for the ``q``-th percentile when at least ten
    samples lie beyond it.  With fewer (a run of a few long ops), the
    median of the slowest third is reported instead, labelled as such:
    the maximum of a handful of samples is too unsteady to compare runs
    by."""
    n = len(samples)
    beyond = n - max(1, math.ceil(q / 100.0 * n))
    if beyond >= TAIL_MIN_BEYOND:
        return percentile(samples, q), f"p{q:g} of n={n}, {beyond} beyond"
    slowest = sorted(samples)[-max(1, n // 3):]
    return statistics.median(slowest), f"median of the slowest {len(slowest)} of n={n}"


def peak_rss_kb() -> int:
    """This process's own peak RSS in KiB.  Where ``/proc`` exists it is
    read from there: Linux carries a parent's ``ru_maxrss`` across
    fork+exec, so a child started by a large process would report it."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def median(values: list[float]) -> float:
    return statistics.median(values)


@dataclass
class Outcome:
    """What one run measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: Self-check or verdict failures, one line each (first few kept).
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    #: Human-readable context per metric (tail percentile, sample count).
    notes: dict[str, str] = field(default_factory=dict)

    def problem(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

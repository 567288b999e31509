"""Times adjusted for the host's speed at the moment they were taken.

The benchmark was defined on a shared 2-core VM whose CPU speed swings
by up to 2x within seconds while other tenants load the host.  The VM
reports no steal time, so CPU time swings with wall time, and a run of
30 s can fall entirely into a slow or a fast phase.  Raw wall times of
the same code then spread by 20-40% between runs, wider than any useful
regression bound.

A fixed reference loop, which calls nothing of the program, slows down
with the program: over a 5-minute recording of ``tables`` passes, the
pass wall time and the reference time measured beside it correlated at
0.97.  So every end-to-end time the benchmark reports is scaled to a
host of nominal speed: a stretch of wall time is multiplied by
:data:`NOMINAL_PROBE_S` divided by what the reference loop took around
it.  The time of the reference loop itself is left out.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

#: Seconds the reference loop takes on a host of nominal speed: about its
#: median on the VM this benchmark was defined on, so adjusted times read
#: as that VM's seconds in an average phase.
NOMINAL_PROBE_S = 0.00064

#: Seconds between samples of the reference loop during a timed section.
#: Host phases last seconds; one sample costs about 3% of this interval.
INTERVAL_S = 0.02

#: Samples whose median sets the current speed (a single one may catch
#: an interrupt).
WINDOW = 3

#: Every probe of this process, for the run's report of host speed.
TAKEN: list[float] = []


def _reference() -> int:
    """Dictionary, tuple and set work, as the analyses do."""
    table: dict[tuple[int, int], int] = {}
    for i in range(2000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + 1
    return len(frozenset(table) | frozenset(range(64)))


def probe() -> float:
    """Wall seconds of one reference loop now, without garbage collection."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _reference()
        took = time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()
    TAKEN.append(took)
    return took


def scale(seconds: float, probe_s: float) -> float:
    """``seconds`` of wall time, measured while the reference loop took
    ``probe_s``, as seconds of the nominal host."""
    return seconds * NOMINAL_PROBE_S / probe_s


class HostClock:
    """A clock that reads nominal-host seconds, for code in the main thread.

    While entered, a timer signal samples the reference loop every
    :data:`INTERVAL_S`; the wall time since the previous sample is scaled
    by the speed the latest samples show.  :meth:`now` adds the stretch
    since the last sample.  Signals are delivered to the main thread
    between bytecodes, so the program is paused, not disturbed, while a
    sample runs; a blocking call is resumed after it.
    """

    def __init__(self) -> None:
        self._adjusted = 0.0
        self._busy = False
        self._recent = [probe() for _ in range(WINDOW)]
        self._factor = NOMINAL_PROBE_S / statistics.median(self._recent)
        self._mark = time.perf_counter()

    def __enter__(self) -> "HostClock":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        """Nominal-host seconds since the clock was made, samples excluded."""
        self._busy = True  # a tick arriving now is skipped, not interleaved
        try:
            self._advance()
            return self._adjusted
        finally:
            self._busy = False

    def _advance(self) -> None:
        now = time.perf_counter()
        self._adjusted += (now - self._mark) * self._factor
        self._mark = now

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self._advance()
            self._recent = (self._recent + [probe()])[-WINDOW:]
            self._factor = NOMINAL_PROBE_S / statistics.median(self._recent)
            self._mark = time.perf_counter()
        finally:
            self._busy = False

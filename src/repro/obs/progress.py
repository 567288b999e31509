"""Streaming progress: live, observational events from running analyses.

Spans (:mod:`repro.obs.tracing`) answer *what happened* after the fact;
progress events answer *what is happening now*.  A long-running solve —
a sparse fixpoint over thousands of scenarios, a mitigation search
scoring candidates — publishes small JSON-friendly events through the
thread-local :class:`ProgressReporter`, and the service layer streams
them to clients over the daemon's ``watch`` RPC.

Like every facility in :mod:`repro.obs`, progress is **observational by
contract**: reporters are written to, never read from, by instrumented
code, so publishing can never perturb result keys, fixpoint schedules,
or Table-7 verdicts (pinned by the telemetry-on/off differential tests
in ``tests/test_obs.py``).  When no reporter is installed the publish
path is a single thread-local read — cheap enough to leave calls inline,
though hot loops still throttle (the sparse kernel publishes pop counts
every :data:`POP_PUBLISH_INTERVAL` pops, not per pop).

Reporter shapes:

* :class:`EventLog` (through :class:`LogReporter`) — a bounded,
  sequence-numbered, watchable log with blocking reads.  The scheduler
  gives every job one; the ``watch`` RPC tails it.
* :class:`CallbackReporter` — adapts a plain callback.
* A multiplexer is trivial to build from :class:`ProgressReporter`
  (see ``_BatchProgress`` in :mod:`repro.service.scheduler`).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Iterator
from contextlib import contextmanager

#: Sparse-kernel pop throttle: publish a ``fixpoint.pops`` event at most
#: once per this many worklist pops.  Chosen so even the largest Table-2
#: runs emit a handful of events, and small runs emit none from the pop
#: path (they still get phase events).
POP_PUBLISH_INTERVAL = 4096

#: Per-job event-log bound.  Old events are dropped (watchers see a seq
#: gap); sized for hours of throttled progress, not unbounded firehoses.
DEFAULT_LOG_CAPACITY = 2048

#: Keys stamped by :meth:`EventLog.append`; publisher-supplied fields
#: with these names are overwritten, never trusted.
RESERVED_KEYS = ("event", "seq", "t", "ts")


class ProgressReporter:
    """Interface: something that accepts progress events.

    ``phase`` is a dotted path naming what is running (``fixpoint``,
    ``fixpoint.pops``, ``mitigate.candidate``); ``fields`` must be
    JSON-serialisable scalars or small lists.
    """

    #: True for every real reporter; the null reporter flips it so hot
    #: loops can skip field construction entirely when nobody listens.
    active = True

    def publish(self, phase: str, **fields) -> None:
        raise NotImplementedError


class _NullReporter(ProgressReporter):
    """The fast path when no reporter is installed."""

    active = False

    def publish(self, phase: str, **fields) -> None:
        pass


NULL_REPORTER = _NullReporter()


class CallbackReporter(ProgressReporter):
    """Adapts a ``callback(phase, fields)`` into a reporter."""

    def __init__(self, callback: Callable[[str, dict], None]):
        self._callback = callback

    def publish(self, phase: str, **fields) -> None:
        self._callback(phase, fields)


class EventLog:
    """A bounded, watchable, sequence-numbered event log.

    Every append stamps a monotonically increasing ``seq``, a monotonic
    timestamp ``t`` (for durations) and a wall-clock ``ts`` (for
    humans), then wakes blocked readers.  :meth:`wait_since` is the
    primitive the daemon's ``watch`` RPC is built on: block until events
    newer than a cursor exist, or time out (the heartbeat path).
    """

    def __init__(self, capacity: int = DEFAULT_LOG_CAPACITY):
        self._events: deque[dict] = deque(maxlen=capacity)
        self._last_seq = 0
        self._cond = threading.Condition()

    def append(self, event: str, **fields) -> dict:
        entry = dict(fields)
        with self._cond:
            self._last_seq += 1
            entry["event"] = event
            entry["seq"] = self._last_seq
            entry["t"] = time.monotonic()
            entry["ts"] = time.time()
            self._events.append(entry)
            self._cond.notify_all()
        return entry

    @property
    def last_seq(self) -> int:
        with self._cond:
            return self._last_seq

    def snapshot(self) -> list[dict]:
        with self._cond:
            return [dict(entry) for entry in self._events]

    def since(self, seq: int) -> list[dict]:
        """Events with ``seq`` strictly greater than the cursor."""
        with self._cond:
            return [dict(entry) for entry in self._events if entry["seq"] > seq]

    def wait_since(self, seq: int, timeout: float) -> list[dict]:
        """Block until events newer than ``seq`` exist or ``timeout``
        elapses; returns the fresh events (empty list on timeout)."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while self._last_seq <= seq:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._cond.wait(remaining):
                    break
            return [dict(entry) for entry in self._events if entry["seq"] > seq]


class LogReporter(ProgressReporter):
    """Publishes progress events into an :class:`EventLog` as
    ``event="progress"`` entries (alongside lifecycle events)."""

    def __init__(self, log: EventLog):
        self.log = log

    def publish(self, phase: str, **fields) -> None:
        self.log.append("progress", phase=phase, **fields)


# ----------------------------------------------------------------------
# Thread-local installation
# ----------------------------------------------------------------------
_state = threading.local()


def current_reporter() -> ProgressReporter:
    """The reporter installed on this thread (the null reporter if none)."""
    return getattr(_state, "reporter", NULL_REPORTER)


@contextmanager
def reporting(reporter: ProgressReporter | None) -> Iterator[ProgressReporter]:
    """Install ``reporter`` as this thread's progress sink.

    ``None`` leaves the current reporter in place (so call sites can
    unconditionally wrap).  Restores the previous reporter on exit —
    scopes nest.
    """
    if reporter is None:
        yield current_reporter()
        return
    previous = getattr(_state, "reporter", None)
    _state.reporter = reporter
    try:
        yield reporter
    finally:
        if previous is None:
            del _state.reporter
        else:
            _state.reporter = previous


def publish_progress(phase: str, **fields) -> None:
    """Publish an event to this thread's reporter (no-op when none)."""
    reporter = getattr(_state, "reporter", None)
    if reporter is not None:
        reporter.publish(phase, **fields)

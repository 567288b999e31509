"""Structured tracing: nestable spans with a JSON-lines exporter.

A :class:`Span` records one timed phase of a computation — ``frontend``,
``vcfg``, ``fixpoint``, ``classify``, ``scheduler.job`` — with
monotonic timing and free-form attributes.  Spans nest through a
thread-local context stack, so the engine, the analyses and the service
compose into one tree without passing handles around.

The :class:`Tracer` is the process-wide factory and export pipeline:

* **disabled fast path** — with no sinks attached, :meth:`Tracer.span`
  returns a :class:`_DisabledSpan` that only measures its own duration
  (two ``perf_counter`` calls, no locks, no context stack, no attribute
  storage).  Instrumented code can therefore keep deriving its public
  timing fields (``analysis_time``, ``synthesis_time``) from the span it
  opened, at effectively zero cost when tracing is off;
* **JSONL export** — ``REPRO_TRACE=<path>`` (re-checked on every span
  creation, so tests and embedders can flip it at runtime) or an
  explicit :meth:`Tracer.add_jsonl` attaches a :class:`JsonlSink`:
  one JSON object per completed span, written under a lock as a single
  ``write`` call so concurrent threads never interleave partial lines;
* **ring buffer** — the daemon attaches a :class:`SpanBuffer` and serves
  recent span trees over its ``trace`` RPC.

Tracing is observational by contract: spans never feed back into the
analyses, so identical requests produce bit-identical results with
tracing on or off (pinned by ``tests/test_obs.py``).
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from typing import Any, Mapping

#: Ring-buffer capacity of the daemon's in-memory span store.
DEFAULT_BUFFER_SPANS = 8192


class _DisabledSpan:
    """The no-sink fast path: measures duration, stores nothing else."""

    __slots__ = ("_started", "duration")

    def __init__(self):
        self._started = 0.0
        self.duration = 0.0

    def __enter__(self) -> "_DisabledSpan":
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = time.perf_counter() - self._started
        return False

    def set(self, **attrs) -> "_DisabledSpan":
        return self


class Span:
    """One timed, attributed phase; export happens on ``__exit__``."""

    __slots__ = (
        "name",
        "span_id",
        "trace_id",
        "parent_id",
        "attrs",
        "started_at",
        "duration",
        "_started",
        "_tracer",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.name = name
        self.attrs = attrs
        self.span_id = tracer._next_id()
        self.trace_id: str = self.span_id
        self.parent_id: str | None = None
        self.started_at = 0.0
        self.duration = 0.0
        self._started = 0.0
        self._tracer = tracer

    def set(self, **attrs) -> "Span":
        """Attach attributes (JSON-friendly values) to the span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self.started_at = time.time()
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = time.perf_counter() - self._started
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._pop(self)
        self._tracer._export(self.to_dict())
        return False

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "ts": self.started_at,
            "duration": self.duration,
            "pid": os.getpid(),
            "attrs": self.attrs,
        }


class JsonlSink:
    """Append-only JSON-lines exporter (one object per span).

    The file is opened lazily on first export (so merely configuring a
    path costs nothing) and every span is written as one ``write`` call
    under a lock — concurrent threads cannot interleave partial lines.
    """

    def __init__(self, path: str | os.PathLike):
        self.path = os.fspath(path)
        self._lock = threading.Lock()
        self._handle = None

    def export(self, span: Mapping[str, Any]) -> None:
        line = json.dumps(span, sort_keys=True, separators=(",", ":")) + "\n"
        with self._lock:
            if self._handle is None:
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(line)
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                try:
                    self._handle.close()
                finally:
                    self._handle = None


class SpanBuffer:
    """A bounded in-memory sink; the daemon's ``trace`` RPC reads it."""

    def __init__(self, maxlen: int = DEFAULT_BUFFER_SPANS):
        self._spans: deque[dict] = deque(maxlen=maxlen)
        self._lock = threading.Lock()

    def export(self, span: Mapping[str, Any]) -> None:
        with self._lock:
            self._spans.append(dict(span))

    def spans(self) -> list[dict]:
        with self._lock:
            return list(self._spans)

    def trace(self, trace_id: str) -> list[dict]:
        """Every buffered span of one trace, in completion order."""
        with self._lock:
            return [span for span in self._spans if span.get("trace_id") == trace_id]

    def trace_for_job(self, job_id: str) -> list[dict]:
        """The span tree of the run that executed ``job_id``: every
        buffered span of the traces holding a span whose ``job_id``
        attribute names it (the scheduler's ``scheduler.job`` span)."""
        with self._lock:
            trace_ids = {
                span["trace_id"]
                for span in self._spans
                if span.get("attrs", {}).get("job_id") == job_id
            }
            return [
                span for span in self._spans if span.get("trace_id") in trace_ids
            ]


class Tracer:
    """Process-wide span factory, context stack, and export pipeline."""

    def __init__(self):
        self._sinks: list = []
        self._sinks_lock = threading.Lock()
        self._local = threading.local()
        self._seq = itertools.count(1)
        self._env_path: str | None = None
        self._env_sink: JsonlSink | None = None

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def add_sink(self, sink) -> None:
        with self._sinks_lock:
            self._sinks.append(sink)

    def remove_sink(self, sink) -> None:
        with self._sinks_lock:
            if sink in self._sinks:
                self._sinks.remove(sink)

    def add_jsonl(self, path: str | os.PathLike) -> JsonlSink:
        sink = JsonlSink(path)
        self.add_sink(sink)
        return sink

    def _sync_env(self) -> None:
        """Mirror the ``REPRO_TRACE`` environment variable into a JSONL
        sink (attached when set, detached when cleared or re-pointed)."""
        path = os.environ.get("REPRO_TRACE") or None
        if path == self._env_path:
            return
        with self._sinks_lock:
            if self._env_sink is not None:
                try:
                    self._sinks.remove(self._env_sink)
                except ValueError:
                    pass
                self._env_sink.close()
                self._env_sink = None
            self._env_path = path
            if path is not None:
                self._env_sink = JsonlSink(path)
                self._sinks.append(self._env_sink)

    @property
    def enabled(self) -> bool:
        """True when at least one sink will see spans.  Call sites with
        per-iteration attribute construction guard on this; plain
        ``span(...)`` calls need not."""
        self._sync_env()
        return bool(self._sinks)

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs) -> "Span | _DisabledSpan":
        """Open a span (use as a context manager).  Returns the
        duration-only :class:`_DisabledSpan` when tracing is disabled."""
        if not self.enabled:
            return _DisabledSpan()
        return Span(self, name, attrs)

    def current(self) -> Span | None:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def _next_id(self) -> str:
        return f"{os.getpid():x}-{next(self._seq):x}"

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            span.parent_id = stack[-1].span_id
            span.trace_id = stack[-1].trace_id
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()
        elif stack and span in stack:  # defensive: unwound out of order
            stack.remove(span)

    def _export(self, span_dict: dict) -> None:
        with self._sinks_lock:
            sinks = list(self._sinks)
        for sink in sinks:
            try:
                sink.export(span_dict)
            except OSError:
                pass  # a full disk must never fail an analysis


_tracer = Tracer()


def tracer() -> Tracer:
    """The process-wide tracer."""
    return _tracer


def span(name: str, **attrs):
    """Open a span on the process-wide tracer."""
    return _tracer.span(name, **attrs)


def current_span() -> Span | None:
    """The innermost active span of this thread (None when untraced)."""
    return _tracer.current()

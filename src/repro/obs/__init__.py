"""Unified telemetry: metrics, tracing spans, and run provenance.

This package is the system's self-knowledge layer.  It is deliberately
**dependency-free within the code base** — it imports nothing from the
rest of :mod:`repro`, so every other layer (the worklist kernel, the
engine, the service) can instrument itself without import cycles.

Four facilities live here:

* :mod:`repro.obs.metrics` — a process-wide **metrics registry** of
  counters, gauges and fixed-bucket histograms.  The ad-hoc stats
  dataclasses (``EngineStats``, ``SchedulerStats``, store counters)
  stay as the per-instance sources of truth; the registry is where
  cross-cutting counters that have no natural owner (fixpoint pops,
  dirty-slot re-transfers, access-table builds) land,
  and :func:`repro.obs.metrics.MetricsRegistry.snapshot` is the one
  JSON-friendly view of all of them.
* :mod:`repro.obs.tracing` — **structured tracing**: nestable spans with
  monotonic timings and attributes, a thread-safe JSON-lines exporter
  (activated by ``REPRO_TRACE=<path>`` or ``--trace``) and an in-memory
  ring buffer the daemon serves over the ``trace`` RPC.
* :mod:`repro.obs.progress` — **streaming progress**: live events from
  running analyses (fixpoint and classify phases, pops, mitigation
  candidates) published through a thread-local reporter, collected into
  per-job watchable event logs by the scheduler and streamed to clients
  over the daemon's ``watch`` RPC.
* :mod:`repro.obs.provenance` — **provenance stamps**: a replayable
  record (source hash, full request configuration, engine version)
  attached to every analysis result and stored artifact.

Telemetry is observational by contract: spans and metrics never
participate in result keys, result equality, or the deterministic
schedule, and the whole layer is a no-op fast path when disabled —
pinned by differential tests in ``tests/test_obs.py``.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    histogram_quantile,
    metrics,
    render_prometheus,
)
from repro.obs.progress import (
    CallbackReporter,
    EventLog,
    LogReporter,
    ProgressReporter,
    current_reporter,
    publish_progress,
    reporting,
)
from repro.obs.provenance import ProvenanceStamp, stamp_for_request
from repro.obs.tracing import (
    Span,
    SpanBuffer,
    Tracer,
    current_span,
    span,
    tracer,
)

__all__ = [
    "CallbackReporter",
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "LogReporter",
    "MetricsRegistry",
    "ProgressReporter",
    "ProvenanceStamp",
    "Span",
    "SpanBuffer",
    "Tracer",
    "current_reporter",
    "current_span",
    "histogram_quantile",
    "metrics",
    "publish_progress",
    "render_prometheus",
    "reporting",
    "span",
    "stamp_for_request",
    "tracer",
]

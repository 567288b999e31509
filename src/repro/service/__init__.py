"""Analysis-as-a-service: persistence, scheduling, and the daemon.

This package turns the synchronous :class:`~repro.engine.engine.AnalysisEngine`
into a long-running service with durable caching:

* :mod:`repro.service.store` — a sharded, content-addressed on-disk
  result store (atomic writes, versioned headers, corruption-tolerant
  reads) that backs the engine's result LRU as a second cache tier;
* :mod:`repro.service.scheduler` — an async job scheduler with priority
  queues, in-flight request coalescing, and bounded concurrency: each
  worker thread claims one job at a time and resolves it through
  ``engine.run``;
* :mod:`repro.service.wire` — the line-delimited-JSON wire encoding of
  requests and results, plus the semantic result fingerprint;
* :mod:`repro.service.server` / :mod:`repro.service.client` — the
  socket daemon and its Python client;
* :mod:`repro.service.cli` — the ``repro`` command-line entry point
  (``serve`` / ``submit`` / ``wcet`` / ``sidechannel`` / ``mitigate`` /
  ``stats`` / ``top`` / ``trace``).

The service edge is fully observable: every job keeps a lifecycle +
progress event log (streamed by the daemon's ``watch`` RPC and the
``events`` op), the scheduler feeds per-priority queue-depth gauges and
queue-wait/execute/end-to-end latency histograms into the process-wide
metrics registry (exposed by the ``metrics`` RPC and ``repro stats
--prom`` in Prometheus text format), and jobs that breach a
configurable end-to-end threshold land in a bounded slow-job log.

Layering: ``engine`` knows nothing about this package (the store plugs
into it duck-typed); the applications under :mod:`repro.apps` work
unchanged against a local engine or, through the CLI, as thin service
clients.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.scheduler import (
    Job,
    JobPriority,
    JobScheduler,
    JobState,
    SchedulerStats,
)
from repro.service.server import DEFAULT_PORT, ReproServer
from repro.service.store import STORE_FORMAT_VERSION, ResultStore, StoreStats
from repro.service.wire import (
    request_from_wire,
    request_to_wire,
    result_fingerprint,
    result_to_wire,
)

__all__ = [
    "DEFAULT_PORT",
    "Job",
    "JobPriority",
    "JobScheduler",
    "JobState",
    "ReproServer",
    "ResultStore",
    "STORE_FORMAT_VERSION",
    "SchedulerStats",
    "ServiceClient",
    "ServiceError",
    "StoreStats",
    "request_from_wire",
    "request_to_wire",
    "result_fingerprint",
    "result_to_wire",
]

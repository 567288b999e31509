"""Asynchronous job scheduling in front of the analysis engine.

The scheduler turns the synchronous :class:`~repro.engine.engine.AnalysisEngine`
into a multi-client service: callers :meth:`~JobScheduler.submit` a
request and get back a :class:`Job` handle immediately; worker threads
drain a priority queue and resolve requests through the engine in small
batches (so the engine's deduplication and optional process-pool fan-out
still apply).  Three properties matter for serving traffic:

* **priority queues** — jobs carry a :class:`JobPriority`; higher
  priorities always dispatch first, FIFO within a priority;
* **in-flight coalescing** — while a request is queued or running, any
  identical submission (same
  :meth:`~repro.engine.request.AnalysisRequest.result_key`) shares the
  first job's future instead of queueing duplicate work; each caller
  still gets its own :class:`Job` handle with its own id;
* **bounded concurrency** — at most ``max_workers`` threads execute
  analyses; everything else waits in the queue, so a flood of
  submissions degrades latency, not memory or CPU fairness.

The engine's caches (and its optional on-disk result store) sit below
the scheduler, so repeat traffic is answered without touching a worker
at all beyond the queue round trip.
"""

from __future__ import annotations

import heapq
import itertools
import logging
import os
import threading
import time
from collections import deque
from concurrent.futures import CancelledError, Future
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from enum import Enum, IntEnum

from repro.engine.engine import AnalysisEngine
from repro.engine.request import AnalysisRequest
from repro.obs import EventLog, ProgressReporter, metrics, reporting, span

#: How many queued jobs one worker may claim per dispatch; batching lets
#: ``engine.run_batch`` deduplicate and share compiles within the claim.
DEFAULT_BATCH_SIZE = 8

#: Default slow-job threshold (seconds end-to-end); overridable per
#: scheduler (``slow_job_seconds=``) or via ``REPRO_SLOW_JOB_SECONDS``.
#: ``0`` disables the slow-job log.
DEFAULT_SLOW_JOB_SECONDS = 30.0

#: How many slow-job status snapshots the scheduler retains.
SLOW_JOB_LOG_SIZE = 64

_log = logging.getLogger(__name__)


class JobPriority(IntEnum):
    """Dispatch priority; lower value dispatches first."""

    HIGH = 0
    NORMAL = 1
    LOW = 2

    @classmethod
    def parse(cls, value: "JobPriority | str | int | None") -> "JobPriority":
        if value is None:
            return cls.NORMAL
        if isinstance(value, JobPriority):
            return value
        if isinstance(value, str):
            return cls[value.upper()]
        return cls(value)


class JobState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def finished(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


class Job:
    """Handle for one submitted request.

    Coalesced jobs (identical in-flight requests) share the primary
    job's future and mirror its state, but keep their own id and
    submission timestamp so per-client accounting stays truthful.

    Every job owns an :class:`~repro.obs.EventLog` recording its
    lifecycle (``queued -> coalesced|dispatched -> running -> done |
    failed | cancelled``) plus any ``progress`` events the analysis
    publishes while it runs; the daemon's ``watch``/``events`` RPCs
    stream it.  A coalesced job's log holds only its own ``queued`` and
    ``coalesced`` entries — execution events live on the primary.
    """

    def __init__(
        self,
        job_id: str,
        request: AnalysisRequest,
        priority: JobPriority,
        primary: "Job | None" = None,
    ):
        self.id = job_id
        self.request = request
        self.priority = priority
        self.primary = primary
        #: How many later submissions coalesced onto this job's future.
        self.followers = 0
        self.future: Future = primary.future if primary is not None else Future()
        self.submitted_at = time.monotonic()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.error: str | None = None
        self._state = JobState.QUEUED
        self.events = EventLog()
        #: Last progress phase the running analysis reported (dotted
        #: path, e.g. ``fixpoint.pops``); None before any progress.
        self.phase: str | None = None

    def record(self, event: str, **fields) -> dict:
        """Append one lifecycle or progress event to this job's log."""
        if event == "progress" and "phase" in fields:
            self.phase = fields["phase"]
        return self.events.append(event, job_id=self.id, **fields)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def coalesced(self) -> bool:
        return self.primary is not None

    @property
    def state(self) -> JobState:
        if self.primary is not None:
            return self.primary.state
        return self._state

    @property
    def done(self) -> bool:
        return self.state.finished

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job finishes; True iff it did within
        ``timeout`` seconds."""
        try:
            self.future.exception(timeout=timeout)
        except (FutureTimeoutError, TimeoutError):
            return False
        except CancelledError:
            return True
        return True

    def result(self, timeout: float | None = None):
        """The analysis result (raises the job's error if it failed)."""
        return self.future.result(timeout=timeout)

    def status(self) -> dict:
        """A JSON-friendly snapshot of the job's progress."""
        source = self.primary or self
        now = time.monotonic()
        queued_for = (source.started_at or source.finished_at or now) - self.submitted_at
        running_for = None
        if source.started_at is not None:
            running_for = (source.finished_at or now) - source.started_at
        return {
            "job_id": self.id,
            "state": self.state.value,
            "phase": source.phase,
            "priority": self.priority.name.lower(),
            "label": self.request.describe(),
            "coalesced_into": self.primary.id if self.primary else None,
            "queued_seconds": round(max(queued_for, 0.0), 6),
            "running_seconds": round(running_for, 6) if running_for is not None else None,
            "error": source.error,
        }


@dataclass
class SchedulerStats:
    """Aggregate accounting for one scheduler instance."""

    submitted: int = 0
    coalesced: int = 0
    completed: int = 0
    failed: int = 0
    cancelled: int = 0
    dispatched_batches: int = 0
    queued: int = 0
    running: int = 0
    #: Jobs whose end-to-end latency exceeded the slow-job threshold.
    slow_jobs: int = 0
    #: Currently queued jobs by priority name (``{"high": 0, ...}``).
    queue_depth: dict = field(default_factory=dict)

    def __str__(self) -> str:
        return (
            f"scheduler: {self.submitted} submitted "
            f"({self.coalesced} coalesced), {self.completed} completed, "
            f"{self.failed} failed, {self.cancelled} cancelled; "
            f"{self.queued} queued, {self.running} running"
        )


class SchedulerShutdown(RuntimeError):
    """Raised for submissions to a scheduler that has been shut down."""


class _BatchProgress(ProgressReporter):
    """Multiplexes analysis progress onto every job in one dispatched
    batch.

    Batches execute through ``engine.run_batch``, which interleaves the
    member requests, so progress inside a batch is attributed to the
    whole claim — exactly like the batch span's ``job_ids`` attribute.
    """

    def __init__(self, jobs: list[Job]):
        self._jobs = jobs

    def publish(self, phase: str, **fields) -> None:
        for job in self._jobs:
            job.record("progress", phase=phase, **fields)


class JobScheduler:
    """Priority-queue front end over one :class:`AnalysisEngine`."""

    def __init__(
        self,
        engine: AnalysisEngine | None = None,
        max_workers: int = 2,
        batch_size: int = DEFAULT_BATCH_SIZE,
        autostart: bool = True,
        slow_job_seconds: float | None = None,
    ):
        self.engine = engine if engine is not None else AnalysisEngine()
        self.max_workers = max(1, max_workers)
        self.batch_size = max(1, batch_size)
        if slow_job_seconds is None:
            slow_job_seconds = float(
                os.environ.get("REPRO_SLOW_JOB_SECONDS", DEFAULT_SLOW_JOB_SECONDS)
            )
        #: End-to-end latency above which a job lands in the slow-job
        #: log (and a warning is logged); 0 disables.
        self.slow_job_seconds = max(0.0, slow_job_seconds)
        self._lock = threading.Condition()
        self._heap: list[tuple[int, int, Job]] = []
        self._ticket = itertools.count()
        self._job_seq = itertools.count(1)
        self._jobs: dict[str, Job] = {}
        self._inflight: dict[str, Job] = {}  # result_key -> primary job
        self._running = 0
        self._shutdown = False
        self._stats = SchedulerStats()
        self._queue_depth = {priority: 0 for priority in JobPriority}
        self._slow_jobs: deque[dict] = deque(maxlen=SLOW_JOB_LOG_SIZE)
        self._workers: list[threading.Thread] = []
        if autostart:
            self.start_workers()

    def start_workers(self) -> None:
        """Launch the worker threads (idempotent; called by the
        constructor unless ``autostart=False``)."""
        if self._workers:
            return
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-worker-{i}", daemon=True
            )
            for i in range(self.max_workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    def submit(
        self,
        request: AnalysisRequest,
        priority: JobPriority | str | int | None = None,
    ) -> Job:
        """Queue ``request``; returns immediately with a :class:`Job`.

        An identical request already queued or running is *coalesced*:
        the returned job shares the in-flight job's future and never
        occupies a queue slot of its own.
        """
        priority = JobPriority.parse(priority)
        key = request.result_key()
        with self._lock:
            if self._shutdown:
                raise SchedulerShutdown("scheduler is shut down")
            self._stats.submitted += 1
            primary = self._inflight.get(key)
            if primary is not None and not primary.state.finished:
                job = Job(self._next_id(), request, priority, primary=primary)
                self._jobs[job.id] = job
                primary.followers += 1
                self._stats.coalesced += 1
                job.record("queued", priority=priority.name.lower())
                job.record("coalesced", into=primary.id)
                if (
                    priority < primary.priority
                    and primary.state is JobState.QUEUED
                ):
                    # The coalesced submission outranks the queued
                    # primary: bump it.  The old heap entry stays behind
                    # and is skipped on pop (no longer QUEUED by then or
                    # claimed through the new entry first).
                    self._depth_changed(primary.priority, -1)
                    primary.priority = priority
                    self._depth_changed(priority, +1)
                    primary.record("bumped", priority=priority.name.lower(), by=job.id)
                    heapq.heappush(
                        self._heap, (int(priority), next(self._ticket), primary)
                    )
                    self._lock.notify()
                return job
            job = Job(self._next_id(), request, priority)
            self._jobs[job.id] = job
            self._inflight[key] = job
            heapq.heappush(self._heap, (int(priority), next(self._ticket), job))
            self._depth_changed(priority, +1)
            job.record(
                "queued", priority=priority.name.lower(), label=request.describe()
            )
            self._lock.notify()
            return job

    def job(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def cancel(self, job_id: str) -> bool:
        """Cancel a job that is still queued; True on success.  Running
        jobs, coalesced jobs, and primaries other clients have coalesced
        onto are not cancellable (cancelling a shared future would
        destroy the other clients' work)."""
        with self._lock:
            job = self._jobs.get(job_id)
            if (
                job is None
                or job.coalesced
                or job.followers
                or job.state is not JobState.QUEUED
            ):
                return False
            job._state = JobState.CANCELLED
            job.finished_at = time.monotonic()
            self._inflight.pop(job.request.result_key(), None)
            self._stats.cancelled += 1
            self._depth_changed(job.priority, -1)
            job.record("cancelled")
        job.future.cancel()
        return True

    @property
    def stats(self) -> SchedulerStats:
        with self._lock:
            snapshot = SchedulerStats(**vars(self._stats))
            snapshot.queued = sum(
                1 for _, _, job in self._heap if job.state is JobState.QUEUED
            )
            snapshot.running = self._running
            snapshot.queue_depth = {
                priority.name.lower(): depth
                for priority, depth in self._queue_depth.items()
            }
            return snapshot

    def recent_jobs(self, limit: int = 32) -> list[dict]:
        """Status snapshots of the most recently submitted jobs (the
        ``top`` RPC's job table)."""
        with self._lock:
            jobs = list(self._jobs.values())[-max(1, limit):]
        return [job.status() for job in jobs]

    def slow_jobs(self) -> list[dict]:
        """Status snapshots of jobs that breached the slow threshold."""
        with self._lock:
            return [dict(entry) for entry in self._slow_jobs]

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every submitted job has finished; True iff the
        queue emptied within ``timeout`` seconds."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while self._heap or self._running:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._lock.wait(timeout=remaining if remaining is not None else 0.1)
        return True

    def shutdown(self, wait: bool = True, timeout: float | None = None) -> None:
        """Stop accepting work; optionally wait for in-flight jobs."""
        with self._lock:
            self._shutdown = True
            self._lock.notify_all()
        if wait:
            for worker in self._workers:
                worker.join(timeout=timeout)

    def __enter__(self) -> "JobScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True, timeout=30.0)

    # ------------------------------------------------------------------
    # Worker internals
    # ------------------------------------------------------------------
    def _next_id(self) -> str:
        return f"job-{next(self._job_seq):06d}"

    def _depth_changed(self, priority: JobPriority, delta: int) -> None:
        """Track per-priority queue depth (caller holds the lock) and
        mirror it into the metrics registry's gauges."""
        self._queue_depth[priority] += delta
        metrics().gauge(f"scheduler.queue_depth.{priority.name.lower()}").set(
            self._queue_depth[priority]
        )

    def _claim_batch(self) -> list[Job] | None:
        """Claim up to ``batch_size`` queued jobs (highest priority
        first); None once the scheduler drains after shutdown."""
        with self._lock:
            while not self._heap:
                if self._shutdown:
                    return None
                self._lock.wait()
            batch: list[Job] = []
            while self._heap and len(batch) < self.batch_size:
                _, _, job = self._heap[0]
                if job.state is not JobState.QUEUED:
                    heapq.heappop(self._heap)
                    continue  # cancelled while queued, or a stale bump entry
                heapq.heappop(self._heap)
                job._state = JobState.RUNNING
                job.started_at = time.monotonic()
                self._depth_changed(job.priority, -1)
                queue_wait = job.started_at - job.submitted_at
                metrics().histogram("scheduler.queue_wait_seconds").observe(queue_wait)
                job.record("dispatched", queued_seconds=round(queue_wait, 6))
                batch.append(job)
            self._running += len(batch)
            self._stats.dispatched_batches += 1 if batch else 0
            return batch

    def _worker_loop(self) -> None:
        while True:
            batch = self._claim_batch()
            if batch is None:
                return
            if not batch:
                continue
            # The dispatch span carries the claimed job ids, so the
            # daemon's ``trace`` RPC can find the whole execution tree of
            # one job (every engine/fixpoint span nests under this one).
            # Jobs finish only once the span has closed, i.e. has been
            # exported: a client that asks for the trace as soon as it
            # holds the result must find the whole tree.
            outcomes: list[tuple[Job, object, Exception | None]] = []
            with span(
                "scheduler.batch",
                job_ids=[job.id for job in batch],
                jobs=len(batch),
                queued_seconds=round(
                    max(job.started_at - job.submitted_at for job in batch), 6
                ),
            ) as batch_span:
                for job in batch:
                    job.record("running", jobs_in_batch=len(batch))
                with reporting(_BatchProgress(batch)):
                    try:
                        results = self.engine.run_batch(
                            [job.request for job in batch]
                        )
                    except Exception:
                        # A batch-level failure says nothing about which
                        # request is at fault — retry them individually so
                        # healthy jobs still complete and only the
                        # offender fails.
                        results = None
                if results is not None:
                    outcomes = [
                        (job, result, None) for job, result in zip(batch, results)
                    ]
                else:
                    batch_span.set(retried_individually=True)
                    for job in batch:
                        with span("scheduler.job", job_id=job.id) as job_span, \
                                reporting(_BatchProgress([job])):
                            try:
                                result = self.engine.run(job.request)
                            except Exception as error:  # noqa: BLE001 — job-level report
                                job_span.set(failed=True)
                                outcomes.append((job, None, error))
                            else:
                                outcomes.append((job, result, None))
            for job, result, error in outcomes:
                self._finish(job, result=result, error=error)

    def _finish(self, job: Job, result=None, error: Exception | None = None) -> None:
        with self._lock:
            job.finished_at = time.monotonic()
            execute_seconds = job.finished_at - (job.started_at or job.finished_at)
            e2e_seconds = job.finished_at - job.submitted_at
            registry = metrics()
            registry.histogram("scheduler.execute_seconds").observe(execute_seconds)
            registry.histogram("scheduler.e2e_seconds").observe(e2e_seconds)
            if error is not None:
                job._state = JobState.FAILED
                job.error = f"{type(error).__name__}: {error}"
                self._stats.failed += 1
                job.record(
                    "failed",
                    error=job.error,
                    execute_seconds=round(execute_seconds, 6),
                    e2e_seconds=round(e2e_seconds, 6),
                )
            else:
                job._state = JobState.DONE
                self._stats.completed += 1
                job.record(
                    "done",
                    execute_seconds=round(execute_seconds, 6),
                    e2e_seconds=round(e2e_seconds, 6),
                    followers=job.followers,
                )
            if self.slow_job_seconds and e2e_seconds >= self.slow_job_seconds:
                self._stats.slow_jobs += 1
                registry.counter("scheduler.slow_jobs").inc()
                entry = job.status()
                entry["e2e_seconds"] = round(e2e_seconds, 6)
                self._slow_jobs.append(entry)
                _log.warning(
                    "slow job %s: %.1fs end-to-end (threshold %.1fs): %s",
                    job.id, e2e_seconds, self.slow_job_seconds,
                    job.request.describe(),
                )
            self._running -= 1
            inflight = self._inflight.get(job.request.result_key())
            if inflight is job:
                del self._inflight[job.request.result_key()]
            self._lock.notify_all()
        if error is not None:
            job.future.set_exception(error)
        else:
            job.future.set_result(result)

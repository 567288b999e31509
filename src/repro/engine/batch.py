"""Parallel batch execution for the AnalysisEngine.

A batch is a list of :class:`AnalysisRequest` values resolved in request
order, so batch submission is a drop-in replacement for a sequential
loop:

* sequentially (the default), each request goes through
  :meth:`AnalysisEngine.run` — duplicates and repeats are answered by
  the engine's result cache;
* only when the caller passes ``max_workers > 1`` (the table
  generators in :mod:`repro.bench.tables` take it as an argument), the
  requests missing the result cache are deduplicated, chunked into work
  units that each compile their source once, and fanned out over a
  :class:`~concurrent.futures.ProcessPoolExecutor` (analyses are pure
  CPU-bound Python, so processes are the only route to real parallelism
  under the GIL), then stored back into the engine's caches.  Large
  single-source groups are split across workers, so many configurations
  of one program still parallelise (at the cost of one extra front-end
  run per split chunk, inside the workers).

Results are bit-identical either way: :func:`execute_request` is
deterministic and side-effect free.  Only the sequential path retains
snapshots of its speculative runs and honours ``warm_from=`` handles
(see :mod:`repro.engine.incremental`); fanned-out requests run cold and
leave no snapshot behind.  Cache statistics are kept
consistent with the sequential path: one result-cache lookup per
distinct request plus one hit per in-batch duplicate, and one logical
compile miss per distinct source.  If the platform refuses to give us a
process pool (sandboxes without semaphores, restricted containers), the
batch silently degrades to in-process execution.

Batches share one process-wide executor (:func:`shared_process_pool`),
created lazily and reused across calls, so repeated batches do not pay
fork+import startup each time.
"""

from __future__ import annotations

import atexit
import math
import threading
from concurrent.futures import BrokenExecutor, CancelledError, ProcessPoolExecutor
from typing import Iterable

from repro.engine.engine import AnalysisEngine, _copy_result, compile_request, execute_request
from repro.engine.request import AnalysisRequest
from repro.obs import metrics, tracer

__all__ = [
    "discard_shared_pool",
    "run_batch",
    "shared_process_pool",
]

#: Failures while *standing up* a pool (sandboxes without semaphores,
#: restricted containers) that demote a batch to in-process execution.
_POOL_SETUP_FAILURES = (BrokenExecutor, OSError, RuntimeError)

#: Infrastructure failures while *collecting* results (a worker died
#: abruptly, the pool broke mid-flight, or another batch found it broken
#: and discarded it, cancelling the work still queued).  Deliberately
#: narrower than the setup tuple: exceptions an analysis itself raises in
#: a worker — including RuntimeError subclasses like RecursionError —
#: propagate to the caller unchanged.
_POOL_COLLECT_FAILURES = (BrokenExecutor, CancelledError, OSError)


# ----------------------------------------------------------------------
# Shared process-pool executor
# ----------------------------------------------------------------------
# One lazily-created executor is shared process-wide and grown (replaced)
# when a caller needs more workers than it has; it is discarded when it
# breaks (the next caller gets a fresh one) and at interpreter exit.
_shared_pool: ProcessPoolExecutor | None = None
_shared_pool_size = 0
_shared_pool_lock = threading.Lock()


def shared_process_pool(max_workers: int) -> ProcessPoolExecutor | None:
    """The process-wide executor, sized for at least ``max_workers``
    (None when the platform cannot stand up a process pool).

    The executor outlives individual calls; callers must never shut it
    down — report a broken one via :func:`discard_shared_pool` instead.
    """
    global _shared_pool, _shared_pool_size
    max_workers = max(1, max_workers)
    with _shared_pool_lock:
        if _shared_pool is not None and _shared_pool_size >= max_workers:
            return _shared_pool
        stale = _shared_pool
        _shared_pool = None
        _shared_pool_size = 0
        if stale is not None:
            # Outgrown, not broken: a batch in another thread may still
            # be waiting on work queued there, so the old executor
            # finishes that work before its workers exit.
            stale.shutdown(wait=False)
        try:
            pool = ProcessPoolExecutor(max_workers=max_workers)
        except _POOL_SETUP_FAILURES:
            return None
        _shared_pool = pool
        _shared_pool_size = max_workers
        metrics().counter("pool.executors_started").inc()
        metrics().gauge("pool.executor_size").set(max_workers)
        return pool


def discard_shared_pool(pool: ProcessPoolExecutor | None = None) -> None:
    """Drop the shared executor, cancelling its queued work; the next
    :func:`shared_process_pool` call builds a fresh one.

    With ``pool`` (a batch's executor broke), only that executor is
    dropped, and only while it is still the shared one: another batch may
    already have replaced it with a larger, healthy executor and queued
    work there.  Without it (interpreter exit), whichever executor is
    current goes.
    """
    global _shared_pool, _shared_pool_size
    with _shared_pool_lock:
        if pool is not None and pool is not _shared_pool:
            return
        stale = _shared_pool
        _shared_pool = None
        _shared_pool_size = 0
    if stale is not None:
        stale.shutdown(wait=False, cancel_futures=True)


atexit.register(discard_shared_pool)


def run_batch(
    engine: AnalysisEngine,
    requests: Iterable[AnalysisRequest],
    max_workers: int | None = None,
) -> list:
    """Resolve ``requests`` through ``engine``; see the module docstring."""
    requests = list(requests)
    if max_workers is not None and max_workers > 1 and len(requests) > 1:
        results, used_pool = _run_deduplicated(engine, requests, max_workers)
        engine._note_batch(parallel=used_pool, requests=len(requests))
        return results

    engine._note_batch(parallel=False)
    return [engine.run(request) for request in requests]


def _run_deduplicated(
    engine: AnalysisEngine, requests: list[AnalysisRequest], max_workers: int
) -> tuple[list, bool]:
    """Deduplicate the batch, fan the distinct misses out over a process
    pool (falling back to in-process execution when the pool is
    unavailable or not worth spinning up), and reassemble results in
    request order.  Returns ``(results, used_pool)``."""
    results: list = [None] * len(requests)
    pending: dict[str, list[int]] = {}  # result_key -> indices of duplicates
    for index, request in enumerate(requests):
        key = request.result_key()
        if key in pending:
            # In-batch duplicate of a request already known to miss; its
            # cache hit is recorded when it is served below.
            pending[key].append(index)
            continue
        cached = engine._cached_result(request)
        if cached is not None:
            results[index] = cached
        else:
            pending[key] = [index]

    todo = [(indices[0], requests[indices[0]]) for indices in pending.values()]
    # Group by compile key so workers compile each source once, then split
    # oversized groups so a single source with many configurations still
    # spreads across workers.
    groups: dict[str, list[tuple[int, AnalysisRequest]]] = {}
    for index, request in todo:
        groups.setdefault(request.compile_key(), []).append((index, request))
    units = _work_units(list(groups.values()), max_workers, len(todo))

    fresh: dict[int, object] | None = None
    if len(units) > 1:
        fresh = _execute_on_pool(units, max_workers)
    used_pool = fresh is not None
    if fresh is None:
        fresh = {}
        for index, request in todo:
            fresh[index] = execute_request(request, program=engine.compile(request))

    duplicate_hits = sum(len(indices) - 1 for indices in pending.values())
    if used_pool:
        # Mirror the sequential path's accounting for work the pool did:
        # one logical compile per distinct source, a reuse per further
        # request of that source.
        engine._note_parallel_work(
            compiles=len(groups),
            compile_reuses=len(todo) - len(groups),
            duplicate_hits=duplicate_hits,
        )
    else:
        # engine.compile() above recorded real compile stats already.
        engine._note_parallel_work(compiles=0, compile_reuses=0, duplicate_hits=duplicate_hits)

    # Duplicates are served straight from the fresh results (never from a
    # second cache lookup — the result cache may be disabled or may have
    # evicted the entry), and every caller gets an independent copy so
    # mutations cannot corrupt the cached instance.
    for index, request in todo:
        engine._store_result(request, fresh[index])
    for indices in pending.values():
        first = fresh[indices[0]]
        for index in indices:
            results[index] = _copy_result(first)
    return results, used_pool


def _work_units(
    groups: list[list[tuple[int, AnalysisRequest]]], max_workers: int, total: int
) -> list[list[tuple[int, AnalysisRequest]]]:
    """Split compile-key groups into pool work units of roughly
    ``total / max_workers`` requests, so parallelism is not capped at the
    number of distinct sources.  Every unit stays within one compile key
    (its worker compiles exactly one source)."""
    chunk = max(1, math.ceil(total / max_workers))
    units: list[list[tuple[int, AnalysisRequest]]] = []
    for group in groups:
        for start in range(0, len(group), chunk):
            units.append(group[start : start + chunk])
    return units


def _execute_on_pool(
    units: list[list[tuple[int, AnalysisRequest]]], max_workers: int
) -> dict[int, object] | None:
    """Run each work unit as one task on the shared executor; None means
    no pool is available (fall back to in-process execution).  Analysis
    errors raised inside a worker propagate unchanged."""
    pool = shared_process_pool(min(max_workers, len(units)))
    if pool is None:
        return None
    want_spans = tracer().enabled
    futures = []
    try:
        for unit in units:
            requests = [request for _, request in unit]
            futures.append((unit, pool.submit(_execute_unit, requests, want_spans)))
    except RuntimeError:
        # The executor broke, or a batch in another thread outgrew and
        # retired it between two submits (submit then refuses new work).
        # Either way this batch runs in process.
        for _, future in futures:
            future.cancel()
        discard_shared_pool(pool)
        return None
    fresh: dict[int, object] = {}
    try:
        for unit, future in futures:
            payload = future.result()
            tracer().emit_foreign(payload["spans"])
            for (index, _), result in zip(unit, payload["results"]):
                fresh[index] = result
    except _POOL_COLLECT_FAILURES:
        # The pool broke mid-flight; retire it so the next batch starts
        # from a healthy executor, and run this one in process.
        discard_shared_pool(pool)
        return None
    return fresh


def _execute_unit(requests: list[AnalysisRequest], want_spans: bool = False) -> dict:
    """Worker entry point: all requests in a unit share one compile_key,
    so the source is compiled once and reused across analysis kinds.

    The whole unit runs in the tracer's collect mode — a forked worker
    must never write to the master's trace file (its fork-inherited sinks
    may even share the open file descriptor).  The collected spans are
    relayed in the reply when the master asked for them; it re-emits them
    into its own tree.
    """
    with tracer().collecting() as collected:
        program = compile_request(requests[0])
        results = [execute_request(request, program=program) for request in requests]
    return {"results": results, "spans": collected.spans if want_spans else []}

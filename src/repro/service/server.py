"""The analysis daemon: a line-delimited-JSON socket server.

One :class:`ReproServer` owns an :class:`~repro.engine.engine.AnalysisEngine`
(optionally backed by an on-disk :class:`~repro.service.store.ResultStore`)
and a :class:`~repro.service.scheduler.JobScheduler`, and exposes them
over a TCP socket on localhost.  The protocol is deliberately minimal —
one JSON object per line in each direction — so any language with a
socket and a JSON parser is a client:

======== ============================================= =========================
op       request fields                                response fields
======== ============================================= =========================
ping     —                                             ``pong`` (server time)
submit   ``request`` (wire form), ``priority``         ``job_id``, ``coalesced``
status   ``job_id``                                    ``job`` (status dict)
result   ``job_id``, ``timeout`` (seconds, optional)   ``job``, ``result``,
                                                       ``fingerprint``
analyze  ``request``, ``priority``, ``timeout``        ``job``, ``result``,
                                                       ``fingerprint``, ``job_id``
mitigate ``request``, ``optimize``                     ``mitigation`` (wire form)
stats    —                                             engine/scheduler/store/
                                                       reply cache/metrics
metrics  —                                             ``metrics`` (registry snapshot)
events   ``job_id``                                    ``events`` (lifecycle log), ``job``
top      ``limit``                                     ``top`` (queue/worker/job view)
watch    ``job_id``, ``heartbeat``, ``timeout``        *streaming* (see below)
trace    ``job_id``                                    ``spans`` (completed span dicts)
shutdown —                                             acknowledgement
======== ============================================= =========================

``analyze`` is submit + wait in one call; its failure replies carry
``job_id`` too.  ``fingerprint`` is the result's
:func:`~repro.service.wire.result_fingerprint`.

``watch`` is the one streaming op: instead of a single response line the
server tails the job's event log, writing one ``{"ok": true, "event":
...}`` line per lifecycle/progress event, an ``{"ok": true,
"heartbeat": ...}`` line whenever ``heartbeat`` seconds pass without an
event (so clients can distinguish "quiet" from "dead"), and finally one
``{"ok": true, "done": true, "job": ...}`` line when the job reaches a
terminal state.  The connection stays usable for further requests
afterwards.

The server keeps a bounded in-memory :class:`~repro.obs.SpanBuffer`
attached to the process tracer, so the ``trace`` op can return the span
tree of any recently executed job (matched through the ``job_id``
attribute of the ``scheduler.job`` span its worker ran it under; a
coalesced job answers with its primary's tree) without any trace file
being configured.

``mitigate`` runs the full detect → repair → re-verify synthesis of
:mod:`repro.mitigation` on the server's engine (so all intermediate
analyses hit the shared caches) and memoises whole results — in memory
and, when a store is attached, in the tier-2 store keyed by the
program + configuration hash (:func:`repro.mitigation.mitigation_key`).

A result replayed from the engine's result tiers never changes, so the
``result`` and ``analyze`` replies encode it once: a bounded LRU
(:data:`REPLY_CACHE_SIZE` results) keeps its JSON text and fingerprint,
and each later reply line is assembled around that text.  An entry
serves only replays of the very tier entry it was encoded from; fresh
computations, warm runs and results without a provenance stamp are
encoded per reply.

Every response carries ``"ok": true`` or ``"ok": false`` plus
``"error"``; protocol errors never kill the connection, and a broken
connection never kills the daemon.  A request line longer than
:data:`MAX_REQUEST_LINE` bytes is answered with one error and closes its
connection.
"""

from __future__ import annotations

import json
import socket
import threading
import time

from repro.engine.cache import LRUCache
from repro.engine.engine import AnalysisEngine
from repro.mitigation import mitigation_key, synthesize_mitigation
from repro.obs import SpanBuffer, metrics, tracer
from repro.service.scheduler import JobScheduler, JobState
from repro.service.store import ResultStore
from repro.service.wire import WireError, bool_from_wire, encode_result, request_from_wire

#: Default TCP port of the daemon (an unassigned registered port).
DEFAULT_PORT = 7351

#: Default bound on how long a blocking ``result``/``analyze`` call may
#: wait server-side before reporting a timeout to the client.
DEFAULT_RESULT_TIMEOUT = 300.0

#: How many replayed results keep their encoded reply text.
REPLY_CACHE_SIZE = 64

#: Longest request line the daemon reads, in bytes (newline excluded).
MAX_REQUEST_LINE = 16 * 2**20


class ReplyCache(LRUCache):
    """Bounded LRU of encoded results, one entry per result key.

    An entry keeps the result's JSON text and fingerprint together with
    the provenance stamp of the result it was encoded from.  Every copy
    the engine hands out of one tier entry shares that stamp, so a
    ``from_cache`` result carrying the very same stamp is a replay of the
    same, unchanged entry; any other result (a fresh computation, a warm
    run, a replay of a recomputed entry) is encoded anew, and a replay of
    a recomputed entry replaces the stale text.
    """

    def encoded(self, key: str, result) -> tuple[str, str]:
        """``(text, fingerprint)`` of ``result``, the analysis result of
        result key ``key`` (see :func:`~repro.service.wire.encode_result`)."""
        provenance = result.provenance
        if not result.from_cache or provenance is None:
            return encode_result(result)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[0] is provenance:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return entry[1:]
            self.stats.misses += 1
        entry = (provenance, *encode_result(result))
        self.put(key, entry)
        return entry[1:]


class ReproServer:
    """Serve analysis requests over a localhost socket."""

    def __init__(
        self,
        engine: AnalysisEngine | None = None,
        store_dir: str | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: int = 2,
        slow_job_seconds: float | None = None,
    ):
        self.engine = engine if engine is not None else AnalysisEngine()
        if store_dir is not None and self.engine.result_store is None:
            self.engine.attach_result_store(ResultStore(store_dir))
        self.scheduler = JobScheduler(
            self.engine,
            max_workers=max_workers,
            slow_job_seconds=slow_job_seconds,
        )
        self._mitigations = LRUCache(maxsize=64)
        self._replies = ReplyCache(maxsize=REPLY_CACHE_SIZE)
        # Mitigation synthesis runs on the connection thread (it is a
        # multi-request *driver*, not a unit of scheduler work), so bound
        # and coalesce it explicitly: at most max_workers concurrent
        # syntheses, and one per key — duplicates wait, then hit the cache.
        self._mitigation_gate = threading.BoundedSemaphore(max(1, max_workers))
        self._mitigation_locks: dict[str, threading.Lock] = {}
        self._mitigation_locks_mutex = threading.Lock()
        # Completed spans of recent dispatches, served by the ``trace``
        # op.  The buffer is a plain tracer sink — attaching it also
        # *enables* tracing for this process, which is the point: a
        # daemon is observable by default.
        self.trace_buffer = SpanBuffer()
        tracer().add_sink(self.trace_buffer)
        self._stopping = threading.Event()
        self._threads: list[threading.Thread] = []
        self._listener = socket.create_server((host, port), reuse_port=False)
        self._listener.settimeout(0.2)
        self.host, self.port = self._listener.getsockname()[:2]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        return (self.host, self.port)

    def serve_forever(self) -> None:
        """Accept connections until :meth:`stop` is called (one thread
        per connection; analyses are computed on the scheduler's workers
        and only result-LRU replays on connection threads, so slow
        clients never block the queue)."""
        try:
            while not self._stopping.is_set():
                try:
                    conn, _ = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                # Daemon threads, deliberately not retained: a long-lived
                # server handles unbounded short connections and must not
                # accumulate dead Thread objects.
                threading.Thread(
                    target=self._serve_connection, args=(conn,), daemon=True
                ).start()
        finally:
            self._listener.close()
            self.scheduler.shutdown(wait=True, timeout=30.0)

    def start(self) -> "ReproServer":
        """Run :meth:`serve_forever` on a background thread (for tests
        and embedding)."""
        thread = threading.Thread(
            target=self.serve_forever, name="repro-server", daemon=True
        )
        thread.start()
        self._threads.append(thread)
        return self

    def stop(self) -> None:
        self._stopping.set()
        tracer().remove_sink(self.trace_buffer)
        try:
            self._listener.close()
        except OSError:
            pass

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _serve_connection(self, conn: socket.socket) -> None:
        with conn:
            reader = conn.makefile("rb")
            while True:
                try:
                    line = reader.readline(MAX_REQUEST_LINE + 1)
                    if len(line) > MAX_REQUEST_LINE and not line.endswith(b"\n"):
                        # Neither parse nor keep buffering an over-long
                        # line: answer once and drop the connection.
                        self._send_line(conn, {
                            "ok": False,
                            "error": f"request line exceeds {MAX_REQUEST_LINE} bytes",
                        })
                        return
                except OSError:
                    return
                if not line:
                    return
                line = line.strip()
                if not line:
                    continue
                message: dict = {}
                try:
                    parsed = json.loads(line)
                    if not isinstance(parsed, dict):
                        raise WireError("protocol messages must be JSON objects")
                    message = parsed
                    if message.get("op") == "watch":
                        # The one streaming op: writes its own response
                        # lines (events, heartbeats, terminal line) and
                        # leaves the connection usable afterwards.
                        try:
                            self._stream_watch(message, conn)
                        except OSError:
                            return
                        continue
                    response = self._dispatch(message)
                except WireError as error:
                    response = {"ok": False, "error": str(error)}
                except json.JSONDecodeError as error:
                    response = {"ok": False, "error": f"malformed JSON: {error}"}
                except Exception as error:  # noqa: BLE001 — daemon must survive
                    response = {"ok": False, "error": f"{type(error).__name__}: {error}"}
                text = response if isinstance(response, str) else json.dumps(response)
                try:
                    conn.sendall(text.encode("utf-8") + b"\n")
                except OSError:
                    return
                if message.get("op") == "shutdown" and response.get("ok"):
                    self.stop()
                    return

    @staticmethod
    def _send_line(conn: socket.socket, payload: dict) -> None:
        conn.sendall(json.dumps(payload).encode("utf-8") + b"\n")

    def _stream_watch(self, message: dict, conn: socket.socket) -> None:
        """The ``watch`` op: tail a job's event log over the wire.

        Streams every lifecycle/progress event as its own response line,
        emits a heartbeat line whenever ``heartbeat`` seconds pass
        without one, and closes the stream with a terminal ``done`` line
        (or an ``ok: false`` line on timeout / unknown job).  A
        coalesced job's own ``queued``/``coalesced`` events are sent
        first, then the primary's log is followed — execution events
        live there.
        """
        job = self.scheduler.job(str(message.get("job_id")))
        if job is None:
            self._send_line(
                conn,
                {"ok": False, "error": f"unknown job {message.get('job_id')!r}"},
            )
            return
        heartbeat = max(0.05, float(message.get("heartbeat") or 2.0))
        deadline = time.monotonic() + float(
            message.get("timeout") or DEFAULT_RESULT_TIMEOUT
        )
        source = job.primary or job
        if job.primary is not None:
            for event in job.events.snapshot():
                self._send_line(conn, {"ok": True, "event": event})
        cursor = 0
        while True:
            fresh = source.events.wait_since(cursor, timeout=heartbeat)
            for event in fresh:
                cursor = max(cursor, event["seq"])
                self._send_line(conn, {"ok": True, "event": event})
            if job.done and source.events.last_seq <= cursor:
                self._send_line(conn, {"ok": True, "done": True, "job": job.status()})
                return
            if not fresh:
                if time.monotonic() >= deadline:
                    self._send_line(
                        conn,
                        {
                            "ok": False,
                            "error": f"watch of job {job.id} timed out",
                            "job": job.status(),
                        },
                    )
                    return
                self._send_line(
                    conn, {"ok": True, "heartbeat": time.time(), "job_id": job.id}
                )

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def _dispatch(self, message: dict) -> dict:
        op = message.get("op")
        handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) else None
        if handler is None or not op or op.startswith("_"):
            return {"ok": False, "error": f"unknown op {op!r}"}
        return handler(message)

    def _op_ping(self, message: dict) -> dict:
        return {"ok": True, "pong": time.time()}

    def _op_submit(self, message: dict) -> dict:
        request = request_from_wire(message.get("request") or {})
        job = self.scheduler.submit(request, priority=message.get("priority"))
        return {"ok": True, "job_id": job.id, "coalesced": job.coalesced}

    def _op_status(self, message: dict) -> dict:
        job = self.scheduler.job(str(message.get("job_id")))
        if job is None:
            return {"ok": False, "error": f"unknown job {message.get('job_id')!r}"}
        return {"ok": True, "job": job.status()}

    def _op_result(self, message: dict) -> dict:
        job = self.scheduler.job(str(message.get("job_id")))
        if job is None:
            return {"ok": False, "error": f"unknown job {message.get('job_id')!r}"}
        return self._await_result(job, message)

    def _op_analyze(self, message: dict) -> dict | str:
        """Submit + blocking result in one round trip."""
        request = request_from_wire(message.get("request") or {})
        job = self.scheduler.submit(request, priority=message.get("priority"))
        return self._await_result(job, message, job_id=job.id)

    def _await_result(self, job, message: dict, job_id: str | None = None) -> dict | str:
        """The reply to ``result`` (and, with ``job_id``, to ``analyze``):
        an error dict, or the finished job's reply line as JSON text, the
        result's text taken from the reply cache."""
        timeout = float(message.get("timeout") or DEFAULT_RESULT_TIMEOUT)
        if not job.wait(timeout=timeout):
            response = {"ok": False, "error": f"job {job.id} still {job.state.value}",
                        "job": job.status()}
        elif job.state is JobState.FAILED:
            response = {"ok": False, "error": job.status()["error"], "job": job.status()}
        elif job.state is JobState.CANCELLED:
            response = {"ok": False, "error": f"job {job.id} was cancelled",
                        "job": job.status()}
        else:
            # The text json.dumps would write for {"ok", "job", "result",
            # "fingerprint"[, "job_id"]}.
            text, fingerprint = self._replies.encoded(
                job.request.result_key(), job.result()
            )
            line = (
                f'{{"ok": true, "job": {json.dumps(job.status())}, '
                f'"result": {text}, "fingerprint": {json.dumps(fingerprint)}'
            )
            if job_id is not None:
                line += f', "job_id": {json.dumps(job_id)}'
            return line + "}"
        if job_id is not None:
            response["job_id"] = job_id
        return response

    def _op_mitigate(self, message: dict) -> dict:
        """Synthesise (or replay) a verified fence placement."""
        request = request_from_wire(message.get("request") or {})
        optimize = bool_from_wire(message, "optimize", True)
        key = mitigation_key(request, optimize)
        result = self._lookup_mitigation(key)
        from_cache = True
        if result is None:
            try:
                with self._mitigation_lock(key):
                    # Identical concurrent requests coalesce here: the first
                    # holder synthesises, the rest find its cached result.
                    result = self._lookup_mitigation(key)
                    if result is None:
                        from_cache = False
                        with self._mitigation_gate:
                            result = synthesize_mitigation(
                                request, engine=self.engine, optimize=optimize
                            )
                        self._mitigations.put(key, result)
                        if self.engine.result_store is not None:
                            try:
                                self.engine.result_store.put(key, result)
                            except OSError:
                                pass  # tier 2 is best-effort, as in the engine
            finally:
                # Drop the per-key lock so the dict stays bounded (late
                # waiters keep their reference and will hit the cache).
                with self._mitigation_locks_mutex:
                    self._mitigation_locks.pop(key, None)
        wire = result.to_wire()
        wire["from_cache"] = from_cache
        if from_cache:
            # The key deliberately excludes the label (identical programs
            # coalesce), so a replay must never leak the first requester's
            # label back as this result's name — even to label-less callers.
            wire["name"] = request.label or request.entry or "<program>"
        return {"ok": True, "mitigation": wire}

    def _lookup_mitigation(self, key: str):
        result = self._mitigations.get(key)
        if result is None and self.engine.result_store is not None:
            result = self.engine.result_store.get(key)
            if result is not None:
                self._mitigations.put(key, result)
        return result

    def _mitigation_lock(self, key: str) -> threading.Lock:
        with self._mitigation_locks_mutex:
            return self._mitigation_locks.setdefault(key, threading.Lock())

    def _op_stats(self, message: dict) -> dict:
        engine_stats = self.engine.stats
        payload = {
            "requests": engine_stats.requests,
            "compile_cache": vars(engine_stats.compile),
            "result_cache": vars(engine_stats.results),
            "result_store": (
                None if engine_stats.store is None else vars(engine_stats.store)
            ),
            "scheduler": vars(self.scheduler.stats),
            "reply_cache": vars(self._replies.stats.snapshot()),
            "incremental": engine_stats.incremental.to_wire(),
            "slow_jobs": self.scheduler.slow_jobs(),
            # Process-wide registry: store.*, fixpoint.*, access_table.*,
            # incremental.* counters from every subsystem that ran in
            # this daemon.
            "metrics": metrics().snapshot(),
        }
        return {"ok": True, "stats": payload}

    def _op_metrics(self, message: dict) -> dict:
        """The full metrics-registry snapshot (for ``repro stats --prom``
        and scrapers; pure data — rendering happens client-side)."""
        return {"ok": True, "metrics": metrics().snapshot()}

    def _op_events(self, message: dict) -> dict:
        """A job's recorded lifecycle + progress events.  For a
        coalesced job: its own events followed by its primary's (each
        event carries ``job_id``, so the split is recoverable)."""
        job = self.scheduler.job(str(message.get("job_id")))
        if job is None:
            return {"ok": False, "error": f"unknown job {message.get('job_id')!r}"}
        events = job.events.snapshot()
        if job.primary is not None:
            events += job.primary.events.snapshot()
        return {"ok": True, "events": events, "job": job.status()}

    def _op_top(self, message: dict) -> dict:
        """One frame of the live queue/worker view (``repro top``)."""
        stats = self.scheduler.stats
        limit = int(message.get("limit") or 32)
        return {
            "ok": True,
            "top": {
                "time": time.time(),
                "max_workers": self.scheduler.max_workers,
                "slow_job_seconds": self.scheduler.slow_job_seconds,
                "scheduler": vars(stats),
                "incremental": self.engine.stats.incremental.to_wire(),
                "slow_jobs": self.scheduler.slow_jobs(),
                "jobs": self.scheduler.recent_jobs(limit),
                # Only the scheduler's own latency/depth instruments:
                # the full registry is the ``metrics`` op's job.
                "metrics": metrics().snapshot(prefix="scheduler."),
            },
        }

    def _op_trace(self, message: dict) -> dict:
        """Completed spans of the run that executed ``job_id`` (for a
        coalesced job, its primary's run)."""
        job = self.scheduler.job(str(message.get("job_id")))
        if job is None:
            return {"ok": False, "error": f"unknown job {message.get('job_id')!r}"}
        spans = self.trace_buffer.trace_for_job((job.primary or job).id)
        return {"ok": True, "spans": spans}

    def _op_shutdown(self, message: dict) -> dict:
        return {"ok": True, "stopping": True}

"""Python client for the analysis daemon.

A :class:`ServiceClient` holds one persistent connection to a
:class:`~repro.service.server.ReproServer` and wraps each protocol op in
a method.  The transport is one JSON object per line in each direction,
so every method is a single ``sendall`` + ``readline`` round trip; the
client is intentionally dependency-free (``socket`` + ``json``).

Typical use::

    with ServiceClient(port=7351) as client:
        job_id = client.submit(AnalysisRequest.speculative(source))
        report = client.result(job_id)          # blocks until done
        print(report["must_hits"], report["misses"])
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Callable

from repro.engine.request import AnalysisRequest
from repro.service.server import DEFAULT_PORT, DEFAULT_RESULT_TIMEOUT
from repro.service.wire import request_to_wire

#: Default bound on one connection attempt; a dead daemon fails fast
#: instead of hanging the client for the full result timeout.
DEFAULT_CONNECT_TIMEOUT = 10.0

#: Extra connection attempts after the first (3 attempts total), with
#: exponential backoff between them — rides out a daemon mid-restart.
DEFAULT_CONNECT_RETRIES = 2

#: Backoff before the first retry, doubling per attempt.
DEFAULT_CONNECT_BACKOFF = 0.25


class ServiceError(RuntimeError):
    """An error reported by the daemon (``"ok": false``) or a transport
    failure."""


class ServiceClient:
    """One connection to a running analysis daemon.

    ``timeout`` bounds each round trip once connected; ``connect_timeout``
    bounds each connection attempt (so a dead or unreachable daemon
    surfaces within seconds, never the full result timeout), with
    ``connect_retries`` extra attempts separated by exponential backoff
    starting at ``connect_backoff`` seconds.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        timeout: float = DEFAULT_RESULT_TIMEOUT + 30.0,
        connect_timeout: float | None = None,
        connect_retries: int = DEFAULT_CONNECT_RETRIES,
        connect_backoff: float = DEFAULT_CONNECT_BACKOFF,
    ):
        self.host = host
        self.port = port
        self.timeout = timeout
        if connect_timeout is None:
            connect_timeout = min(timeout, DEFAULT_CONNECT_TIMEOUT)
        attempts = 1 + max(0, int(connect_retries))
        last_error: OSError | None = None
        for attempt in range(attempts):
            if attempt:
                time.sleep(connect_backoff * (2 ** (attempt - 1)))
            try:
                self._sock = socket.create_connection(
                    (host, port), timeout=connect_timeout
                )
                break
            except OSError as error:
                last_error = error
        else:
            raise ServiceError(
                f"cannot reach analysis daemon at {host}:{port} after "
                f"{attempts} attempt(s) ({last_error}); start one with "
                f"'repro serve'"
            ) from last_error
        self._sock.settimeout(timeout)
        self._reader = self._sock.makefile("rb")
        self._lock = threading.Lock()
        self._broken = False
        #: Job id of the most recent :meth:`analyze` round trip.
        self.last_job_id: str | None = None

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def call(self, op: str, **fields) -> dict:
        """One protocol round trip; returns the response payload or
        raises :class:`ServiceError`."""
        message = {"op": op, **fields}
        with self._lock:
            if self._broken:
                raise ServiceError(
                    "connection is desynchronized after an earlier transport "
                    "error; open a new ServiceClient"
                )
            try:
                self._sock.sendall(json.dumps(message).encode("utf-8") + b"\n")
                line = self._reader.readline()
            except OSError as error:
                # A timed-out or interrupted round trip leaves a response
                # in flight; any further use would read the wrong reply,
                # so poison the connection instead.
                self._broken = True
                self.close()
                raise ServiceError(f"connection to daemon lost: {error}") from error
        if not line:
            raise ServiceError("daemon closed the connection")
        try:
            response = json.loads(line)
        except json.JSONDecodeError as error:
            raise ServiceError(f"malformed response from daemon: {error}") from error
        if not isinstance(response, dict) or not response.get("ok"):
            detail = response.get("error") if isinstance(response, dict) else response
            raise ServiceError(str(detail or "daemon reported an unknown error"))
        return response

    def close(self) -> None:
        try:
            self._reader.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Protocol ops
    # ------------------------------------------------------------------
    def ping(self) -> float:
        return float(self.call("ping")["pong"])

    def submit(self, request: AnalysisRequest, priority: str | None = None) -> str:
        """Queue ``request``; returns the job id immediately."""
        response = self.call(
            "submit", request=request_to_wire(request), priority=priority
        )
        return response["job_id"]

    def status(self, job_id: str) -> dict:
        return self.call("status", job_id=job_id)["job"]

    def result(self, job_id: str, timeout: float | None = None) -> dict:
        """Block until ``job_id`` finishes; returns the wire-form result."""
        return self.call("result", job_id=job_id, timeout=timeout)["result"]

    def analyze(
        self,
        request: AnalysisRequest,
        priority: str | None = None,
        timeout: float | None = None,
    ) -> dict:
        """Submit + wait in one round trip; returns the wire-form result.

        The id of the job that served the call is kept in
        :attr:`last_job_id` (for ``repro trace``).
        """
        response = self.call(
            "analyze",
            request=request_to_wire(request),
            priority=priority,
            timeout=timeout,
        )
        self.last_job_id = response.get("job_id")
        return response["result"]

    def mitigate(self, request: AnalysisRequest, optimize: bool = True) -> dict:
        """Synthesise a verified fence placement for ``request`` on the
        daemon; returns the wire-form :class:`~repro.mitigation.
        MitigationResult` (replayed from the daemon's caches when the
        same program + configuration was mitigated before)."""
        response = self.call(
            "mitigate", request=request_to_wire(request), optimize=optimize
        )
        return response["mitigation"]

    def stats(self) -> dict:
        return self.call("stats")["stats"]

    def metrics(self) -> dict:
        """The daemon's full metrics-registry snapshot
        (``{name: payload}``; render with
        :func:`repro.obs.render_prometheus` for scrapers)."""
        return self.call("metrics")["metrics"]

    def events(self, job_id: str) -> list[dict]:
        """A job's recorded lifecycle + progress events (a coalesced
        job's own events followed by its primary's)."""
        return self.call("events", job_id=job_id)["events"]

    def top(self, limit: int = 32) -> dict:
        """One frame of the daemon's live queue/worker view."""
        return self.call("top", limit=limit)["top"]

    def watch(
        self,
        job_id: str,
        on_event: Callable[[dict], None] | None = None,
        timeout: float | None = None,
        heartbeat: float = 2.0,
    ) -> dict:
        """Stream ``job_id``'s lifecycle + progress events until it
        reaches a terminal state; returns the final status dict.

        ``on_event`` is invoked once per streamed event (heartbeat lines
        are consumed silently — they only prove the daemon is alive).
        The socket timeout is tightened to a few heartbeat intervals for
        the duration of the stream, so a daemon that dies mid-watch
        surfaces as an error within seconds.
        """
        message = {
            "op": "watch",
            "job_id": job_id,
            "timeout": timeout,
            "heartbeat": heartbeat,
        }
        with self._lock:
            if self._broken:
                raise ServiceError(
                    "connection is desynchronized after an earlier transport "
                    "error; open a new ServiceClient"
                )
            previous_timeout = self._sock.gettimeout()
            completed = False
            try:
                self._sock.settimeout(max(heartbeat * 5, 10.0))
                self._sock.sendall(json.dumps(message).encode("utf-8") + b"\n")
                while True:
                    line = self._reader.readline()
                    if not line:
                        raise ServiceError("daemon closed the connection mid-watch")
                    try:
                        response = json.loads(line)
                    except json.JSONDecodeError as error:
                        raise ServiceError(
                            f"malformed response from daemon: {error}"
                        ) from error
                    if not isinstance(response, dict) or not response.get("ok"):
                        # A terminal error line: the stream is over and
                        # the connection stays in sync.
                        completed = True
                        detail = (
                            response.get("error")
                            if isinstance(response, dict)
                            else response
                        )
                        raise ServiceError(
                            str(detail or "daemon reported an unknown error")
                        )
                    if response.get("done"):
                        completed = True
                        return response["job"]
                    event = response.get("event")
                    if event is not None and on_event is not None:
                        on_event(event)
            except OSError as error:
                raise ServiceError(
                    f"connection to daemon lost mid-watch: {error}"
                ) from error
            finally:
                if not completed:
                    # Interrupted mid-stream (transport error, timeout,
                    # or an on_event exception): unread stream lines are
                    # still in flight, so poison the connection.
                    self._broken = True
                    self.close()
                elif not self._broken:
                    self._sock.settimeout(previous_timeout)

    def trace(self, job_id: str) -> list[dict]:
        """Completed spans of the run that executed ``job_id`` (for a
        coalesced job, its primary's run; empty when the daemon's span
        buffer has already recycled them)."""
        return self.call("trace", job_id=job_id)["spans"]

    def shutdown(self) -> None:
        self.call("shutdown")

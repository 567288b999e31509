"""Live observability of the service edge.

Covers the lifecycle event log every job carries (queued -> coalesced |
dispatched -> running -> done | failed | cancelled, with monotonic
timestamps and sequence numbers), the per-priority queue-depth gauges
and latency histograms, the slow-job log, the streaming ``watch`` RPC
and its heartbeats, the ``events``/``top``/``metrics`` RPCs, Prometheus
text exposition, the progress-reporting differential (progress on/off
must be bit-identical for each pass shape of the speculative engine),
and the client's bounded connect retry.
"""

from __future__ import annotations

import json
import re
import socket
import time

import pytest

from repro.bench.programs import branchy_kernel_source
from repro.engine.engine import AnalysisEngine
from repro.engine.request import AnalysisRequest
from repro.obs import CallbackReporter, render_prometheus, reporting, tracer
from repro.service.client import ServiceClient, ServiceError
from repro.service.scheduler import JobScheduler, JobState
from repro.service.server import ReproServer
from repro.service.wire import result_fingerprint

SOURCE = "char a[64]; int p; int main() { if (p > 0) { a[0]; } a[0]; return 0; }"
BROKEN_SOURCE = "int main( { nope"

#: Two secret-dependent branches -> multiple speculation scenarios.
BRANCHY_SOURCE = """
char table[4096]; int k;
int main() {
  int x = 0;
  if (k > 0) { x = x + table[k * 64]; }
  if (k > 1) { x = x + table[128]; }
  return x;
}
"""


def distinct_request(i: int) -> AnalysisRequest:
    return AnalysisRequest.speculative(
        f"char a{i}[{64 * (i + 1)}]; int main() {{ a{i}[0]; return 0; }}"
    )


def hold_the_worker(cli: ServiceClient) -> str:
    """Occupy a one-worker daemon with a 32-branch kernel, so the jobs
    submitted next are all queued together behind it."""
    return cli.submit(AnalysisRequest.speculative(branchy_kernel_source(32)))


# ----------------------------------------------------------------------
# Job lifecycle event logs (scheduler level)
# ----------------------------------------------------------------------
class TestLifecycleEvents:
    def test_full_lifecycle_sequence(self):
        with JobScheduler(AnalysisEngine(), max_workers=1) as sched:
            job = sched.submit(AnalysisRequest.speculative(BRANCHY_SOURCE))
            job.result(timeout=60)
        events = job.events.snapshot()
        names = [event["event"] for event in events]
        assert names[0] == "queued"
        assert "dispatched" in names and "running" in names
        assert names[-1] == "done"
        assert names.index("dispatched") < names.index("running")
        # Monotonic seq and t stamps, every event attributed to the job.
        assert [e["seq"] for e in events] == sorted(e["seq"] for e in events)
        assert all(a["t"] <= b["t"] for a, b in zip(events, events[1:]))
        assert all(event["job_id"] == job.id for event in events)
        queued = events[0]
        assert queued["priority"] == "normal" and queued["label"]
        done = events[-1]
        assert done["execute_seconds"] >= 0 and done["e2e_seconds"] >= 0
        dispatched = next(e for e in events if e["event"] == "dispatched")
        assert dispatched["queued_seconds"] >= 0

    def test_analysis_publishes_progress_into_the_job_log(self):
        with JobScheduler(AnalysisEngine(), max_workers=1) as sched:
            job = sched.submit(AnalysisRequest.speculative(BRANCHY_SOURCE))
            job.result(timeout=60)
        progress = [e for e in job.events.snapshot() if e["event"] == "progress"]
        phases = {e["phase"] for e in progress}
        assert "fixpoint" in phases and "classify" in phases

    def test_coalesced_job_logs_only_its_own_enqueue(self):
        sched = JobScheduler(AnalysisEngine(), max_workers=1, autostart=False)
        request = AnalysisRequest.speculative(SOURCE)
        primary = sched.submit(request)
        follower = sched.submit(request)
        assert follower.coalesced
        sched.start_workers()
        with sched:
            follower.result(timeout=60)
        own = [e["event"] for e in follower.events.snapshot()]
        assert own == ["queued", "coalesced"]
        coalesced = follower.events.snapshot()[1]
        assert coalesced["into"] == primary.id
        # Execution events live on the primary.
        assert [e["event"] for e in primary.events.snapshot()][-1] == "done"

    def test_failed_job_records_the_error(self):
        with JobScheduler(AnalysisEngine(), max_workers=1) as sched:
            job = sched.submit(AnalysisRequest.speculative(BROKEN_SOURCE))
            with pytest.raises(Exception):
                job.result(timeout=60)
        terminal = job.events.snapshot()[-1]
        assert terminal["event"] == "failed" and terminal["error"]

    def test_cancelled_job_records_the_event(self):
        sched = JobScheduler(AnalysisEngine(), max_workers=1, autostart=False)
        job = sched.submit(distinct_request(0))
        assert sched.cancel(job.id)
        assert [e["event"] for e in job.events.snapshot()] == ["queued", "cancelled"]

    def test_status_reports_current_phase(self):
        with JobScheduler(AnalysisEngine(), max_workers=1) as sched:
            job = sched.submit(AnalysisRequest.speculative(BRANCHY_SOURCE))
            job.result(timeout=60)
        # The last reported phase survives on the job and in its status.
        assert job.phase is not None
        assert job.status()["phase"] == job.phase

    def test_queue_depth_per_priority(self):
        sched = JobScheduler(AnalysisEngine(), max_workers=1, autostart=False)
        sched.submit(distinct_request(0), priority="high")
        sched.submit(distinct_request(1))
        sched.submit(distinct_request(2))
        depth = sched.stats.queue_depth
        assert depth == {"high": 1, "normal": 2, "low": 0}
        # Cancelling decrements immediately (no wait for a dispatcher).
        jobs = sched.recent_jobs()
        sched.cancel(jobs[1]["job_id"])
        assert sched.stats.queue_depth["normal"] == 1
        sched.start_workers()
        with sched:
            sched.drain(timeout=60)
        assert all(d == 0 for d in sched.stats.queue_depth.values())

    def test_latency_histograms_fed(self):
        from repro.obs import metrics

        with JobScheduler(AnalysisEngine(), max_workers=1) as sched:
            sched.submit(distinct_request(0)).result(timeout=60)
        snapshot = metrics().snapshot()
        for name in (
            "scheduler.queue_wait_seconds",
            "scheduler.execute_seconds",
            "scheduler.e2e_seconds",
        ):
            assert snapshot[name]["count"] >= 1, f"{name} never observed"

    def test_slow_job_log_catches_threshold_breaches(self):
        with JobScheduler(
            AnalysisEngine(), max_workers=1, slow_job_seconds=1e-9
        ) as sched:
            job = sched.submit(distinct_request(0))
            job.result(timeout=60)
        assert sched.stats.slow_jobs >= 1
        slow = sched.slow_jobs()
        assert slow and slow[-1]["job_id"] == job.id
        assert slow[-1]["e2e_seconds"] > 0

    def test_slow_job_log_disabled_at_zero(self):
        with JobScheduler(
            AnalysisEngine(), max_workers=1, slow_job_seconds=0.0
        ) as sched:
            sched.submit(distinct_request(0)).result(timeout=60)
        assert sched.stats.slow_jobs == 0 and sched.slow_jobs() == []

    def test_slow_job_threshold_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_JOB_SECONDS", "123.5")
        sched = JobScheduler(AnalysisEngine(), max_workers=1, autostart=False)
        assert sched.slow_job_seconds == 123.5

    def test_recent_jobs_view(self):
        with JobScheduler(AnalysisEngine(), max_workers=1) as sched:
            jobs = [sched.submit(distinct_request(i)) for i in range(3)]
            sched.drain(timeout=60)
            recent = sched.recent_jobs(limit=2)
        assert len(recent) == 2
        assert {entry["job_id"] for entry in recent} <= {job.id for job in jobs}
        assert all(entry["state"] == "done" for entry in recent)


# ----------------------------------------------------------------------
# Progress must never perturb results (the observational contract)
# ----------------------------------------------------------------------
class TestProgressDifferential:
    def test_identical_results_with_progress_on_and_off(self, speculative_run):
        silent = speculative_run()
        phases: list[str] = []
        with reporting(CallbackReporter(lambda phase, fields: phases.append(phase))):
            reported = speculative_run()
        assert result_fingerprint(reported) == result_fingerprint(silent)
        assert reported.iterations == silent.iterations
        assert reported.entry_states == silent.entry_states
        assert reported.classifications == silent.classifications
        assert "fixpoint" in phases and "classify" in phases

    def test_progress_events_describe_each_solve(self, speculative_run):
        """Each solve announces itself (``fixpoint``), may report pops on
        the way (``fixpoint.pops``), and ends with ``classify`` carrying
        the solve's iteration count."""
        events: list[tuple[str, dict]] = []
        with reporting(CallbackReporter(lambda phase, fields: events.append((phase, fields)))):
            result = speculative_run()
        assert events[0][0] == "fixpoint"
        assert events[-1] == (
            "classify", {"program": result.program_name, "iterations": result.iterations}
        )
        pops_seen = 0
        for phase, fields in events:
            assert phase in ("fixpoint", "fixpoint.pops", "classify")
            if phase == "fixpoint":
                assert set(fields) == {"program", "scenarios"}
                pops_seen = 0
            elif phase == "fixpoint.pops":
                assert set(fields) == {"pops", "pass_name"}
                assert fields["pops"] > pops_seen
                pops_seen = fields["pops"]

    def test_publish_without_reporter_is_a_noop(self):
        from repro.obs import current_reporter, publish_progress

        assert current_reporter().active is False
        publish_progress("fixpoint", pops=1)  # must not raise


# ----------------------------------------------------------------------
# Daemon surface: watch / events / top / metrics
# ----------------------------------------------------------------------
@pytest.fixture
def server():
    srv = ReproServer(port=0, max_workers=1).start()
    yield srv
    srv.stop()


@pytest.fixture
def client(server):
    with ServiceClient(port=server.port) as cli:
        yield cli


class TestWatchRPC:
    def test_watch_streams_the_full_lifecycle(self, client):
        job_id = client.submit(AnalysisRequest.speculative(BRANCHY_SOURCE))
        seen: list[dict] = []
        status = client.watch(job_id, on_event=seen.append, timeout=60)
        assert status["state"] == "done"
        names = [event["event"] for event in seen]
        assert names[0] == "queued" and names[-1] == "done"
        assert "progress" in names, "watch must stream live progress"
        assert [e["seq"] for e in seen] == sorted(e["seq"] for e in seen)
        # The connection survives a completed stream.
        assert client.ping() > 0

    def test_watch_a_finished_job_replays_its_log(self, client):
        job_id = client.submit(AnalysisRequest.speculative(SOURCE))
        client.result(job_id, timeout=60)
        seen: list[dict] = []
        status = client.watch(job_id, on_event=seen.append, timeout=10)
        assert status["state"] == "done"
        assert [e["event"] for e in seen][-1] == "done"

    def test_watch_unknown_job_errors_and_connection_survives(self, client):
        with pytest.raises(ServiceError, match="unknown job"):
            client.watch("job-424242")
        assert client.ping() > 0

    def test_watch_emits_heartbeats_while_the_job_waits(self, server, monkeypatch):
        """Raw-socket watch of a job whose execution stalls (the engine
        is slowed artificially): the daemon must keep the stream alive
        with heartbeat lines while no events arrive."""
        real_run = server.engine.run

        def slow_run(request, **kwargs):
            time.sleep(0.5)
            return real_run(request, **kwargs)

        monkeypatch.setattr(server.engine, "run", slow_run)
        with socket.create_connection(("127.0.0.1", server.port), timeout=30) as conn:
            reader = conn.makefile("rb")

            def call(payload: dict) -> dict:
                conn.sendall(json.dumps(payload).encode() + b"\n")
                return json.loads(reader.readline())

            parked_id = call(
                {"op": "submit", "request": _wire(distinct_request(7))}
            )["job_id"]
            conn.sendall(
                json.dumps(
                    {"op": "watch", "job_id": parked_id, "heartbeat": 0.05,
                     "timeout": 60}
                ).encode() + b"\n"
            )
            heartbeats = 0
            while True:
                line = json.loads(reader.readline())
                assert line["ok"] is True
                if "heartbeat" in line:
                    heartbeats += 1
                if line.get("done"):
                    assert line["job"]["state"] == "done"
                    break
        assert heartbeats >= 1, "an idle stream must prove the daemon is alive"


def _wire(request: AnalysisRequest) -> dict:
    from repro.service.wire import request_to_wire

    return request_to_wire(request)


class TestEventsTopMetricsRPCs:
    def test_events_rpc_returns_the_lifecycle(self, client):
        job_id = client.submit(AnalysisRequest.speculative(SOURCE))
        client.result(job_id, timeout=60)
        events = client.events(job_id)
        names = [event["event"] for event in events]
        assert names[0] == "queued" and "done" in names
        assert all(event["job_id"] == job_id for event in events)

    def test_events_rpc_concatenates_a_coalesced_jobs_primary(self, server):
        # Hold the worker so the primary is still queued when its
        # duplicate arrives: the duplicate must coalesce.
        with ServiceClient(port=server.port) as cli:
            hold_the_worker(cli)
            request = AnalysisRequest.speculative(BRANCHY_SOURCE)
            primary_id = cli.submit(request)
            follower_id = cli.submit(request)
            cli.result(follower_id, timeout=120)
            events = cli.events(follower_id)
        own = [e["event"] for e in events if e["job_id"] == follower_id]
        assert own == ["queued", "coalesced"]
        relayed = [e for e in events if e["job_id"] == primary_id]
        assert any(e["event"] == "done" for e in relayed), (
            "a coalesced job's events must include its primary's"
        )

    def test_stats_carry_no_batch_counters(self, server, capsys):
        from repro.service.cli import main as cli_main

        with ServiceClient(port=server.port) as cli:
            cli.analyze(AnalysisRequest.speculative(SOURCE), timeout=60)
            stats = cli.stats()
        assert stats["requests"] == 1
        assert not {"batches", "parallel_batches"} & set(stats)
        assert "dispatched_batches" not in stats["scheduler"]
        assert cli_main(["stats", "--port", str(server.port)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "requests     : 1"
        assert not any("batches" in line for line in out)

    def test_top_rpc_frame(self, client):
        job_id = client.submit(AnalysisRequest.speculative(SOURCE))
        client.result(job_id, timeout=60)
        top = client.top(limit=8)
        assert top["max_workers"] == 1
        assert "queue_depth" in top["scheduler"]
        assert any(job["job_id"] == job_id for job in top["jobs"])
        assert all(name.startswith("scheduler.") for name in top["metrics"])
        json.dumps(top)  # the whole frame is JSON-clean

    def test_top_frame_metrics_are_the_scheduler_entries_of_a_full_snapshot(
        self, client
    ):
        job_id = client.submit(AnalysisRequest.speculative(SOURCE))
        client.result(job_id, timeout=60)
        full = client.metrics()
        scheduler = {
            name: payload for name, payload in full.items() if name.startswith("scheduler.")
        }
        assert scheduler and len(scheduler) < len(full)
        assert client.top(limit=8)["metrics"] == scheduler

    def test_metrics_rpc_snapshot_is_renderable(self, client):
        client.analyze(AnalysisRequest.speculative(SOURCE), timeout=60)
        snapshot = client.metrics()
        assert snapshot["fixpoint.pops"]["type"] == "counter"
        text = render_prometheus(snapshot)
        assert "repro_fixpoint_pops_total" in text
        assert 'le="+Inf"' in text

    def test_stats_rpc_includes_slow_jobs(self, client):
        assert client.stats()["slow_jobs"] == []


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
#: One sample line: name, optional {labels}, a number.
_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\"(,[^}]*)?\})?"
    r" (NaN|[-+]?[0-9.eE+-]+|\+Inf)$"
)


class TestPrometheusExposition:
    def test_every_line_is_valid_exposition(self, client):
        client.analyze(AnalysisRequest.speculative(BRANCHY_SOURCE), timeout=60)
        text = render_prometheus(client.metrics())
        assert text.endswith("\n")
        for line in text.splitlines():
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                continue
            assert _SAMPLE.match(line), f"invalid exposition line: {line!r}"

    def test_histogram_buckets_are_cumulative_and_capped(self, client):
        client.analyze(AnalysisRequest.speculative(SOURCE), timeout=60)
        text = render_prometheus(client.metrics())
        buckets: dict[str, list[tuple[str, int]]] = {}
        counts: dict[str, int] = {}
        for line in text.splitlines():
            if "_bucket{" in line:
                name = line.split("_bucket{", 1)[0]
                le = line.split('le="', 1)[1].split('"', 1)[0]
                buckets.setdefault(name, []).append((le, int(line.rsplit(" ", 1)[1])))
            elif " " in line and line.split(" ", 1)[0].endswith("_count"):
                name = line.split(" ", 1)[0][: -len("_count")]
                counts[name] = int(line.rsplit(" ", 1)[1])
        assert buckets, "at least one histogram must be exposed"
        for name, series in buckets.items():
            values = [value for _, value in series]
            assert values == sorted(values), f"{name} buckets not cumulative"
            assert series[-1][0] == "+Inf"
            assert series[-1][1] == counts[name], f"{name} +Inf != count"

    def test_cli_stats_prom_flag(self, server, capsys):
        from repro.service.cli import main as cli_main

        with ServiceClient(port=server.port) as cli:
            cli.analyze(AnalysisRequest.speculative(SOURCE), timeout=60)
        assert cli_main(["stats", "--prom", "--port", str(server.port)]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_scheduler_e2e_seconds histogram" in out
        assert "repro_fixpoint_pops_total" in out


    def test_cli_stats_and_top_report_incremental_without_a_switch(
        self, server, capsys
    ):
        """Every engine is incremental: ``repro stats`` reports warm hits
        with no on/off word, and ``repro top`` always shows its warm line."""
        from repro.service.cli import _render_top
        from repro.service.cli import main as cli_main

        with ServiceClient(port=server.port) as cli:
            cli.analyze(AnalysisRequest.speculative(SOURCE), timeout=60)
            top = cli.top()
        assert cli_main(["stats", "--port", str(server.port)]) == 0
        line = next(
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("incremental")
        )
        assert line.startswith("incremental  : 0 warm hits / 0 cold fallbacks")
        assert "1 snapshots retained" in line
        assert "enabled" not in top["incremental"]
        assert any(line.startswith("warm     0 hits") for line in _render_top(top))


class _SlowJobSpanSink:
    """A tracer sink that takes 0.3 s to export ``scheduler.job`` spans,
    as a trace file on a slow disk can."""

    def export(self, span) -> None:
        if span.get("name") == "scheduler.job":
            time.sleep(0.3)


class TestTraceAfterResult:
    def test_trace_rpc_right_after_the_result_holds_the_dispatch_span(self):
        """A job finishes only after its ``scheduler.job`` span has been
        exported to every sink, so a ``trace`` RPC sent as soon as the
        result arrives finds it — even behind a slow sink attached ahead
        of the daemon's ring buffer (as the ``REPRO_TRACE`` file sink is)."""
        sink = _SlowJobSpanSink()
        tracer().add_sink(sink)
        try:
            srv = ReproServer(port=0, max_workers=1).start()
            try:
                with ServiceClient(port=srv.port) as cli:
                    cli.analyze(distinct_request(11), timeout=60)
                    names = {span["name"] for span in cli.trace(cli.last_job_id)}
            finally:
                srv.stop()
        finally:
            tracer().remove_sink(sink)
        assert "scheduler.job" in names


class TestTraceRPC:
    def test_a_jobs_trace_holds_exactly_its_own_run(self, server):
        with ServiceClient(port=server.port) as cli:
            ids = [hold_the_worker(cli)]
            ids += [cli.submit(distinct_request(i)) for i in (21, 22)]
            for job_id in ids:
                cli.result(job_id, timeout=120)
            for job_id in ids:
                spans = cli.trace(job_id)
                names = [s["name"] for s in spans]
                assert names.count("analyze") == 1, names
                (job_span,) = [s for s in spans if s["name"] == "scheduler.job"]
                assert job_span["attrs"]["job_id"] == job_id

    def test_a_coalesced_jobs_trace_is_its_primarys(self, server):
        with ServiceClient(port=server.port) as cli:
            hold_the_worker(cli)
            request = distinct_request(23)
            primary_id = cli.submit(request)
            follower_id = cli.submit(request)
            assert server.scheduler.job(follower_id).coalesced
            cli.result(follower_id, timeout=120)
            spans = cli.trace(follower_id)
            assert spans, "a coalesced job's trace is its primary's run"
            assert spans == cli.trace(primary_id)


# ----------------------------------------------------------------------
# Client robustness: bounded connect retry, configurable timeouts
# ----------------------------------------------------------------------
class TestClientRobustness:
    def test_dead_daemon_fails_fast_with_attempt_count(self):
        # Bind-then-close guarantees a refused port.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        started = time.monotonic()
        with pytest.raises(ServiceError, match=r"after 2 attempt\(s\)"):
            ServiceClient(
                port=port,
                connect_timeout=0.5,
                connect_retries=1,
                connect_backoff=0.01,
            )
        assert time.monotonic() - started < 5.0, "a dead daemon must fail fast"

    def test_retry_disabled_reports_one_attempt(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(ServiceError, match=r"after 1 attempt\(s\)"):
            ServiceClient(port=port, connect_timeout=0.2, connect_retries=0)

    def test_connect_timeout_defaults_to_min_of_timeout(self, server):
        with ServiceClient(port=server.port, timeout=5.0) as cli:
            assert cli.timeout == 5.0
            assert cli.ping() > 0
        with ServiceClient(port=server.port, connect_timeout=2.0) as cli:
            assert cli.ping() > 0

"""The async job scheduler: priorities, coalescing, status, failure
isolation, one job per dispatch, and the bounded job registry."""

from __future__ import annotations

import threading

import pytest

from repro.bench.programs import branchy_kernel_source
from repro.engine.engine import AnalysisEngine
from repro.engine.request import AnalysisRequest
from repro.obs import SpanBuffer, tracer
from repro.service import scheduler as scheduler_module
from repro.service.cli import build_parser
from repro.service.scheduler import (
    JobPriority,
    JobScheduler,
    JobState,
    SchedulerShutdown,
)
from repro.service.server import ReproServer
from repro.service.store import ResultStore
from repro.service.wire import result_fingerprint

SOURCE = "char a[64]; int p; int main() { if (p > 0) { a[0]; } a[0]; return 0; }"
OTHER_SOURCE = "char b[128]; int main() { b[0]; b[64]; return 0; }"
BROKEN_SOURCE = "int main( { this does not parse"


def distinct_request(i: int) -> AnalysisRequest:
    return AnalysisRequest.speculative(
        f"char a{i}[{64 * (i + 1)}]; int main() {{ a{i}[0]; return 0; }}"
    )


@pytest.fixture
def scheduler():
    with JobScheduler(AnalysisEngine(), max_workers=2) as sched:
        yield sched


class TestBasicExecution:
    def test_submit_and_result(self, scheduler):
        job = scheduler.submit(AnalysisRequest.speculative(SOURCE))
        result = job.result(timeout=60)
        assert job.state is JobState.DONE
        assert result.miss_count == 3

    def test_many_jobs_complete(self, scheduler):
        jobs = [scheduler.submit(distinct_request(i)) for i in range(10)]
        for job in jobs:
            job.result(timeout=60)
        stats = scheduler.stats
        assert stats.completed == 10 and stats.failed == 0
        assert stats.queued == 0 and stats.running == 0

    def test_job_lookup_and_status(self, scheduler):
        job = scheduler.submit(AnalysisRequest.baseline(SOURCE))
        assert scheduler.job(job.id) is job
        assert scheduler.job("job-999999") is None
        job.result(timeout=60)
        status = job.status()
        assert status["state"] == "done"
        assert status["error"] is None
        assert status["queued_seconds"] >= 0

    def test_drain_waits_for_everything(self, scheduler):
        jobs = [scheduler.submit(distinct_request(i)) for i in range(6)]
        assert scheduler.drain(timeout=60)
        assert all(job.state is JobState.DONE for job in jobs)

    def test_results_match_direct_engine_execution(self, scheduler):
        request = AnalysisRequest.speculative(OTHER_SOURCE)
        scheduled = scheduler.submit(request).result(timeout=60)
        direct = AnalysisEngine().run(request)
        assert result_fingerprint(scheduled) == result_fingerprint(direct)


class TestCoalescing:
    def test_identical_requests_share_one_future(self, scheduler):
        request = AnalysisRequest.speculative(SOURCE)
        first = scheduler.submit(request)
        second = scheduler.submit(request)
        if second.coalesced:  # first still in flight when second arrived
            assert second.future is first.future
            assert second.status()["coalesced_into"] == first.id
        assert result_fingerprint(first.result(60)) == result_fingerprint(
            second.result(60)
        )

    def test_coalescing_under_load(self):
        # Workers held back, so every duplicate reliably finds the
        # primary still queued.
        sched = JobScheduler(AnalysisEngine(), max_workers=1, autostart=False)
        request = AnalysisRequest.speculative(SOURCE)
        jobs = [sched.submit(request) for _ in range(5)]
        coalesced = [job for job in jobs if job.coalesced]
        assert len(coalesced) == 4, "duplicates of a queued job must coalesce"
        sched.start_workers()
        with sched:
            fingerprints = {result_fingerprint(job.result(60)) for job in jobs}
        assert len(fingerprints) == 1
        assert sched.stats.coalesced == 4
        assert sched.stats.completed == 1, "one execution serves all five"

    def test_completed_request_is_not_coalesced(self, scheduler):
        request = AnalysisRequest.baseline(SOURCE)
        first = scheduler.submit(request)
        first.result(timeout=60)
        second = scheduler.submit(request)
        assert not second.coalesced, "finished jobs must not absorb new submissions"
        # ... but the engine's result cache answers it instantly.
        assert second.result(timeout=60).from_cache


class TestPriorities:
    def test_dispatch_order_follows_priority(self):
        sched = JobScheduler(AnalysisEngine(), max_workers=1, autostart=False)
        low = sched.submit(distinct_request(1), priority="low")
        normal = sched.submit(distinct_request(2), priority=JobPriority.NORMAL)
        high = sched.submit(distinct_request(3), priority="high")
        claimed = [sched._claim() for _ in range(3)]
        assert [job.id for job in claimed] == [high.id, normal.id, low.id]

    def test_fifo_within_priority(self):
        sched = JobScheduler(AnalysisEngine(), max_workers=1, autostart=False)
        jobs = [sched.submit(distinct_request(i)) for i in range(4)]
        claimed = [sched._claim() for _ in jobs]
        assert [job.id for job in claimed] == [job.id for job in jobs]

    def test_coalesced_high_priority_bumps_queued_primary(self):
        sched = JobScheduler(AnalysisEngine(), max_workers=1, autostart=False)
        primary = sched.submit(AnalysisRequest.baseline(SOURCE), priority="low")
        fillers = [
            sched.submit(distinct_request(i), priority="normal") for i in range(3)
        ]
        urgent = sched.submit(AnalysisRequest.baseline(SOURCE), priority="high")
        assert urgent.coalesced
        assert sched._claim() is primary, (
            "a HIGH coalesced submission must pull its queued primary ahead "
            "of the NORMAL backlog"
        )
        # The primary's stale LOW heap entry is skipped, not re-dispatched;
        # after shutdown a claim on the drained heap returns None.
        sched.shutdown(wait=False)
        seen = [primary.id]
        while (job := sched._claim()) is not None:
            seen.append(job.id)
        assert seen == [primary.id] + [job.id for job in fillers]
        assert not sched._heap

    def test_priority_parsing(self):
        assert JobPriority.parse(None) is JobPriority.NORMAL
        assert JobPriority.parse("HIGH") is JobPriority.HIGH
        assert JobPriority.parse("low") is JobPriority.LOW
        assert JobPriority.parse(1) is JobPriority.NORMAL
        assert JobPriority.parse(JobPriority.LOW) is JobPriority.LOW
        with pytest.raises(KeyError):
            JobPriority.parse("urgent")


class TestFailuresAndCancellation:
    def test_broken_request_fails_job_not_scheduler(self, scheduler):
        bad = scheduler.submit(AnalysisRequest.speculative(BROKEN_SOURCE))
        good = scheduler.submit(AnalysisRequest.speculative(SOURCE))
        with pytest.raises(Exception):
            bad.result(timeout=60)
        assert bad.state is JobState.FAILED
        assert bad.status()["error"]
        assert good.result(timeout=60) is not None, "healthy jobs must survive"
        stats = scheduler.stats
        assert stats.failed == 1 and stats.completed >= 1

    def test_cancel_queued_job(self):
        sched = JobScheduler(AnalysisEngine(), max_workers=1, autostart=False)
        job = sched.submit(distinct_request(0))
        assert sched.cancel(job.id)
        assert job.state is JobState.CANCELLED
        assert sched.stats.cancelled == 1
        # A cancelled entry is skipped by the dispatcher.
        follow_up = sched.submit(distinct_request(1))
        assert sched._claim() is follow_up

    def test_cancel_refused_for_primary_with_followers(self):
        sched = JobScheduler(AnalysisEngine(), max_workers=1, autostart=False)
        request = AnalysisRequest.baseline(SOURCE)
        primary = sched.submit(request)
        follower = sched.submit(request)
        assert follower.coalesced
        assert not sched.cancel(primary.id), (
            "cancelling a shared future would destroy another client's job"
        )
        sched.start_workers()
        with sched:
            assert follower.result(timeout=60) is not None

    def test_cancel_finished_job_is_refused(self, scheduler):
        job = scheduler.submit(AnalysisRequest.baseline(SOURCE))
        job.result(timeout=60)
        assert not scheduler.cancel(job.id)

    def test_cancelled_request_can_be_resubmitted(self):
        sched = JobScheduler(AnalysisEngine(), max_workers=1, autostart=False)
        request = AnalysisRequest.baseline(SOURCE)
        first = sched.submit(request)
        sched.cancel(first.id)
        second = sched.submit(request)
        assert not second.coalesced, "cancelled jobs must not absorb submissions"

    def test_submit_after_shutdown_raises(self):
        sched = JobScheduler(AnalysisEngine(), max_workers=1)
        sched.shutdown(wait=True, timeout=10)
        with pytest.raises(SchedulerShutdown):
            sched.submit(AnalysisRequest.baseline(SOURCE))


class TestConcurrentClients:
    def test_parallel_submitters(self, scheduler):
        results: dict[int, object] = {}
        errors: list[Exception] = []

        def client(i: int) -> None:
            try:
                job = scheduler.submit(distinct_request(i % 4))
                results[i] = job.result(timeout=60)
            except Exception as error:  # pragma: no cover - failure detail
                errors.append(error)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(16)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors
        assert len(results) == 16
        by_request = {}
        for i, result in results.items():
            by_request.setdefault(i % 4, set()).add(result_fingerprint(result))
        assert all(len(prints) == 1 for prints in by_request.values())




def one_liner(i: int) -> AnalysisRequest:
    return AnalysisRequest.speculative(
        f"char c{i}[64]; int main() {{ c{i}[0]; return 0; }}"
    )


def run_queued(requests, max_workers: int = 1, engine: AnalysisEngine | None = None):
    """Queue every request before the workers start, run them all, and
    return the jobs (finished, in submission order)."""
    sched = JobScheduler(engine or AnalysisEngine(), max_workers=max_workers,
                         autostart=False)
    jobs = [sched.submit(request) for request in requests]
    sched.start_workers()
    with sched:
        for job in jobs:
            job.wait(timeout=120)
    return jobs


class TestOneJobPerDispatch:
    """Each worker claims one job and resolves it alone through
    ``engine.run``: a job never waits for, shares the failure of, or logs
    the progress of the jobs queued next to it."""

    def test_short_jobs_finish_before_a_long_one_queued_ahead(self):
        kernel = AnalysisRequest.speculative(branchy_kernel_source(32))
        long_job, *short = run_queued(
            [kernel] + [one_liner(i) for i in range(3)], max_workers=2
        )
        assert long_job.state is JobState.DONE
        for job in short:
            assert job.state is JobState.DONE
            assert job.finished_at < long_job.finished_at, (
                "a one-line program must not wait for the kernel queued ahead of it"
            )

    def test_a_broken_request_fails_alone_and_nothing_runs_twice(self):
        engine = AnalysisEngine()
        first, broken, last = run_queued(
            [one_liner(0), AnalysisRequest.speculative(BROKEN_SOURCE), one_liner(1)],
            engine=engine,
        )
        assert engine.stats.requests == 3, "every request is resolved exactly once"
        assert [job.state for job in (first, broken, last)] == [
            JobState.DONE, JobState.FAILED, JobState.DONE,
        ]
        assert broken.error and first.error is None and last.error is None

    def test_each_log_holds_only_its_own_progress(self):
        jobs = run_queued([distinct_request(0), distinct_request(1)])
        for job in jobs:
            phases = [
                event["phase"]
                for event in job.events.snapshot()
                if event["event"] == "progress"
            ]
            assert phases.count("fixpoint") == 1, phases
            assert phases.count("classify") == 1, phases
            running = next(e for e in job.events.snapshot() if e["event"] == "running")
            assert set(running) == {"event", "job_id", "seq", "t", "ts"}

    def test_each_job_runs_under_its_own_span(self):
        buffer = SpanBuffer()
        tracer().add_sink(buffer)
        try:
            good, broken = run_queued(
                [one_liner(2), AnalysisRequest.speculative(BROKEN_SOURCE)]
            )
        finally:
            tracer().remove_sink(buffer)
        spans = {
            span["attrs"]["job_id"]: span
            for span in buffer.spans()
            if span["name"] == "scheduler.job"
        }
        assert set(spans) == {good.id, broken.id}
        assert "failed" not in spans[good.id]["attrs"]
        assert spans[broken.id]["attrs"]["failed"] is True
        assert spans[good.id]["trace_id"] != spans[broken.id]["trace_id"]

    def test_done_event_counts_the_followers(self):
        request = AnalysisRequest.speculative(SOURCE)
        primary, *followers = run_queued([request] * 3)
        assert [job.coalesced for job in followers] == [True, True]
        done = primary.events.snapshot()[-1]
        assert done["event"] == "done" and done["followers"] == 2

    @pytest.mark.parametrize("build", [JobScheduler, ReproServer])
    def test_there_is_no_batch_size(self, build):
        with pytest.raises(TypeError, match="batch_size"):
            build(AnalysisEngine(), batch_size=4)

    def test_serve_has_no_batch_size_flag(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--batch-size", "4"])
        assert excinfo.value.code == 2


class TestQueueAccounting:
    def test_a_bumped_job_is_counted_once(self):
        sched = JobScheduler(AnalysisEngine(), max_workers=1, autostart=False)
        request = AnalysisRequest.baseline(SOURCE)
        sched.submit(request, priority="low")
        assert sched.submit(request, priority="high").coalesced
        stats = sched.stats
        assert stats.queue_depth == {"high": 1, "normal": 0, "low": 0}
        assert stats.queued == 1, "the stale LOW heap entry is not a queued job"

    def test_queued_tracks_the_depth_through_claims_and_cancels(self):
        sched = JobScheduler(AnalysisEngine(), max_workers=1, autostart=False)
        jobs = [sched.submit(distinct_request(i), priority="low") for i in range(3)]
        sched.submit(AnalysisRequest.speculative(jobs[0].request.source), priority="high")
        assert sched.stats.queued == 3
        assert sched._claim() is jobs[0]
        assert sched.cancel(jobs[2].id)
        stats = sched.stats
        assert stats.queued == sum(stats.queue_depth.values()) == 1


class _GatedEngine(AnalysisEngine):
    """Holds a request labelled in ``gates`` until its gate opens, after
    signalling that it started."""

    def __init__(self, *labels: str):
        super().__init__()
        self.started = {label: threading.Event() for label in labels}
        self.gates = {label: threading.Event() for label in labels}

    def run(self, request, program=None):
        if request.label in self.gates:
            self.started[request.label].set()
            assert self.gates[request.label].wait(timeout=60)
        return super().run(request, program)


class TestJobRegistry:
    def test_only_the_newest_finished_jobs_are_kept(self, monkeypatch):
        monkeypatch.setattr(scheduler_module, "FINISHED_JOBS_KEPT", 2)
        engine = _GatedEngine("g1", "g2")
        sched = JobScheduler(engine, max_workers=2, autostart=False)

        def gated(label: str):
            return AnalysisRequest.speculative(
                f"char {label}[64]; int main() {{ {label}[0]; return 0; }}", label=label
            )

        g1 = sched.submit(gated("g1"))
        finished = [sched.submit(distinct_request(i)) for i in range(4)]
        g2 = sched.submit(gated("g2"))
        queued = sched.submit(one_liner(0))
        follower = sched.submit(one_liner(0))
        assert follower.coalesced
        sched.start_workers()
        try:
            # One worker holds g1; the other runs the four short jobs,
            # then holds g2, so `queued` stays queued behind both.
            assert engine.started["g1"].wait(60) and engine.started["g2"].wait(60)
            assert all(job.state is JobState.DONE for job in finished)
            assert [sched.job(job.id) for job in finished] == [
                None, None, finished[2], finished[3]
            ], "the oldest finished ids are forgotten"
            assert sched.job(g1.id) is g1 and g1.state is JobState.RUNNING
            assert sched.job(g2.id) is g2 and g2.state is JobState.RUNNING
            assert sched.job(queued.id) is queued and queued.state is JobState.QUEUED
            assert sched.job(follower.id) is follower
            engine.gates["g2"].set()
            follower.result(timeout=60)
            # g2, then `queued` and its follower finished: the two newest
            # finished jobs are the primary and its follower.
            assert sched.job(g2.id) is None and sched.job(finished[3].id) is None
            assert sched.job(queued.id) is queued and sched.job(follower.id) is follower
            assert sched.job(g1.id) is g1, "a running job is always kept"
            assert [status["job_id"] for status in sched.recent_jobs()] == [
                g1.id, queued.id, follower.id
            ]
        finally:
            for gate in engine.gates.values():
                gate.set()
            sched.shutdown(wait=True, timeout=30)
        assert g1.state is JobState.DONE
        assert sched.job(g1.id) is g1 and sched.job(queued.id) is None


class TestTierOneReplays:
    """``submit`` answers a request whose result sits in the engine's
    result LRU on the calling thread; every other request is queued."""

    LIFECYCLE = ["queued", "dispatched", "running", "done"]

    def test_a_hit_returns_finished_and_a_miss_stays_queued(self):
        engine = AnalysisEngine()
        request = AnalysisRequest.speculative(SOURCE)
        engine.run(request)
        sched = JobScheduler(engine, max_workers=1, autostart=False)
        hit = sched.submit(request)
        assert hit.state is JobState.DONE
        assert [event["event"] for event in hit.events.snapshot()] == self.LIFECYCLE
        assert hit.result(timeout=0).from_cache
        assert not sched.cancel(hit.id), "a finished job cannot be cancelled"
        miss = sched.submit(AnalysisRequest.speculative(OTHER_SOURCE))
        assert miss.state is JobState.QUEUED
        stats = sched.stats
        assert (stats.completed, stats.queued, stats.running) == (1, 1, 0)

    def test_a_hit_runs_under_its_own_job_span(self):
        engine = AnalysisEngine()
        request = AnalysisRequest.speculative(SOURCE)
        engine.run(request)
        buffer = SpanBuffer()
        tracer().add_sink(buffer)
        try:
            job = JobScheduler(engine, max_workers=1, autostart=False).submit(request)
        finally:
            tracer().remove_sink(buffer)
        spans = buffer.trace_for_job(job.id)
        (job_span,) = [span for span in spans if span["name"] == "scheduler.job"]
        (run_span,) = [span for span in spans if span["name"] == "engine.run"]
        assert job_span["attrs"]["job_id"] == job.id
        assert run_span["parent_id"] == job_span["span_id"]
        assert run_span["attrs"]["cache_hit"] is True

    def test_every_hit_and_miss_is_counted_once(self, tmp_path):
        """First runs, tier-1 repeats, a store-only hit after the memory
        tiers are dropped, and a duplicate of a running job, through a
        scheduler configured as the daemon configures it."""
        engine = _GatedEngine("held")
        engine.attach_result_store(ResultStore(str(tmp_path / "store")))
        first, second = distinct_request(0), distinct_request(1)
        held = AnalysisRequest.speculative(OTHER_SOURCE, label="held")
        with JobScheduler(engine, max_workers=2) as sched:
            for job in [sched.submit(first), sched.submit(second)]:
                job.result(timeout=60)
            repeats = [sched.submit(request) for request in (first, second) * 2]
            assert [job.state for job in repeats] == [JobState.DONE] * 4
            engine.clear_caches()
            sched.submit(first).result(timeout=60)
            assert sched.submit(first).state is JobState.DONE
            primary = sched.submit(held)
            assert engine.started["held"].wait(60)
            follower = sched.submit(held)
            assert follower.coalesced
            engine.gates["held"].set()
            follower.result(timeout=60)
            stats = sched.stats
        engine_stats = engine.stats
        assert engine_stats.requests == 9
        assert (engine_stats.results.hits, engine_stats.results.misses) == (5, 4)
        store = engine_stats.store
        assert (store.hits, store.misses, store.writes) == (1, 3, 3)
        assert (stats.submitted, stats.completed, stats.coalesced) == (10, 9, 1)
        assert (stats.failed, stats.queued, stats.running) == (0, 0, 0)
        assert primary.state is JobState.DONE


"""The async job scheduler: priorities, coalescing, status, failure
isolation."""

from __future__ import annotations

import os
import threading

import pytest

from repro.engine.engine import AnalysisEngine
from repro.engine.request import AnalysisRequest
from repro.obs import SpanBuffer, tracer
from repro.service.scheduler import (
    JobPriority,
    JobScheduler,
    JobState,
    SchedulerShutdown,
)
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
    with JobScheduler(AnalysisEngine(), max_workers=2, batch_size=4) as sched:
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
        sched = JobScheduler(
            AnalysisEngine(), max_workers=1, batch_size=1, autostart=False
        )
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
        sched = JobScheduler(
            AnalysisEngine(), max_workers=1, batch_size=10, autostart=False
        )
        low = sched.submit(distinct_request(1), priority="low")
        normal = sched.submit(distinct_request(2), priority=JobPriority.NORMAL)
        high = sched.submit(distinct_request(3), priority="high")
        batch = sched._claim_batch()
        assert [job.id for job in batch] == [high.id, normal.id, low.id]

    def test_fifo_within_priority(self):
        sched = JobScheduler(AnalysisEngine(), max_workers=1, autostart=False)
        jobs = [sched.submit(distinct_request(i)) for i in range(4)]
        batch = sched._claim_batch()
        assert [job.id for job in batch] == [job.id for job in jobs]

    def test_coalesced_high_priority_bumps_queued_primary(self):
        sched = JobScheduler(
            AnalysisEngine(), max_workers=1, batch_size=1, autostart=False
        )
        primary = sched.submit(AnalysisRequest.baseline(SOURCE), priority="low")
        fillers = [
            sched.submit(distinct_request(i), priority="normal") for i in range(3)
        ]
        urgent = sched.submit(AnalysisRequest.baseline(SOURCE), priority="high")
        assert urgent.coalesced
        batch = sched._claim_batch()
        assert batch[0].id == primary.id, (
            "a HIGH coalesced submission must pull its queued primary ahead "
            "of the NORMAL backlog"
        )
        # The primary's stale LOW heap entry is skipped, not re-dispatched.
        seen = [job.id for job in batch]
        while sched._heap:
            seen.extend(job.id for job in sched._claim_batch())
        assert seen == [primary.id] + [job.id for job in fillers]

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
        batch = sched._claim_batch()
        assert [j.id for j in batch] == [follow_up.id]

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


def _exit_worker(requests, want_spans=False):
    """Stands in for ``batch._execute_unit``: the worker dies abruptly."""
    os._exit(3)


class TestPooledClaims:
    """With ``REPRO_MAX_WORKERS`` set, one claim of several jobs runs as
    one parallel ``run_batch`` over the shared process pool."""

    @pytest.fixture(autouse=True)
    def _pool(self, monkeypatch):
        from repro.engine.batch import discard_shared_pool

        monkeypatch.setenv("REPRO_MAX_WORKERS", "2")
        discard_shared_pool()
        yield
        discard_shared_pool()

    @staticmethod
    def run_one_claim(engine, requests):
        """Queue every request before the worker starts, so a single
        claim holds them all; returns the jobs and the claim's span."""
        buffer = SpanBuffer()
        tracer().add_sink(buffer)
        sched = JobScheduler(engine, max_workers=1, batch_size=8, autostart=False)
        try:
            jobs = [sched.submit(request) for request in requests]
            sched.start_workers()
            for job in jobs:
                job.result(timeout=120)
            assert sched.stats.dispatched_batches == 1
        finally:
            sched.shutdown(wait=True, timeout=30)
            tracer().remove_sink(buffer)
        (claim,) = [s for s in buffer.spans() if s["name"] == "scheduler.batch"]
        return jobs, claim

    def test_claimed_jobs_run_on_the_pool_and_match_direct_runs(self):
        engine = AnalysisEngine()
        requests = [distinct_request(i) for i in range(3)]
        jobs, claim = self.run_one_claim(engine, requests)
        assert engine.stats.parallel_batches == 1
        assert claim["attrs"]["jobs"] == 3
        for job, request in zip(jobs, requests):
            assert job.state is JobState.DONE
            assert result_fingerprint(job.result()) == result_fingerprint(
                AnalysisEngine().run(request)
            )

    def test_a_worker_death_is_absorbed_without_per_job_retries(self, monkeypatch):
        """``run_batch`` itself falls back in process when the pool
        breaks, so the scheduler never re-runs the claim job by job."""
        from repro.engine import batch

        monkeypatch.setattr(batch, "_execute_unit", _exit_worker)
        engine = AnalysisEngine()
        requests = [distinct_request(i) for i in range(3)]
        jobs, claim = self.run_one_claim(engine, requests)
        assert engine.stats.parallel_batches == 0
        assert "retried_individually" not in claim["attrs"]
        for job, request in zip(jobs, requests):
            assert job.state is JobState.DONE
            assert result_fingerprint(job.result()) == result_fingerprint(
                AnalysisEngine().run(request)
            )

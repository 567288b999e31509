"""Thread-safety hammer tests for the caching tiers and the scheduler.

The service layer hits the in-memory :class:`LRUCache` and the on-disk
:class:`ResultStore` from scheduler workers, connection threads and
batch executors simultaneously; these tests lock in that neither tier
corrupts state or miscounts under contention, and that the scheduler's
counters and bounded job registry stay exact under many submitters and
more workers than cores.
"""

from __future__ import annotations

import hashlib
import sys
import threading

from repro.bench.programs import wcet_benchmark_source
from repro.bench.tables import BENCH_CACHE, BENCH_SPECULATION
from repro.engine.cache import LRUCache
from repro.engine.engine import AnalysisEngine, execute_request
from repro.engine.request import AnalysisRequest
from repro.service import scheduler as scheduler_module
from repro.service.scheduler import JobScheduler, JobState
from repro.service.store import ResultStore
from repro.service.wire import result_fingerprint
from repro.speculation.merge import MergeStrategy

THREADS = 8
OPS_PER_THREAD = 400


def _run_threads(worker) -> list[Exception]:
    errors: list[Exception] = []

    def wrapped(i: int) -> None:
        try:
            worker(i)
        except Exception as error:  # pragma: no cover - failure detail
            errors.append(error)

    threads = [threading.Thread(target=wrapped, args=(i,)) for i in range(THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads), "hammer deadlocked"
    return errors


class TestLRUCacheUnderContention:
    def test_mixed_get_put_hammer(self):
        cache = LRUCache(maxsize=32)
        keyspace = 96  # 3x maxsize: constant eviction pressure

        def worker(seed: int) -> None:
            for i in range(OPS_PER_THREAD):
                key = (seed * 31 + i * 7) % keyspace
                if i % 3 == 0:
                    cache.put(key, (key, seed))
                else:
                    value = cache.get(key)
                    if value is not None:
                        assert value[0] == key, "value attached to wrong key"

        assert _run_threads(worker) == []
        assert len(cache) <= 32
        gets = THREADS * OPS_PER_THREAD - THREADS * len(
            range(0, OPS_PER_THREAD, 3)
        )
        assert cache.stats.lookups == gets, "every get must be counted exactly once"

    def test_eviction_accounting_balances(self):
        cache = LRUCache(maxsize=16)
        computes = [0] * THREADS

        def worker(seed: int) -> None:
            for i in range(OPS_PER_THREAD):
                key = (seed + i) % 64

                def compute(key=key, seed=seed):
                    computes[seed] += 1
                    return (key, "computed")

                value = cache.get_or_compute(key, compute)
                assert value[0] == key

        assert _run_threads(worker) == []
        stats = cache.stats
        # Every miss triggered exactly one compute (and vice versa), and
        # every resident or evicted entry came from one of those puts.
        assert stats.misses == sum(computes)
        assert len(cache) + stats.evictions <= stats.misses
        assert stats.hits + stats.misses == THREADS * OPS_PER_THREAD
        assert len(cache) <= 16

    def test_clear_during_traffic_is_safe(self):
        cache = LRUCache(maxsize=64)
        stop = threading.Event()

        def mutator(seed: int) -> None:
            if seed == 0:
                while not stop.is_set():
                    cache.clear()
            else:
                for i in range(OPS_PER_THREAD):
                    cache.put((seed, i % 50), i)
                    cache.get((seed, (i + 1) % 50))
                stop.set()

        assert _run_threads(mutator) == []
        assert len(cache) <= 64


class TestResultStoreUnderContention:
    def _key(self, n: int) -> str:
        return hashlib.sha256(f"key-{n}".encode()).hexdigest()

    def test_disjoint_writers_and_readers(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        keyspace = 48

        def worker(seed: int) -> None:
            for i in range(80):
                n = (seed * 13 + i) % keyspace
                key = self._key(n)
                store.put(key, {"n": n, "writer": seed})
                value = store.get(key)
                # Another thread may have republished the key, but any
                # observed value must be complete and self-consistent.
                assert value is not None and value["n"] == n

        assert _run_threads(worker) == []
        assert store.stats.corrupt_evicted == 0, "atomic writes must never tear"
        assert len(store) == keyspace
        for n in range(keyspace):
            assert store.get(self._key(n))["n"] == n

    def test_single_key_write_race_stays_atomic(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        key = self._key(0)
        payload = {"blob": "x" * 4096}

        def worker(seed: int) -> None:
            for _ in range(60):
                store.put(key, dict(payload, writer=seed))
                value = store.get(key)
                assert value is not None and value["blob"] == payload["blob"]

        assert _run_threads(worker) == []
        assert store.stats.corrupt_evicted == 0
        assert len(store) == 1

    def test_engine_with_store_under_concurrent_clients(self, tmp_path):
        """Many threads resolving overlapping requests through one
        engine + store never disagree on verdicts."""
        engine = AnalysisEngine(result_store=ResultStore(tmp_path / "store"))
        sources = [
            f"char a{i}[{64 * (i + 1)}]; int main() {{ a{i}[0]; a{i}[1]; return 0; }}"
            for i in range(4)
        ]
        fingerprints: dict[int, set] = {i: set() for i in range(4)}
        lock = threading.Lock()

        def worker(seed: int) -> None:
            for i in range(6):
                which = (seed + i) % 4
                result = engine.run(AnalysisRequest.speculative(sources[which]))
                with lock:
                    fingerprints[which].add(result_fingerprint(result))

        assert _run_threads(worker) == []
        assert all(len(prints) == 1 for prints in fingerprints.values())
        stats = engine.stats
        assert stats.store.corrupt_evicted == 0
        assert stats.results.hits + stats.store.hits > 0, "repeat traffic must hit a tier"


class TestSchedulerUnderContention:
    def test_counters_and_registry_stay_exact(self, monkeypatch):
        """Eight submitters, four workers on a short switch interval: every
        job finishes once, the counters balance, and the registry keeps
        exactly the newest ``FINISHED_JOBS_KEPT`` finished jobs."""
        monkeypatch.setattr(scheduler_module, "FINISHED_JOBS_KEPT", 16)
        submits = 40
        jobs: list = []
        jobs_lock = threading.Lock()
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with JobScheduler(AnalysisEngine(), max_workers=4) as sched:

                def worker(seed: int) -> None:
                    mine = []
                    for i in range(submits):
                        # Twelve distinct programs: later repeats coalesce
                        # onto in-flight jobs or hit the result cache.
                        n = (seed * submits + i) % 12
                        source = f"char a{n}[64]; int main() {{ a{n}[0]; return 0; }}"
                        mine.append(sched.submit(AnalysisRequest.baseline(source)))
                        if i % 8 == 0:
                            sched.recent_jobs(limit=4)
                    for job in mine:
                        assert job.wait(timeout=60)
                    with jobs_lock:
                        jobs.extend(mine)

                assert _run_threads(worker) == []
                assert sched.drain(timeout=60)
                stats = sched.stats
        finally:
            sys.setswitchinterval(previous)
        assert len(jobs) == THREADS * submits
        assert all(job.state is JobState.DONE for job in jobs)
        assert stats.submitted == len(jobs) and stats.failed == 0
        assert stats.completed == len(jobs) - stats.coalesced
        assert stats.queued == stats.running == 0
        kept = [job for job in jobs if sched.job(job.id) is job]
        assert len(kept) == 16

        def finished_at(job) -> float:
            return (job.primary or job).finished_at

        evicted = [job for job in jobs if sched.job(job.id) is None]
        assert min(map(finished_at, kept)) >= max(map(finished_at, evicted))



class TestSharedProgramUnderContention:
    def test_baseline_and_jit_of_one_program_at_once(self):
        """The baseline and JIT requests of one Table-5 source share one
        compiled program, and with both queued before two workers start,
        both workers may build or read that program's access table at
        once.  Every repetition's fingerprints equal a cache-free
        ``execute_request``'s."""
        common = dict(
            source=wcet_benchmark_source("gtk", BENCH_CACHE.num_lines, BENCH_CACHE.line_size),
            line_size=BENCH_CACHE.line_size,
            cache_config=BENCH_CACHE,
        )
        requests = [
            AnalysisRequest.baseline(**common),
            AnalysisRequest.speculative(
                speculation=BENCH_SPECULATION.with_strategy(MergeStrategy.JUST_IN_TIME),
                **common,
            ),
        ]
        expected = [result_fingerprint(execute_request(request)) for request in requests]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(6):
                engine = AnalysisEngine()
                program = engine.compile(requests[0])
                assert engine.compile(requests[1]) is program
                with JobScheduler(engine, max_workers=2, autostart=False) as sched:
                    jobs = [sched.submit(request) for request in requests]
                    sched.start_workers()
                    got = [result_fingerprint(job.result(timeout=120)) for job in jobs]
                assert got == expected
        finally:
            sys.setswitchinterval(previous)

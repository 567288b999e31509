"""Tests for the unified analysis engine: the worklist kernel, the
request/cache layers, batch execution, and the apps' engine routing."""

import os
import time
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor

import pytest

from repro import compile_source
from repro.analysis import analyze_baseline, analyze_speculative
from repro.apps.sidechannel import compare_leaks
from repro.apps.wcet import compare_wcet
from repro.cache.config import CacheConfig
from repro.engine import (
    AnalysisEngine,
    AnalysisKind,
    AnalysisRequest,
    LRUCache,
    PriorityWorklist,
    WideningPolicy,
    execute_request,
    run_fixpoint,
)
from repro.analysis.result import AccessClassification
from repro.errors import AnalysisError
from repro.speculation.config import SpeculationConfig
from repro.service.store import STORE_FORMAT_VERSION
from repro.speculation.merge import MergeStrategy

CACHE = CacheConfig(num_lines=8, line_size=64)

LOOP_SOURCE = (
    "char a[256]; int n; int main() { reg int i; i = 0;"
    "  while (i < n) { a[0]; i = i + 1; } a[0]; return 0; }"
)
BRANCH_SOURCE = (
    "char a[64]; char b[64]; int p;"
    "int main() { if (p > 0) { a[0]; } else { b[0]; } a[0]; b[0]; return 0; }"
)
STRAIGHT_SOURCE = "char a[64]; char b[64]; int main() { a[0]; b[0]; a[0]; return 0; }"


# ----------------------------------------------------------------------
# Worklist kernel
# ----------------------------------------------------------------------
class TestPriorityWorklist:
    ORDER = {"entry": 0, "loop": 1, "body": 2, "exit": 3}

    def test_pops_in_priority_order(self):
        worklist = PriorityWorklist(self.ORDER, initial=["exit", "body", "entry"])
        assert [worklist.pop() for _ in range(3)] == ["entry", "body", "exit"]

    def test_duplicates_are_not_enqueued(self):
        worklist = PriorityWorklist(self.ORDER)
        assert worklist.push("loop")
        assert not worklist.push("loop")
        assert len(worklist) == 1
        assert worklist.pop() == "loop"
        # After popping, the block may be enqueued again.
        assert worklist.push("loop")

    def test_unknown_blocks_sort_last_by_name(self):
        worklist = PriorityWorklist(self.ORDER, initial=["zz", "aa", "exit"])
        assert [worklist.pop() for _ in range(3)] == ["exit", "aa", "zz"]

    def test_pop_empty_raises(self):
        worklist = PriorityWorklist(self.ORDER)
        assert not worklist
        with pytest.raises(IndexError):
            worklist.pop()

    def test_contains(self):
        worklist = PriorityWorklist(self.ORDER, initial=["body"])
        assert "body" in worklist
        assert "exit" not in worklist

    def test_items_are_their_own_priority_without_an_order(self):
        worklist = PriorityWorklist(None, initial=[(2, 0, 2), (1, 2, 5), (1, 1, 7)])
        assert not worklist.push((1, 2, 5))
        assert [worklist.pop() for _ in range(3)] == [(1, 1, 7), (1, 2, 5), (2, 0, 2)]


class _EqualButDistinctDomain:
    """A lattice element whose ``widen`` returns an equal-but-distinct
    object — the case an identity-based widening counter miscounts."""

    def __init__(self, value):
        self.value = value

    def join(self, other):
        return _EqualButDistinctDomain(max(self.value, other.value))

    def leq(self, other):
        return self.value <= other.value

    def widen(self, previous):
        return _EqualButDistinctDomain(self.value)  # a fresh, equal element


class _UpperBound:
    """A lattice element whose ``widen`` jumps to infinity on growth."""

    def __init__(self, hi):
        self.hi = hi

    def join(self, other):
        return _UpperBound(max(self.hi, other.hi))

    def leq(self, other):
        return self.hi <= other.hi

    def widen(self, previous):
        return self if self.hi <= previous.hi else _UpperBound(float("inf"))


class TestWideningPolicy:
    def test_no_widening_outside_points(self):
        policy = WideningPolicy(points={"header"}, delay=0)
        joined = _UpperBound(5)
        assert policy.apply("other", 10, _UpperBound(3), joined) is joined
        assert policy.widenings == 0

    def test_no_widening_before_delay(self):
        policy = WideningPolicy(points={"header"}, delay=3)
        joined = _UpperBound(5)
        assert policy.apply("header", 2, _UpperBound(3), joined) is joined
        assert policy.widenings == 0

    def test_widening_applied_and_counted(self):
        policy = WideningPolicy(points={"header"}, delay=3)
        widened = policy.apply("header", 3, _UpperBound(3), _UpperBound(5))
        assert widened.hi == float("inf")
        assert policy.widenings == 1

    def test_equal_but_distinct_widen_result_is_not_counted(self):
        policy = WideningPolicy(points={"header"}, delay=0)
        previous = _EqualButDistinctDomain(3)
        joined = _EqualButDistinctDomain(5)
        result = policy.apply("header", 5, previous, joined)
        assert result is not joined and result.leq(joined) and joined.leq(result)
        assert policy.widenings == 0


class TestRunFixpoint:
    def test_visits_each_block_once_on_a_chain(self):
        order = {"a": 0, "b": 1, "c": 2}
        successors = {"a": ["b"], "b": ["c"], "c": []}
        seen = []

        def step(name):
            seen.append(name)
            return successors[name]

        worklist = PriorityWorklist(order, initial=["a"])
        visits = run_fixpoint(worklist, step, max_visits=100)
        assert seen == ["a", "b", "c"]
        assert visits == 3

    def test_max_visits_guard(self):
        worklist = PriorityWorklist({"a": 0}, initial=["a"])
        with pytest.raises(AnalysisError, match="did not converge"):
            run_fixpoint(worklist, lambda name: ["a"], max_visits=10)


# ----------------------------------------------------------------------
# Requests and the LRU cache
# ----------------------------------------------------------------------
class TestAnalysisRequest:
    def test_compile_key_ignores_analysis_kind(self):
        base = AnalysisRequest.baseline(STRAIGHT_SOURCE, cache_config=CACHE)
        spec = AnalysisRequest.speculative(STRAIGHT_SOURCE, cache_config=CACHE)
        assert base.compile_key() == spec.compile_key()
        assert base.result_key() != spec.result_key()

    def test_result_key_normalises_default_configs(self):
        explicit = AnalysisRequest.speculative(
            STRAIGHT_SOURCE,
            cache_config=CacheConfig.paper_default(),
            speculation=SpeculationConfig.paper_default(),
        )
        implicit = AnalysisRequest.speculative(STRAIGHT_SOURCE)
        assert explicit.result_key() == implicit.result_key()

    def test_label_does_not_affect_identity(self):
        one = AnalysisRequest.baseline(STRAIGHT_SOURCE, label="one")
        two = AnalysisRequest.baseline(STRAIGHT_SOURCE, label="two")
        assert one == two
        assert one.result_key() == two.result_key()

    def test_distinct_sources_have_distinct_keys(self):
        one = AnalysisRequest.baseline(STRAIGHT_SOURCE)
        two = AnalysisRequest.baseline(BRANCH_SOURCE)
        assert one.compile_key() != two.compile_key()
        assert one.result_key() != two.result_key()

    def test_keys_are_memoised_on_the_instance(self):
        request = AnalysisRequest.baseline(STRAIGHT_SOURCE)
        assert request.result_key() is request.result_key()
        assert request.compile_key() is request.compile_key()

    def test_for_program_round_trips_the_compile(self):
        program = compile_source(STRAIGHT_SOURCE)
        request = AnalysisRequest.for_program(program, kind=AnalysisKind.BASELINE)
        assert request.source == STRAIGHT_SOURCE
        assert request.entry == program.entry_function
        assert request.line_size == program.layout.line_size

    def test_for_program_records_front_end_options(self):
        """Non-default compiles must not be cached under default keys."""
        default = compile_source(LOOP_SOURCE)
        no_unroll = compile_source(LOOP_SOURCE, unroll=False)
        default_request = AnalysisRequest.for_program(default, kind=AnalysisKind.BASELINE)
        no_unroll_request = AnalysisRequest.for_program(no_unroll, kind=AnalysisKind.BASELINE)
        assert not no_unroll_request.unroll
        assert default_request.compile_key() != no_unroll_request.compile_key()
        assert default_request.result_key() != no_unroll_request.result_key()

    #: Leading hex digits of result keys an on-disk result store already
    #: holds.  A change here orphans every stored artifact, so it must
    #: come with a ``STORE_FORMAT_VERSION`` bump.
    PINNED_KEYS = {
        "baseline": (AnalysisRequest.baseline, {}, "053b9a864bc22e7a"),
        "speculative": (AnalysisRequest.speculative, {}, "2eb931c9826411b8"),
        "small_cache": (
            AnalysisRequest.speculative,
            {"cache_config": CacheConfig(num_lines=8, line_size=64)},
            "07e7751884ec45f6",
        ),
        "fifo_2way": (
            AnalysisRequest.speculative,
            {
                "cache_config": CacheConfig(
                    num_lines=8, line_size=64, associativity=2, policy="fifo"
                )
            },
            "847e9271e0fc1a2e",
        ),
        "merge_at_rollback": (
            AnalysisRequest.speculative,
            {
                "speculation": SpeculationConfig(
                    depth_miss=50,
                    depth_hit=10,
                    merge_strategy=MergeStrategy.MERGE_AT_ROLLBACK,
                )
            },
            "73f58a0903f36321",
        ),
        "no_unroll": (AnalysisRequest.speculative, {"unroll": False}, "e4bb88e9f01a5e96"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED_KEYS))
    def test_result_keys_are_stable(self, name):
        factory, options, prefix = self.PINNED_KEYS[name]
        source = "char a[64]; int p; int main() { if (p > 0) { a[0]; } a[0]; return 0; }"
        assert factory(source, **options).result_key()[:16] == prefix

    def test_stored_record_shape_is_pinned(self):
        """Stored results pickle each classification by position, so a
        change to the record's fields orphans every stored artifact: it
        must come with a ``STORE_FORMAT_VERSION`` bump and a new pin."""
        assert (STORE_FORMAT_VERSION, AccessClassification._fields) == (
            4,
            (
                "block",
                "instruction_index",
                "ref",
                "kind",
                "must_hit",
                "speculative",
                "scenario_color",
                "secret_indexed",
                "secret_dependent",
            ),
        )


class TestLRUCache:
    def test_hit_and_miss_accounting(self):
        cache = LRUCache(maxsize=2)
        assert cache.get("k") is None
        cache.put("k", 1)
        assert cache.get("k") == 1
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == 0.5

    def test_least_recently_used_is_evicted(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a
        cache.put("c", 3)  # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats.evictions == 1

    def test_zero_capacity_disables_caching(self):
        cache = LRUCache(maxsize=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0


# ----------------------------------------------------------------------
# The engine: compile/result caching
# ----------------------------------------------------------------------
class TestEngineCaching:
    def test_compile_cache_is_shared_across_kinds(self):
        engine = AnalysisEngine()
        engine.run(AnalysisRequest.baseline(BRANCH_SOURCE, cache_config=CACHE))
        engine.run(AnalysisRequest.speculative(BRANCH_SOURCE, cache_config=CACHE))
        stats = engine.stats
        assert stats.compile.misses == 1
        assert stats.compile.hits == 1
        assert stats.results.misses == 2

    def test_repeated_request_hits_result_cache(self):
        engine = AnalysisEngine()
        request = AnalysisRequest.speculative(BRANCH_SOURCE, cache_config=CACHE)
        first = engine.run(request)
        second = engine.run(request)
        assert engine.stats.results.hits == 1
        assert first is not second  # callers get independent copies
        assert first.classifications == second.classifications
        assert first.iterations == second.iterations

    def test_cache_hits_are_marked_from_cache(self):
        engine = AnalysisEngine()
        request = AnalysisRequest.baseline(STRAIGHT_SOURCE, cache_config=CACHE)
        first = engine.run(request)
        second = engine.run(request)
        assert not first.from_cache
        assert second.from_cache
        # analysis_time reports the original computation, not the lookup.
        assert second.analysis_time == first.analysis_time
        assert "(cached)" in second.summary()

    def test_mutating_a_returned_result_does_not_corrupt_the_cache(self):
        engine = AnalysisEngine()
        request = AnalysisRequest.baseline(BRANCH_SOURCE, cache_config=CACHE)
        first = engine.run(request)
        first.classifications.clear()
        second = engine.run(request)
        assert second.classifications

    def test_result_cache_eviction(self):
        engine = AnalysisEngine(result_cache_size=1)
        one = AnalysisRequest.baseline(BRANCH_SOURCE, cache_config=CACHE)
        two = AnalysisRequest.baseline(STRAIGHT_SOURCE, cache_config=CACHE)
        engine.run(one)
        engine.run(two)  # evicts one
        engine.run(one)  # recomputed
        stats = engine.stats
        assert stats.results.hits == 0
        assert stats.results.misses == 3
        assert stats.results.evictions >= 1

    def test_engine_matches_direct_analysis_calls(self):
        """Bit-identical classifications vs analyze_baseline/analyze_speculative."""
        engine = AnalysisEngine()
        program = compile_source(BRANCH_SOURCE)
        direct_base = analyze_baseline(program, cache_config=CACHE)
        direct_spec = analyze_speculative(program, cache_config=CACHE)
        via_base = engine.run(AnalysisRequest.baseline(BRANCH_SOURCE, cache_config=CACHE))
        via_spec = engine.run(AnalysisRequest.speculative(BRANCH_SOURCE, cache_config=CACHE))
        assert via_base.classifications == direct_base.classifications
        assert via_spec.classifications == direct_spec.classifications
        assert via_spec.iterations == direct_spec.iterations


# ----------------------------------------------------------------------
# Batch execution
# ----------------------------------------------------------------------
def _batch_requests() -> list[AnalysisRequest]:
    requests = []
    for source in (STRAIGHT_SOURCE, BRANCH_SOURCE, LOOP_SOURCE):
        requests.append(AnalysisRequest.baseline(source, cache_config=CACHE))
        requests.append(AnalysisRequest.speculative(source, cache_config=CACHE))
    return requests


class TestBatchExecution:
    def test_batch_equals_sequential_direct_calls(self):
        requests = _batch_requests()
        direct = [execute_request(request) for request in requests]
        batch = AnalysisEngine().run_batch(requests)
        assert len(batch) == len(direct)
        for mine, theirs in zip(batch, direct):
            assert mine.classifications == theirs.classifications
            assert mine.program_name == theirs.program_name
            assert mine.iterations == theirs.iterations

    def test_parallel_batch_equals_sequential(self):
        requests = _batch_requests()
        sequential = AnalysisEngine().run_batch(requests)
        parallel = AnalysisEngine().run_batch(requests, max_workers=2)
        for mine, theirs in zip(parallel, sequential):
            assert mine.classifications == theirs.classifications
            assert mine.iterations == theirs.iterations

    def test_parallel_batch_preserves_request_order(self):
        requests = _batch_requests()
        # Interleave duplicates to stress the ordering/dedup path.
        shuffled = requests + list(reversed(requests))
        results = AnalysisEngine().run_batch(shuffled, max_workers=3)
        for request, result in zip(shuffled, results):
            assert result.is_speculative == (request.kind is AnalysisKind.SPECULATIVE)
            assert result.program_name == "main"
        # Forward and reversed halves are the same requests, so the
        # classifications must mirror each other exactly.
        forward = [r.classifications for r in results[: len(requests)]]
        backward = [r.classifications for r in results[len(requests):]]
        assert forward == list(reversed(backward))

    def test_duplicate_requests_are_executed_once(self):
        engine = AnalysisEngine()
        request = AnalysisRequest.baseline(STRAIGHT_SOURCE, cache_config=CACHE)
        results = engine.run_batch([request] * 4)
        stats = engine.stats
        assert stats.results.misses == 1
        assert stats.results.hits == 3
        assert all(r.classifications == results[0].classifications for r in results)

    def test_batch_counters(self):
        engine = AnalysisEngine()
        engine.run_batch(_batch_requests())
        assert engine.stats.batches == 1

    def test_parallel_duplicates_survive_a_disabled_result_cache(self):
        """Duplicates are served from the fresh results, never from a
        second cache lookup that may miss."""
        engine = AnalysisEngine(result_cache_size=0)
        one = AnalysisRequest.baseline(STRAIGHT_SOURCE, cache_config=CACHE)
        two = AnalysisRequest.speculative(BRANCH_SOURCE, cache_config=CACHE)
        results = engine.run_batch([one, one, two, one], max_workers=2)
        assert all(result is not None for result in results)
        assert results[0].classifications == results[1].classifications
        assert results[3].classifications == results[0].classifications

    def test_parallel_results_are_copies_not_cache_instances(self):
        engine = AnalysisEngine()
        requests = _batch_requests()
        results = engine.run_batch(requests, max_workers=2)
        results[0].classifications.clear()
        again = engine.run_batch(requests, max_workers=2)
        assert again[0].classifications  # cache was not corrupted

    def test_analysis_errors_propagate_from_parallel_batches(self):
        from repro.errors import ReproError

        good = AnalysisRequest.baseline(STRAIGHT_SOURCE, cache_config=CACHE)
        bad = AnalysisRequest.baseline("int main() { this is not minic }")
        with pytest.raises(ReproError):
            AnalysisEngine().run_batch([good, bad], max_workers=2)

    def test_worker_failure_classification_excludes_analysis_errors(self):
        """RuntimeError subclasses an analysis may raise in a worker (e.g.
        RecursionError) must not be treated as pool failures at result
        collection — they propagate instead of triggering a re-run."""
        from repro.engine.batch import _POOL_COLLECT_FAILURES

        assert not issubclass(RecursionError, _POOL_COLLECT_FAILURES)
        assert not issubclass(RuntimeError, _POOL_COLLECT_FAILURES)

    def test_single_source_batch_parallelises_and_counts_one_compile(self):
        """Many configurations of one source still spread across workers,
        and the stats mirror the sequential accounting: one logical
        compile miss per distinct source."""
        engine = AnalysisEngine()
        results = engine.run_batch(
            [
                AnalysisRequest.baseline(STRAIGHT_SOURCE, cache_config=CACHE),
                AnalysisRequest.speculative(STRAIGHT_SOURCE, cache_config=CACHE),
            ],
            max_workers=4,
        )
        assert all(result is not None for result in results)
        stats = engine.stats
        assert stats.compile.misses == 1
        assert stats.compile.hits == 1

    def test_parallel_stats_match_sequential_stats(self):
        """The same batch reports identical cache accounting whether it
        runs sequentially or over the pool."""
        requests = _batch_requests()
        batch = requests + requests[:2]  # two in-batch duplicates
        sequential = AnalysisEngine()
        sequential.run_batch(batch, max_workers=1)
        parallel = AnalysisEngine()
        parallel.run_batch(batch, max_workers=3)
        for mine, theirs in (
            (parallel.stats.results, sequential.stats.results),
            (parallel.stats.compile, sequential.stats.compile),
        ):
            assert (mine.hits, mine.misses) == (theirs.hits, theirs.misses)

    def test_growing_the_shared_executor_keeps_queued_work(self):
        """A batch that needs more workers than the shared executor has
        replaces it, while a batch in another thread may still wait on
        work queued there: that work must complete, not be cancelled."""
        from repro.engine.batch import discard_shared_pool, shared_process_pool

        discard_shared_pool()
        small = shared_process_pool(1)
        # A 1-worker executor's call queue holds two tasks; the others
        # wait in its pending queue, which cancellation would empty.
        futures = [small.submit(time.sleep, 0.05) for _ in range(6)]
        try:
            assert shared_process_pool(2) is not small
            for future in futures:
                assert future.result(timeout=60) is None
        finally:
            discard_shared_pool()

    def test_batch_workers_never_export_to_inherited_sinks(self, tmp_path):
        """Forked batch workers inherit the master's span sinks, and
        another master thread may hold a sink's lock at fork time (the
        ``REPRO_TRACE`` file sink holds it while writing), so a worker
        that exports to one can hang forever.  Every span a worker makes
        must be collected and relayed; only the master's pid may export."""
        from repro.engine.batch import discard_shared_pool
        from repro.obs import tracer

        writers = tmp_path / "writers"

        class WriterPids:
            def export(self, span):
                with open(writers, "a") as handle:
                    handle.write(f"{os.getpid()}\n")

        sink = WriterPids()
        tracer().add_sink(sink)
        # Workers forked before the sink was added would not inherit it.
        discard_shared_pool()
        engine = AnalysisEngine()
        try:
            engine.run_batch(
                [
                    AnalysisRequest.speculative(source, cache_config=CACHE)
                    for source in (STRAIGHT_SOURCE, BRANCH_SOURCE)
                ],
                max_workers=2,
            )
        finally:
            tracer().remove_sink(sink)
        assert engine.stats.parallel_batches == 1, "the batch never used the pool"
        assert set(writers.read_text().split()) == {str(os.getpid())}

    def test_parallel_batch_relays_worker_spans_into_the_callers_trace(self):
        """Spans a worker collects are grafted under the span the batch
        runs in, in the caller's trace; their pids show they ran remotely."""
        from repro.engine.batch import discard_shared_pool
        from repro.obs import SpanBuffer, span, tracer

        buffer = SpanBuffer()
        tracer().add_sink(buffer)
        discard_shared_pool()
        engine = AnalysisEngine()
        try:
            with span("caller"):
                engine.run_batch(
                    [
                        AnalysisRequest.speculative(source, cache_config=CACHE)
                        for source in (STRAIGHT_SOURCE, BRANCH_SOURCE)
                    ],
                    max_workers=2,
                )
        finally:
            tracer().remove_sink(buffer)
        assert engine.stats.parallel_batches == 1, "the batch never used the pool"
        spans = buffer.spans()
        (caller,) = [s for s in spans if s["name"] == "caller"]
        assert {s["trace_id"] for s in spans} == {caller["trace_id"]}
        fixpoints = [s for s in spans if s["name"] == "fixpoint"]
        assert len(fixpoints) == 2
        assert all(s["pid"] != os.getpid() for s in fixpoints)
        by_id = {s["span_id"]: s for s in spans}
        for fixpoint in fixpoints:
            ancestor = fixpoint
            while ancestor["parent_id"] in by_id:
                ancestor = by_id[ancestor["parent_id"]]
            assert ancestor is caller


def _exit_worker(requests, want_spans=False):
    """Stands in for ``batch._execute_unit``: the worker dies abruptly."""
    os._exit(3)


class TestSharedExecutor:
    """The process-wide executor behind parallel batches: sizing and
    reuse, and every pool failure demoting a batch to in-process
    execution with unchanged results."""

    @pytest.fixture(autouse=True)
    def _fresh_pool(self):
        from repro.engine.batch import discard_shared_pool

        discard_shared_pool()
        yield
        discard_shared_pool()

    def test_the_environment_never_fans_a_batch_out(self, monkeypatch):
        """``REPRO_MAX_WORKERS`` is not read: without an explicit
        ``max_workers`` a batch runs in process, retaining the snapshots
        a pooled batch would not."""
        from repro.obs import metrics

        monkeypatch.setenv("REPRO_MAX_WORKERS", "2")
        started = metrics().counter("pool.executors_started").value
        engine = AnalysisEngine()
        requests = _batch_requests()
        results = engine.run_batch(requests)
        assert engine.stats.parallel_batches == 0
        assert metrics().counter("pool.executors_started").value == started
        assert engine.stats.incremental.retained == sum(
            request.kind is AnalysisKind.SPECULATIVE for request in requests
        )
        direct = [execute_request(request) for request in requests]
        assert [r.classifications for r in results] == [r.classifications for r in direct]

    def test_pool_is_reused_while_large_enough(self):
        from repro.engine.batch import shared_process_pool
        from repro.obs import metrics

        started = metrics().counter("pool.executors_started").value
        pool = shared_process_pool(2)
        assert shared_process_pool(1) is pool
        assert shared_process_pool(2) is pool
        assert metrics().counter("pool.executors_started").value == started + 1

    def test_pool_grows_for_a_larger_batch(self):
        from repro.engine.batch import shared_process_pool
        from repro.obs import metrics

        started = metrics().counter("pool.executors_started").value
        small = shared_process_pool(1)
        large = shared_process_pool(3)
        assert large is not small
        assert shared_process_pool(2) is large
        assert metrics().counter("pool.executors_started").value == started + 2
        assert metrics().gauge("pool.executor_size").value == 3

    def test_discard_twice_does_not_raise(self):
        from repro.engine.batch import discard_shared_pool, shared_process_pool

        assert shared_process_pool(1) is not None
        discard_shared_pool()
        discard_shared_pool()

    def test_discard_makes_the_next_call_build_a_fresh_pool(self):
        from repro.engine.batch import discard_shared_pool, shared_process_pool

        first = shared_process_pool(1)
        discard_shared_pool()
        second = shared_process_pool(1)
        assert second is not first
        assert second.submit(abs, -7).result(timeout=60) == 7

    def test_discard_cancels_queued_work(self):
        """Unlike growing, discarding (a broken pool, interpreter exit)
        cancels what has not started yet."""
        from repro.engine.batch import discard_shared_pool, shared_process_pool

        pool = shared_process_pool(1)
        futures = [pool.submit(time.sleep, 0.5) for _ in range(8)]
        discard_shared_pool()
        # The executor's manager thread cancels asynchronously.
        with pytest.raises(CancelledError):
            futures[-1].result(timeout=60)

    def test_setup_failure_runs_the_batch_in_process(self, monkeypatch):
        from repro.engine import batch

        def refuse(*args, **kwargs):
            raise OSError("no semaphores here")

        monkeypatch.setattr(batch, "ProcessPoolExecutor", refuse)
        assert batch.shared_process_pool(2) is None
        engine = AnalysisEngine()
        requests = _batch_requests()
        results = engine.run_batch(requests, max_workers=2)
        assert engine.stats.parallel_batches == 0
        sequential = AnalysisEngine().run_batch(requests)
        for mine, theirs in zip(results, sequential):
            assert mine.classifications == theirs.classifications
            assert mine.iterations == theirs.iterations

    def test_worker_death_falls_back_in_process_and_stays_correct(self, monkeypatch):
        from repro.engine import batch
        from repro.obs import metrics

        monkeypatch.setattr(batch, "_execute_unit", _exit_worker)
        engine = AnalysisEngine()
        requests = _batch_requests()
        results = engine.run_batch(requests, max_workers=2)
        assert engine.stats.parallel_batches == 0
        sequential = AnalysisEngine().run_batch(requests)
        for mine, theirs in zip(results, sequential):
            assert mine.classifications == theirs.classifications
            assert mine.iterations == theirs.iterations
        # The broken executor was retired: the next call builds a new one.
        started = metrics().counter("pool.executors_started").value
        assert batch.shared_process_pool(2) is not None
        assert metrics().counter("pool.executors_started").value == started + 1

    def test_batch_after_a_worker_death_uses_a_healthy_pool(self, monkeypatch):
        from repro.engine import batch

        requests = _batch_requests()
        with monkeypatch.context() as patch:
            patch.setattr(batch, "_execute_unit", _exit_worker)
            AnalysisEngine().run_batch(requests, max_workers=2)
        engine = AnalysisEngine()
        engine.run_batch(requests, max_workers=2)
        assert engine.stats.parallel_batches == 1

    def test_an_executor_retired_before_submit_runs_the_batch_in_process(
        self, monkeypatch
    ):
        """A batch in another thread may outgrow and retire the executor
        this batch just took before it has submitted its work; submit then
        refuses new work, and the batch must run in process."""
        from repro.engine import batch

        retired = ProcessPoolExecutor(max_workers=1)
        retired.shutdown()
        monkeypatch.setattr(batch, "shared_process_pool", lambda max_workers: retired)
        engine = AnalysisEngine()
        requests = _batch_requests()
        results = engine.run_batch(requests, max_workers=2)
        assert engine.stats.parallel_batches == 0
        sequential = AnalysisEngine().run_batch(requests)
        for mine, theirs in zip(results, sequential):
            assert mine.classifications == theirs.classifications
            assert mine.iterations == theirs.iterations

    def test_work_cancelled_under_a_batch_runs_it_in_process(self, monkeypatch):
        """A batch that finds its executor broken discards it, cancelling
        work another batch still waits on there; that batch must run in
        process, not raise CancelledError."""
        from repro.engine import batch

        class Cancelling:
            def submit(self, fn, *args):
                future = Future()
                future.cancel()
                return future

        monkeypatch.setattr(batch, "shared_process_pool", lambda max_workers: Cancelling())
        engine = AnalysisEngine()
        requests = _batch_requests()
        results = engine.run_batch(requests, max_workers=2)
        assert engine.stats.parallel_batches == 0
        sequential = AnalysisEngine().run_batch(requests)
        assert [r.classifications for r in results] == [
            r.classifications for r in sequential
        ]

    def test_discarding_a_retired_executor_keeps_the_current_one(self):
        """A batch whose executor broke after another batch replaced it
        must not drop (and cancel the work queued on) the replacement."""
        from repro.engine.batch import discard_shared_pool, shared_process_pool

        small = shared_process_pool(1)
        large = shared_process_pool(2)
        futures = [large.submit(time.sleep, 0.05) for _ in range(6)]
        discard_shared_pool(small)
        assert shared_process_pool(2) is large
        for future in futures:
            assert future.result(timeout=60) is None

    def test_single_request_batches_never_start_a_pool(self):
        from repro.obs import metrics

        started = metrics().counter("pool.executors_started").value
        engine = AnalysisEngine()
        engine.run_batch([AnalysisRequest.baseline(STRAIGHT_SOURCE)], max_workers=4)
        # Duplicates of one request are one distinct miss: one work unit.
        engine.run_batch([AnalysisRequest.speculative(BRANCH_SOURCE)] * 3, max_workers=4)
        assert engine.stats.parallel_batches == 0
        assert metrics().counter("pool.executors_started").value == started

    def test_fully_cached_batches_never_start_a_pool(self):
        from repro.obs import metrics

        engine = AnalysisEngine()
        requests = _batch_requests()
        for request in requests:
            engine.run(request)
        started = metrics().counter("pool.executors_started").value
        results = engine.run_batch(requests, max_workers=2)
        assert all(result.from_cache for result in results)
        assert engine.stats.parallel_batches == 0
        assert metrics().counter("pool.executors_started").value == started

    @pytest.mark.parametrize(
        "sizes, max_workers, expected",
        [
            ([1, 1, 1, 1], 2, [1, 1, 1, 1]),
            ([5], 2, [3, 2]),
            ([3, 1], 4, [1, 1, 1, 1]),
            ([6, 2], 3, [3, 3, 2]),
        ],
        ids=["many_sources", "one_source", "more_workers", "mixed"],
    )
    def test_work_units_split_groups_without_mixing_sources(
        self, sizes, max_workers, expected
    ):
        from repro.engine.batch import _work_units

        index = iter(range(sum(sizes)))
        groups = [[(next(index), f"source-{g}") for _ in range(size)]
                  for g, size in enumerate(sizes)]
        units = _work_units(groups, max_workers, sum(sizes))
        assert [len(unit) for unit in units] == expected
        assert all(len({source for _, source in unit}) == 1 for unit in units)
        # Units partition the groups in order: nothing lost or reordered.
        assert [item for unit in units for item in unit] == [
            item for group in groups for item in group
        ]


# ----------------------------------------------------------------------
# Applications route through the engine
# ----------------------------------------------------------------------
class TestAppsThroughEngine:
    def test_compare_wcet_uses_engine_caches(self):
        engine = AnalysisEngine()
        program = compile_source(BRANCH_SOURCE)
        first = compare_wcet(program, CACHE, engine=engine)
        second = compare_wcet(program, CACHE, engine=engine)
        assert engine.stats.results.hits >= 2  # second comparison fully cached
        assert first.non_speculative.misses == second.non_speculative.misses
        assert first.speculative.misses == second.speculative.misses
        # The seeded program means the engine never ran the front end.
        assert engine.stats.compile.misses == 0

    def test_compare_wcet_matches_direct_analyses(self):
        program = compile_source(BRANCH_SOURCE)
        comparison = compare_wcet(program, CACHE, engine=AnalysisEngine())
        direct_base = analyze_baseline(program, cache_config=CACHE)
        direct_spec = analyze_speculative(program, cache_config=CACHE)
        assert comparison.non_speculative.misses == direct_base.miss_count
        assert comparison.speculative.misses == direct_spec.miss_count

    def test_compare_leaks_through_engine(self):
        engine = AnalysisEngine()
        source = (
            "char sbox[512]; secret int k; int p;"
            "int main() { if (p > 0) { sbox[0]; } sbox[k]; return 0; }"
        )
        program = compile_source(source)
        comparison = compare_leaks(program, CACHE, engine=engine)
        assert engine.stats.results.misses == 2
        assert comparison.non_speculative.secret_sites == 1

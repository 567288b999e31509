"""Tests for the unified analysis engine: the worklist kernel, the
request/cache layers, batch execution, and the apps' engine routing."""

import os
import pathlib
import subprocess
import sys

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

    def test_duplicate_requests_are_executed_once(self):
        engine = AnalysisEngine()
        request = AnalysisRequest.baseline(STRAIGHT_SOURCE, cache_config=CACHE)
        results = engine.run_batch([request] * 4)
        stats = engine.stats
        assert stats.results.misses == 1
        assert stats.results.hits == 3
        assert all(r.classifications == results[0].classifications for r in results)

    def test_batch_counters(self):
        """Every request of a batch is counted once, and each distinct
        request is one result-cache miss."""
        engine = AnalysisEngine()
        requests = _batch_requests()
        engine.run_batch(requests + requests[:2])
        stats = engine.stats
        assert stats.requests == len(requests) + 2
        assert (stats.results.hits, stats.results.misses) == (2, len(requests))

    def test_batch_preserves_request_order(self):
        requests = _batch_requests()
        # Interleave duplicates so that cached answers come back mid-batch.
        shuffled = requests + list(reversed(requests))
        results = AnalysisEngine().run_batch(shuffled)
        for request, result in zip(shuffled, results):
            assert result.is_speculative == (request.kind is AnalysisKind.SPECULATIVE)
            assert result.program_name == "main"
        # Forward and reversed halves are the same requests, so the
        # classifications must mirror each other exactly.
        forward = [r.classifications for r in results[: len(requests)]]
        backward = [r.classifications for r in results[len(requests):]]
        assert forward == list(reversed(backward))

    def test_duplicates_survive_a_disabled_result_cache(self):
        """Without a result cache every duplicate is recomputed, and each
        copy still gets the same answer."""
        engine = AnalysisEngine(result_cache_size=0)
        one = AnalysisRequest.baseline(STRAIGHT_SOURCE, cache_config=CACHE)
        two = AnalysisRequest.speculative(BRANCH_SOURCE, cache_config=CACHE)
        results = engine.run_batch([one, one, two, one])
        assert all(result is not None for result in results)
        assert not any(result.from_cache for result in results)
        assert results[0].classifications == results[1].classifications
        assert results[3].classifications == results[0].classifications

    def test_batch_results_are_copies_not_cache_instances(self):
        engine = AnalysisEngine()
        requests = _batch_requests()
        results = engine.run_batch(requests)
        results[0].classifications.clear()
        again = engine.run_batch(requests)
        assert all(result.from_cache for result in again)
        assert again[0].classifications  # cache was not corrupted

    def test_analysis_errors_propagate_from_batches(self):
        from repro.errors import ReproError

        good = AnalysisRequest.baseline(STRAIGHT_SOURCE, cache_config=CACHE)
        bad = AnalysisRequest.baseline("int main() { this is not minic }")
        with pytest.raises(ReproError):
            AnalysisEngine().run_batch([good, bad])

    def test_single_source_batch_counts_one_compile(self):
        """Many configurations of one source share one compile: one
        compile miss per distinct source."""
        engine = AnalysisEngine()
        results = engine.run_batch(
            [
                AnalysisRequest.baseline(STRAIGHT_SOURCE, cache_config=CACHE),
                AnalysisRequest.speculative(STRAIGHT_SOURCE, cache_config=CACHE),
            ]
        )
        assert all(result is not None for result in results)
        stats = engine.stats
        assert stats.compile.misses == 1
        assert stats.compile.hits == 1

    def test_batch_stats_match_one_run_per_request(self):
        """A batch reports the cache accounting of calling ``run`` on each
        of its requests in turn."""
        requests = _batch_requests()
        batch = requests + requests[:2]  # two in-batch duplicates
        batched = AnalysisEngine()
        batched.run_batch(batch)
        looped = AnalysisEngine()
        for request in batch:
            looped.run(request)
        for mine, theirs in (
            (batched.stats.results, looped.stats.results),
            (batched.stats.compile, looped.stats.compile),
        ):
            assert (mine.hits, mine.misses) == (theirs.hits, theirs.misses)
        assert batched.stats.requests == looped.stats.requests

    def test_fully_cached_batches_answer_from_the_cache(self):
        engine = AnalysisEngine()
        requests = _batch_requests()
        first = [engine.run(request) for request in requests]
        misses = engine.stats.results.misses
        results = engine.run_batch(requests)
        assert all(result.from_cache for result in results)
        assert engine.stats.results.misses == misses
        assert [r.classifications for r in results] == [r.classifications for r in first]

    def test_batch_spans_nest_under_the_callers_span(self):
        """A batch runs in the caller's process and trace: each analysis's
        spans descend from the span the batch was called in."""
        from repro.obs import SpanBuffer, span, tracer

        buffer = SpanBuffer()
        tracer().add_sink(buffer)
        try:
            with span("caller"):
                AnalysisEngine().run_batch(
                    [
                        AnalysisRequest.speculative(source, cache_config=CACHE)
                        for source in (STRAIGHT_SOURCE, BRANCH_SOURCE)
                    ]
                )
        finally:
            tracer().remove_sink(buffer)
        spans = buffer.spans()
        (caller,) = [s for s in spans if s["name"] == "caller"]
        assert {s["trace_id"] for s in spans} == {caller["trace_id"]}
        assert {s["pid"] for s in spans} == {os.getpid()}
        fixpoints = [s for s in spans if s["name"] == "fixpoint"]
        assert len(fixpoints) == 2
        by_id = {s["span_id"]: s for s in spans}
        for fixpoint in fixpoints:
            ancestor = fixpoint
            while ancestor["parent_id"] in by_id:
                ancestor = by_id[ancestor["parent_id"]]
            assert ancestor is caller

    def test_batch_retains_a_snapshot_per_speculative_request(self):
        """A batch is a loop over ``run``: each speculative request leaves
        a snapshot a later ``warm_from`` request can start from."""
        engine = AnalysisEngine()
        requests = _batch_requests()
        engine.run_batch(requests)
        assert engine.stats.requests == len(requests)
        assert engine.stats.incremental.retained == sum(
            request.kind is AnalysisKind.SPECULATIVE for request in requests
        )

    def test_run_batch_takes_no_worker_count(self):
        with pytest.raises(TypeError, match="max_workers"):
            AnalysisEngine().run_batch(_batch_requests(), max_workers=2)

    def test_importing_the_package_starts_no_process_machinery(self):
        code = (
            "import sys, repro; "
            "assert 'multiprocessing' not in sys.modules, 'multiprocessing'; "
            "assert 'concurrent.futures.process' not in sys.modules, 'process pool'"
        )
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        completed = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert completed.returncode == 0, completed.stderr


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

"""Micro-benchmark: AnalysisEngine batch execution vs an ad-hoc loop.

The traffic shape the engine is built for: a batch of analysis requests
where sources repeat across requests (the same program analysed as
baseline and speculative, and the same request arriving more than once).
The ad-hoc loop — what every driver did before the engine existed —
recompiles and re-analyses every request from scratch; the engine
compiles each distinct source once and answers repeated requests from
the result cache.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine_batch.py -s
"""

from __future__ import annotations

import time

from repro.bench.programs import WCET_BENCHMARKS, wcet_benchmark_source
from repro.cache.config import CacheConfig
from repro.engine import AnalysisEngine, AnalysisRequest, execute_request

CACHE = CacheConfig(num_lines=64, line_size=64)

#: Distinct programs in the batch.
PROGRAMS = 4

#: How many times the whole request set repeats (simulated repeat traffic).
REPEATS = 2


def build_batch() -> list[AnalysisRequest]:
    """A 16-request batch: 4 programs x {baseline, speculative} x 2 repeats."""
    requests: list[AnalysisRequest] = []
    for name in list(WCET_BENCHMARKS)[:PROGRAMS]:
        source = wcet_benchmark_source(name, CACHE.num_lines, CACHE.line_size)
        common = dict(source=source, line_size=CACHE.line_size, cache_config=CACHE, label=name)
        requests.append(AnalysisRequest.baseline(**common))
        requests.append(AnalysisRequest.speculative(**common))
    return requests * REPEATS


def run_adhoc(requests: list[AnalysisRequest]) -> list:
    """The pre-engine execution model: every request compiles and runs."""
    return [execute_request(request) for request in requests]


def test_batch_beats_adhoc_loop(benchmark, once):
    requests = build_batch()
    assert len(requests) >= 16

    started = time.perf_counter()
    adhoc_results = run_adhoc(requests)
    adhoc_time = time.perf_counter() - started

    engine = AnalysisEngine()
    started = time.perf_counter()
    batch_results = once(benchmark, engine.run_batch, requests)
    batch_time = time.perf_counter() - started

    # Identical classifications, in request order.
    assert len(batch_results) == len(adhoc_results)
    for mine, theirs in zip(batch_results, adhoc_results):
        assert mine.classifications == theirs.classifications
        assert mine.program_name == theirs.program_name

    speedup = adhoc_time / batch_time if batch_time else float("inf")
    print()
    print(
        f"{len(requests)}-request batch: ad-hoc loop {adhoc_time:.3f}s, "
        f"engine batch {batch_time:.3f}s, {speedup:.1f}x speedup"
    )
    print(engine.stats)

    stats = engine.stats
    # Each distinct source compiled exactly once...
    assert stats.compile.misses == PROGRAMS
    # ...and repeated requests were answered from the result cache.
    assert stats.results.hits >= len(requests) // 2
    # Caching must convert the repeat traffic into a real wall-clock win.
    assert batch_time < adhoc_time

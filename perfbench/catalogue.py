"""The named requests every workload draws from.

Each request has a stable id (``t5/adpcm/jit``, ``t7/hash/speculative``,
``branchy/32``, ``mitigate/des``) that keys its expected verdict in
``expected.json``.  The service stream reuses the ``tables`` ids, so one
expectation covers an analysis whether it ran in-process or on the
daemon.
"""

from __future__ import annotations

from repro.bench.crypto import CRYPTO_BENCHMARKS
from repro.bench.programs import WCET_BENCHMARKS, branchy_kernel_source, wcet_benchmark_source
from repro.bench.tables import BENCH_CACHE, BENCH_SPECULATION, table7_client_request
from repro.cache.config import CacheConfig
from repro.engine.request import AnalysisRequest
from repro.speculation.merge import MergeStrategy

#: Table-6 strategies each Table-5 kernel is analysed under, besides the
#: non-speculative baseline.
TABLE6_STRATEGIES = {
    "jit": MergeStrategy.JUST_IN_TIME,
    "rollback": MergeStrategy.MERGE_AT_ROLLBACK,
}

#: Table 7 of the paper: the kernels that leak only under speculation.
PAPER_SPECULATION_ONLY_LEAKS = frozenset({"hash", "encoder", "chacha20", "ocb", "des"})

#: Branch counts of the ``branchy`` kernels.
BRANCHY_SIZES = (16, 24, 32)


def tables_requests() -> list[tuple[str, AnalysisRequest]]:
    """The 50 analyses of one cold Table 5/6/7 pass, in catalogue order."""
    requests: list[tuple[str, AnalysisRequest]] = []
    for name in WCET_BENCHMARKS:
        source = wcet_benchmark_source(name, BENCH_CACHE.num_lines, BENCH_CACHE.line_size)
        common = dict(
            source=source, line_size=BENCH_CACHE.line_size, cache_config=BENCH_CACHE, label=name
        )
        requests.append((f"t5/{name}/baseline", AnalysisRequest.baseline(**common)))
        for tag, strategy in TABLE6_STRATEGIES.items():
            speculation = BENCH_SPECULATION.with_strategy(strategy)
            requests.append(
                (f"t5/{name}/{tag}", AnalysisRequest.speculative(speculation=speculation, **common))
            )
    for name in CRYPTO_BENCHMARKS:
        speculative = table7_client_request(name)
        baseline = AnalysisRequest.baseline(
            source=speculative.source,
            line_size=speculative.line_size,
            cache_config=speculative.cache_config,
            label=name,
        )
        requests.append((f"t7/{name}/baseline", baseline))
        requests.append((f"t7/{name}/speculative", speculative))
    return requests


def branchy_requests() -> list[tuple[str, AnalysisRequest]]:
    """The ``branchy`` kernels at the paper-default cache and speculation."""
    return [
        (
            f"branchy/{size}",
            AnalysisRequest.speculative(
                source=branchy_kernel_source(size),
                cache_config=CacheConfig.paper_default(),
                speculation=BENCH_SPECULATION,
                label=f"branchy{size}",
            ),
        )
        for size in BRANCHY_SIZES
    ]


def service_ops() -> list[tuple[str, str, AnalysisRequest]]:
    """The 30 distinct ops of the service stream as ``(op, id, request)``:
    ``analyze`` on every Table-5 kernel (baseline and JIT) and on the
    leaky Table-7 harnesses, and ``mitigate`` on those harnesses."""
    by_id = dict(tables_requests())
    ops = [
        ("analyze", request_id, by_id[request_id])
        for request_id in by_id
        if request_id.startswith("t5/") and request_id.endswith(("/baseline", "/jit"))
    ]
    for name in sorted(PAPER_SPECULATION_ONLY_LEAKS):
        ops.append(("analyze", f"t7/{name}/speculative", by_id[f"t7/{name}/speculative"]))
    for name in sorted(PAPER_SPECULATION_ONLY_LEAKS):
        ops.append(("mitigate", f"mitigate/{name}", by_id[f"t7/{name}/speculative"]))
    return ops

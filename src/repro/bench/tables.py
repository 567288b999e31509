"""Drivers that regenerate the paper's tables and figure-level experiments.

Every public function here corresponds to one experiment of DESIGN.md's
index and is wrapped by a benchmark under ``benchmarks/``:

* :func:`run_motivating_example` — Figure 2/3 (E1);
* :func:`generate_table5` — Table 5, execution-time estimation (E5);
* :func:`generate_table6` — Table 6, merge-strategy comparison (E6);
* :func:`generate_table7` — Table 7, side-channel detection (E7);
* :func:`run_depth_ablation` — Section 6.2 ablation (E8).

The evaluation cache is scaled from the paper's 512 x 64 B to 64 x 64 B
so the pure-Python analysis completes in seconds (the motivating example,
whose exact miss counts depend on the 512-line geometry, keeps the full
size).  EXPERIMENTS.md records the consequences of this scaling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.analysis import analyze_baseline, analyze_speculative
from repro.apps.sidechannel import LeakComparison, LeakReport
from repro.apps.wcet import WcetComparison, WcetEstimate
from repro.bench.client import build_client_source
from repro.bench.crypto import CRYPTO_BENCHMARKS, crypto_kernel
from repro.bench.programs import WCET_BENCHMARKS, motivating_example_source, wcet_benchmark_source
from repro.cache.config import CacheConfig
from repro.engine.engine import AnalysisEngine, default_engine
from repro.engine.request import AnalysisRequest
from repro.frontend import compile_source
from repro.speculation.config import SpeculationConfig
from repro.speculation.merge import MergeStrategy
from repro.speculation.predictor import OpposingPredictor, PerfectPredictor
from repro.speculation.simulator import SpeculativeSimulator

#: Cache used for the Table 5/6/7 reproductions (scaled; see module docstring).
BENCH_CACHE = CacheConfig(num_lines=64, line_size=64)

#: Speculation parameters used for the reproductions (the paper's defaults).
BENCH_SPECULATION = SpeculationConfig.paper_default()

#: Attacker-controlled buffer sizes (bytes) used for Table 7, one per crypto
#: benchmark.  They were derived with
#: :func:`repro.bench.workloads.find_distinguishing_buffer`, i.e. by the same
#: sweep the paper describes ("we set the buffer size to various values ...
#: until the two methods return different results"); kernels for which no
#: size distinguishes the analyses use the full cache size, mirroring the
#: paper's 32768-byte rows.
TABLE7_BUFFER_BYTES: dict[str, int] = {
    "hash": 2752,
    "encoder": 2880,
    "chacha20": 2688,
    "ocb": 2816,
    "aes": 4096,
    "str2key": 4096,
    "des": 0,
    "seed": 4096,
    "camellia": 4096,
    "salsa": 4096,
}


def table7_client_request(
    name: str, cache_config: CacheConfig | None = None
) -> AnalysisRequest:
    """The speculative request for one crypto kernel's Figure-10 client
    harness at the Table-7 configuration.

    One definition shared by the ``repro mitigate`` CLI, the mitigation
    example and ``benchmarks/bench_mitigation.py``, so all three analyse
    the identical program (and hash to the same cache keys).

    ``cache_config`` overrides the cache geometry/policy while keeping
    the Table-7 program (kernel and buffer sizes are always derived from
    ``BENCH_CACHE`` so the analysed source stays identical across
    geometries — only the cache model changes).
    """
    cache = cache_config or BENCH_CACHE
    kernel = crypto_kernel(name, BENCH_CACHE.num_lines, BENCH_CACHE.line_size)
    buffer_bytes = TABLE7_BUFFER_BYTES.get(name, BENCH_CACHE.size_bytes)
    source = build_client_source(kernel, buffer_bytes, line_size=BENCH_CACHE.line_size)
    return AnalysisRequest.speculative(
        source,
        line_size=BENCH_CACHE.line_size,
        cache_config=cache,
        speculation=BENCH_SPECULATION,
        label=name,
    )


# ----------------------------------------------------------------------
# E1: the motivating example (Figures 2 and 3)
# ----------------------------------------------------------------------
@dataclass
class MotivatingExampleResult:
    """Everything Figure 2/3 claims, measured."""

    non_speculative_must_hit: bool
    speculative_must_hit: bool
    non_speculative_leak: bool
    speculative_leak: bool
    concrete_misses_correct_prediction: int
    concrete_hits_correct_prediction: int
    concrete_misses_misprediction: int
    concrete_observable_misses_misprediction: int


def run_motivating_example(
    num_lines: int = 512, line_size: int = 64
) -> MotivatingExampleResult:
    """Reproduce the Figure 2/3 numbers: 512 misses + 1 hit without
    misprediction vs 514 misses (513 observable) with it, and the
    corresponding analysis verdicts."""
    source = motivating_example_source(num_lines=num_lines, line_size=line_size)
    program = compile_source(source, line_size=line_size)
    cache = CacheConfig(num_lines=num_lines, line_size=line_size)

    base = analyze_baseline(program, cache_config=cache)
    spec = analyze_speculative(program, cache_config=cache, speculation=BENCH_SPECULATION)

    def secret_hit(result) -> bool:
        flags = [c.must_hit for c in result.normal_classifications() if c.secret_indexed]
        return all(flags) and bool(flags)

    perfect = SpeculativeSimulator(
        program, cache_config=cache, predictor=PerfectPredictor(), record_accesses=False
    ).run()
    # The Figure 3 trace rolls back right after the wrong branch's load
    # (the branch resolves as soon as ``p`` arrives); fixing the excursion
    # length to that rollback point reproduces the 514-miss trace.
    mispredicted = SpeculativeSimulator(
        program,
        cache_config=cache,
        speculation=BENCH_SPECULATION,
        predictor=OpposingPredictor(),
        record_accesses=False,
        excursion_length=2,
    ).run()

    return MotivatingExampleResult(
        non_speculative_must_hit=secret_hit(base),
        speculative_must_hit=secret_hit(spec),
        non_speculative_leak=base.leak_detected,
        speculative_leak=spec.leak_detected,
        concrete_misses_correct_prediction=perfect.stats.misses,
        concrete_hits_correct_prediction=perfect.stats.hits,
        concrete_misses_misprediction=mispredicted.stats.misses,
        concrete_observable_misses_misprediction=mispredicted.stats.observable_misses,
    )


# ----------------------------------------------------------------------
# E5: Table 5 — execution-time estimation
# ----------------------------------------------------------------------
def generate_table5(
    names: list[str] | None = None,
    cache_config: CacheConfig | None = None,
    speculation: SpeculationConfig | None = None,
    engine: AnalysisEngine | None = None,
) -> list[WcetComparison]:
    """Run the non-speculative and speculative analyses on every WCET
    benchmark and return one comparison row per benchmark.

    All 2x|names| analyses are submitted to the engine as one batch: each
    benchmark compiles once, shared by both analysis kinds.
    """
    cache = cache_config or BENCH_CACHE
    spec = speculation or BENCH_SPECULATION
    names = names or list(WCET_BENCHMARKS)
    eng = engine or default_engine()
    requests: list[AnalysisRequest] = []
    for name in names:
        source = wcet_benchmark_source(name, cache.num_lines, cache.line_size)
        common = dict(source=source, line_size=cache.line_size, cache_config=cache, label=name)
        requests.append(AnalysisRequest.baseline(**common))
        requests.append(AnalysisRequest.speculative(speculation=spec, **common))
    results = eng.run_batch(requests)
    rows: list[WcetComparison] = []
    for name, base, spec_result in zip(names, results[0::2], results[1::2]):
        rows.append(
            WcetComparison(
                name=name,
                non_speculative=WcetEstimate.from_result(name, base, cache),
                speculative=WcetEstimate.from_result(name, spec_result, cache),
            )
        )
    return rows


# ----------------------------------------------------------------------
# E6: Table 6 — merge-strategy comparison
# ----------------------------------------------------------------------
def generate_table6(
    names: list[str] | None = None,
    cache_config: CacheConfig | None = None,
    engine: AnalysisEngine | None = None,
) -> list[tuple[str, WcetComparison, WcetComparison]]:
    """Compare merge-at-rollback (Figure 6d) with Just-in-Time merging
    (Figure 6c) on the WCET benchmark set.

    Submitted as one batch of 3x|names| requests (the non-speculative
    baseline is strategy-independent, so it is analysed once per benchmark
    and shared between the two comparisons)."""
    cache = cache_config or BENCH_CACHE
    names = names or list(WCET_BENCHMARKS)
    eng = engine or default_engine()
    rollback = BENCH_SPECULATION.with_strategy(MergeStrategy.MERGE_AT_ROLLBACK)
    jit = BENCH_SPECULATION.with_strategy(MergeStrategy.JUST_IN_TIME)
    requests: list[AnalysisRequest] = []
    for name in names:
        source = wcet_benchmark_source(name, cache.num_lines, cache.line_size)
        common = dict(source=source, line_size=cache.line_size, cache_config=cache, label=name)
        requests.append(AnalysisRequest.baseline(**common))
        requests.append(AnalysisRequest.speculative(speculation=rollback, **common))
        requests.append(AnalysisRequest.speculative(speculation=jit, **common))
    results = eng.run_batch(requests)
    rows: list[tuple[str, WcetComparison, WcetComparison]] = []
    for index, name in enumerate(names):
        base, rollback_result, jit_result = results[3 * index : 3 * index + 3]
        base_estimate = WcetEstimate.from_result(name, base, cache)
        rows.append(
            (
                name,
                WcetComparison(
                    name=name,
                    non_speculative=base_estimate,
                    speculative=WcetEstimate.from_result(name, rollback_result, cache),
                ),
                WcetComparison(
                    name=name,
                    non_speculative=base_estimate,
                    speculative=WcetEstimate.from_result(name, jit_result, cache),
                ),
            )
        )
    return rows


# ----------------------------------------------------------------------
# E7: Table 7 — side-channel detection
# ----------------------------------------------------------------------
def generate_table7(
    names: list[str] | None = None,
    cache_config: CacheConfig | None = None,
    speculation: SpeculationConfig | None = None,
    buffer_bytes: dict[str, int] | None = None,
    engine: AnalysisEngine | None = None,
) -> list[LeakComparison]:
    """Run leak detection on every crypto benchmark's client harness.

    Submitted as one batch of 2x|names| requests through the engine."""
    cache = cache_config or BENCH_CACHE
    spec = speculation or BENCH_SPECULATION
    buffers = dict(TABLE7_BUFFER_BYTES)
    if buffer_bytes:
        buffers.update(buffer_bytes)
    names = names or list(CRYPTO_BENCHMARKS)
    eng = engine or default_engine()
    requests: list[AnalysisRequest] = []
    row_buffers: list[int] = []
    for name in names:
        kernel = crypto_kernel(name, cache.num_lines, cache.line_size)
        buffer = buffers.get(name, cache.size_bytes)
        row_buffers.append(buffer)
        source = build_client_source(kernel, buffer, line_size=cache.line_size)
        common = dict(source=source, line_size=cache.line_size, cache_config=cache, label=name)
        requests.append(AnalysisRequest.baseline(**common))
        requests.append(AnalysisRequest.speculative(speculation=spec, **common))
    results = eng.run_batch(requests)
    rows: list[LeakComparison] = []
    for name, buffer, base, spec_result in zip(
        names, row_buffers, results[0::2], results[1::2]
    ):
        rows.append(
            LeakComparison(
                name=name,
                buffer_bytes=buffer,
                non_speculative=LeakReport.from_result(name, base, False),
                speculative=LeakReport.from_result(name, spec_result, True),
            )
        )
    return rows


# ----------------------------------------------------------------------
# E8: Section 6.2 — dynamic depth-bounding ablation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DepthAblationRow:
    """One benchmark analysed with and without dynamic depth bounding."""

    name: str
    misses_with_bounding: int
    misses_without_bounding: int
    edges_with_bounding: int
    edges_without_bounding: int
    time_with_bounding: float
    time_without_bounding: float

    @property
    def edges_removed(self) -> int:
        return self.edges_without_bounding - self.edges_with_bounding


def run_depth_ablation(
    names: list[str] | None = None,
    cache_config: CacheConfig | None = None,
    engine: AnalysisEngine | None = None,
) -> list[DepthAblationRow]:
    """Measure what the Section-6.2 optimisation buys on the WCET set.

    Submitted as one batch of 2x|names| speculative analyses, with and
    without dynamic depth bounding."""
    cache = cache_config or BENCH_CACHE
    names = names or list(WCET_BENCHMARKS)
    eng = engine or default_engine()
    bounded = replace(BENCH_SPECULATION, dynamic_depth_bounding=True)
    unbounded = replace(BENCH_SPECULATION, dynamic_depth_bounding=False)
    requests: list[AnalysisRequest] = []
    for name in names:
        source = wcet_benchmark_source(name, cache.num_lines, cache.line_size)
        common = dict(source=source, line_size=cache.line_size, cache_config=cache, label=name)
        requests.append(AnalysisRequest.speculative(speculation=bounded, **common))
        requests.append(AnalysisRequest.speculative(speculation=unbounded, **common))
    results = eng.run_batch(requests)
    rows: list[DepthAblationRow] = []
    for name, with_bounding, without_bounding in zip(
        names, results[0::2], results[1::2]
    ):
        rows.append(
            DepthAblationRow(
                name=name,
                misses_with_bounding=with_bounding.miss_count,
                misses_without_bounding=without_bounding.miss_count,
                edges_with_bounding=with_bounding.num_virtual_edges_active,
                edges_without_bounding=without_bounding.num_virtual_edges_active,
                time_with_bounding=with_bounding.analysis_time,
                time_without_bounding=without_bounding.analysis_time,
            )
        )
    return rows

"""Tests for the benchmark-suite substrate (programs, crypto kernels, the
client harness, workload sweeps, and the table drivers on small subsets)."""

import pytest

from repro import compile_source
from repro.bench.client import build_client_source
from repro.bench.crypto import CRYPTO_BENCHMARKS, crypto_kernel
from repro.bench.programs import (
    WCET_BENCHMARKS,
    figure7_source,
    figure11_source,
    motivating_example_source,
    quantl_client_source,
    wcet_benchmark_source,
)
from repro.bench.tables import (
    BENCH_CACHE,
    TABLE7_BUFFER_BYTES,
    generate_table5,
    generate_table6,
    generate_table7,
    run_depth_ablation,
    run_motivating_example,
)
from repro.bench.workloads import (
    find_distinguishing_buffer,
    sweep_buffer_sizes,
    sweep_cache_sizes,
    sweep_speculation_depths,
)
from repro.cache.config import CacheConfig


class TestBenchmarkPrograms:
    @pytest.mark.parametrize("name", sorted(WCET_BENCHMARKS))
    def test_wcet_benchmark_compiles(self, name):
        program = compile_source(wcet_benchmark_source(name, 64, 64))
        program.cfg.validate()
        assert program.cfg.all_memory_refs()

    def test_unknown_wcet_benchmark(self):
        with pytest.raises(KeyError):
            wcet_benchmark_source("nope")

    @pytest.mark.parametrize("name", sorted(CRYPTO_BENCHMARKS))
    def test_crypto_kernel_compiles_in_client(self, name):
        kernel = crypto_kernel(name, 64, 64)
        program = compile_source(build_client_source(kernel, buffer_bytes=1024))
        program.cfg.validate()
        secret_refs = [r for r in program.cfg.all_memory_refs() if r.index_secret]
        assert secret_refs, "the client harness must contain the secret-indexed access"

    def test_unknown_crypto_kernel(self):
        with pytest.raises(KeyError):
            crypto_kernel("nope")

    def test_paper_example_sources_compile(self):
        for source in (
            motivating_example_source(num_lines=16),
            quantl_client_source(),
            figure7_source(),
            figure11_source(),
        ):
            compile_source(source).cfg.validate()

    def test_client_buffer_zero_has_no_buffer_array(self):
        kernel = crypto_kernel("des", 64, 64)
        source = build_client_source(kernel, buffer_bytes=0)
        assert "in_buf" not in source

    def test_client_buffer_rounded_to_lines(self):
        kernel = crypto_kernel("hash", 64, 64)
        source = build_client_source(kernel, buffer_bytes=100)
        assert "char in_buf[64];" in source


class TestTableDrivers:
    def test_motivating_example_scaled(self):
        result = run_motivating_example(num_lines=64)
        assert result.non_speculative_must_hit
        assert not result.speculative_must_hit
        assert result.speculative_leak and not result.non_speculative_leak
        assert result.concrete_misses_misprediction > result.concrete_misses_correct_prediction

    def test_table5_subset_shape(self):
        rows = generate_table5(names=["susan", "vga"])
        by_name = {row.name: row for row in rows}
        assert by_name["susan"].speculative.misses > by_name["susan"].non_speculative.misses
        assert by_name["vga"].speculative.misses == by_name["vga"].non_speculative.misses
        for row in rows:
            assert row.speculative.misses >= row.non_speculative.misses

    def test_table6_subset_shape(self):
        rows = generate_table6(names=["stc"])
        (name, rollback, jit) = rows[0]
        assert name == "stc"
        assert jit.speculative.misses <= rollback.speculative.misses

    def test_table7_subset_shape(self):
        rows = generate_table7(names=["encoder", "aes"])
        by_name = {row.name: row for row in rows}
        assert by_name["encoder"].leak_only_under_speculation
        assert not by_name["aes"].speculative.leak_detected
        assert not by_name["aes"].non_speculative.leak_detected

    def test_table7_buffer_constants_cover_all_benchmarks(self):
        assert set(TABLE7_BUFFER_BYTES) == set(CRYPTO_BENCHMARKS)

    def test_depth_ablation_subset(self):
        rows = run_depth_ablation(names=["vga", "jcphuff"])
        for row in rows:
            assert row.edges_with_bounding <= row.edges_without_bounding
            # The optimisation may only improve precision.
            assert row.misses_with_bounding <= row.misses_without_bounding

    @pytest.mark.parametrize(
        "driver",
        [generate_table5, generate_table6, generate_table7, run_depth_ablation],
        ids=lambda driver: driver.__name__,
    )
    def test_drivers_take_no_worker_count(self, driver):
        """The drivers run their requests through one engine in process;
        there is no process fan-out to size."""
        with pytest.raises(TypeError, match="max_workers"):
            driver(names=[], max_workers=2)


class TestWorkloads:
    def test_buffer_sweep_points(self):
        points = list(
            sweep_buffer_sizes(
                "encoder", BENCH_CACHE, buffer_sizes=[2880, 0]
            )
        )
        assert [p.buffer_bytes for p in points] == [2880, 0]
        assert points[0].distinguishes

    def test_find_distinguishing_buffer_returns_smallest(self):
        point = find_distinguishing_buffer(
            "encoder", BENCH_CACHE, buffer_sizes=[2944, 2880]
        )
        assert point is not None
        assert point.buffer_bytes == 2880

    def test_find_distinguishing_buffer_none_for_branchless_kernel(self):
        point = find_distinguishing_buffer(
            "salsa", BENCH_CACHE, buffer_sizes=[2880, 2944]
        )
        assert point is None

    def test_depth_sweep_monotone_in_misses(self, motivating_program_small):
        points = sweep_speculation_depths(
            motivating_program_small,
            depths=[0, 4, 200],
            cache_config=CacheConfig(num_lines=64, line_size=64),
        )
        misses = [p.estimate.misses for p in points]
        assert misses[0] <= misses[-1]

    def test_cache_size_sweep(self):
        points = sweep_cache_sizes(
            figure7_source(), cache_lines=[3, 4, 8], line_size=64
        )
        assert [p.num_lines for p in points] == [3, 4, 8]
        for point in points:
            assert point.speculative_misses >= point.non_speculative_misses

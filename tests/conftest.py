"""Shared fixtures for the test suite.

Tests run against *scaled-down* cache geometries (4-64 lines) so the whole
suite stays fast; the benchmarks under ``benchmarks/`` exercise the
paper-sized configurations.
"""

from __future__ import annotations

import pytest

from repro import compile_source
from repro.bench.programs import (
    figure7_source,
    figure11_source,
    motivating_example_source,
    quantl_client_source,
    wcet_benchmark_source,
)
from repro.cache.config import CacheConfig
from repro.engine.engine import AnalysisEngine, execute_request
from repro.engine.request import AnalysisRequest
from repro.speculation.config import SpeculationConfig


@pytest.fixture(scope="session")
def small_cache() -> CacheConfig:
    """A 4-line cache, as used by the paper's Figure 7 / Figure 11 examples."""
    return CacheConfig(num_lines=4, line_size=64)


@pytest.fixture(scope="session")
def bench_cache() -> CacheConfig:
    """The scaled evaluation cache used by tests (64 lines of 64 bytes)."""
    return CacheConfig(num_lines=64, line_size=64)


@pytest.fixture(scope="session")
def paper_speculation() -> SpeculationConfig:
    return SpeculationConfig.paper_default()


@pytest.fixture(scope="session")
def motivating_program_small():
    """The Figure 2 program scaled to a 64-line cache (same structure)."""
    return compile_source(motivating_example_source(num_lines=64))


@pytest.fixture(scope="session")
def quantl_program():
    return compile_source(quantl_client_source())


@pytest.fixture(scope="session")
def figure7_program():
    return compile_source(figure7_source())


@pytest.fixture(scope="session")
def figure11_program():
    return compile_source(figure11_source())


# ----------------------------------------------------------------------
# One speculative analysis per pass shape, for the telemetry on/off tests
# ----------------------------------------------------------------------
#: Two data-dependent branches and no loop: the cold pass pops nodes.
TWO_BRANCH_SOURCE = """
char table[4096]; int k;
int main() {
  int x = 0;
  if (k > 0) { x = x + table[k * 64]; }
  if (k > 1) { x = x + table[128]; }
  return x;
}
"""


def _cold_loop_free():
    return execute_request(AnalysisRequest.speculative(TWO_BRANCH_SOURCE))


def _widening_active():
    result = execute_request(
        AnalysisRequest.speculative(
            wcet_benchmark_source("adpcm"),
            cache_config=CacheConfig(num_lines=64, line_size=64),
        )
    )
    assert result.widenings > 0, "adpcm stopped widening; pick another kernel"
    return result


def _warm_start():
    engine = AnalysisEngine()
    base = AnalysisRequest.speculative(TWO_BRANCH_SOURCE)
    engine.ensure_snapshot(base)
    result = engine.run(
        AnalysisRequest.speculative(
            TWO_BRANCH_SOURCE.replace("table[128];", "table[128] + table[192];"),
            warm_from=base.result_key(),
        )
    )
    assert engine.stats.incremental.warm_hits == 1
    return result


@pytest.fixture(params=[_cold_loop_free, _widening_active, _warm_start],
                ids=["cold_loop_free", "widening_active", "warm_start"])
def speculative_run(request):
    """A callable that runs one speculative analysis from scratch (no
    shared caches) and returns its result, so a test can run it with some
    telemetry on and off and compare.  The cases cover the engine's pass
    shapes: a cold loop-free program (the node schedule), adpcm at 64
    lines (a loop survives unrolling, so the pass is block-granular and
    widens), and a warm start from a retained snapshot."""
    return request.param

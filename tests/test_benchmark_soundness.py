"""Must-hit soundness on the benchmark programs, against the simulator.

The paper's claim: an access the speculative analysis classifies as a
must-hit hits on every committed execution, whatever the branch
predictor mispredicts within the speculation bounds.  This checks it on
the 23 programs the repository benchmark analyses (the ten Table-5
kernels, the ten Table-7 client harnesses and the 16/24/32-branch
``branchy`` kernels), built here from :mod:`repro.bench`.

Each program runs once on the concrete simulator under each of three
predictors: one that mispredicts every branch, always-taken and
always-not-taken.  The simulator takes every excursion the speculation
bounds allow (``bm`` instructions after a branch whose condition missed,
``bh`` otherwise).  Each merge strategy's analysis of the program must
then show a hit at every committed access to one of its must-hit sites;
each strategy and predictor is its own case, and a case that checks no
access fails.  The ``branchy`` kernels have no must-hit site at all, so
they add no accesses to check; the other 20 programs add ~3,500 per
strategy over the three predictors.

On those programs, with the simulator's all-zero inputs, no committed
access misses at a site even the non-speculative analysis calls a
must-hit, so those cases alone cannot tell the speculative analysis
from one that ignores speculation.  The paper's Figure 2/3 program can:
at 512 lines, a misprediction whose excursion is one or two
instructions long evicts the ``ph`` line that the committed ``ph[k]``
reads next, a site the non-speculative analysis calls a must-hit.  It
runs under the opposing predictor at every fixed excursion length up to
``bh`` and at the bounds' own choice.  Each merge strategy's must-hits
must hit there, and the non-speculative analysis's must-hits must miss
at least once, which shows the program exercises the unsoundness: an
analysis that degenerated to the non-speculative one would fail.
"""

from __future__ import annotations

import pytest

from repro.bench.crypto import CRYPTO_BENCHMARKS
from repro.bench.programs import (
    WCET_BENCHMARKS,
    branchy_kernel_source,
    motivating_example_source,
    wcet_benchmark_source,
)
from repro.bench.tables import BENCH_CACHE, BENCH_SPECULATION, table7_client_request
from repro.cache.config import CacheConfig
from repro.engine import AnalysisEngine, AnalysisRequest
from repro.speculation.config import SpeculationConfig
from repro.speculation.merge import MergeStrategy
from repro.speculation.predictor import (
    AlwaysNotTakenPredictor,
    AlwaysTakenPredictor,
    OpposingPredictor,
)
from repro.speculation.simulator import SpeculativeSimulator

#: Branch counts of the ``branchy`` kernels the repository benchmark runs.
BRANCHY_SIZES = (16, 24, 32)

PREDICTORS = {
    "opposing": OpposingPredictor,
    "taken": AlwaysTakenPredictor,
    "not_taken": AlwaysNotTakenPredictor,
}

#: The speculation bounds the Figure 2/3 program is analysed under.
FIGURE2_SPECULATION = SpeculationConfig.paper_default()

#: Its simulated excursion lengths: the bounds' own choice (None) and
#: every fixed length up to ``bh``.
FIGURE2_EXCURSIONS = (None, *range(1, FIGURE2_SPECULATION.depth_hit + 1))


def benchmark_programs() -> dict[str, AnalysisRequest]:
    """One speculative request per benchmark program, at the cache and
    speculation depths the benchmark analyses it with."""
    programs: dict[str, AnalysisRequest] = {}
    for name in WCET_BENCHMARKS:
        programs[f"t5/{name}"] = AnalysisRequest.speculative(
            source=wcet_benchmark_source(name, BENCH_CACHE.num_lines, BENCH_CACHE.line_size),
            line_size=BENCH_CACHE.line_size,
            cache_config=BENCH_CACHE,
            speculation=BENCH_SPECULATION,
        )
    for name in CRYPTO_BENCHMARKS:
        programs[f"t7/{name}"] = table7_client_request(name)
    for size in BRANCHY_SIZES:
        programs[f"branchy/{size}"] = AnalysisRequest.speculative(
            source=branchy_kernel_source(size),
            cache_config=CacheConfig.paper_default(),
            speculation=BENCH_SPECULATION,
        )
    return programs


@pytest.fixture(scope="module")
def executions():
    """``(engine, runs)``: ``runs`` holds, per program, its request, its
    compiled program and the committed accesses of one simulation per
    predictor."""
    engine = AnalysisEngine()
    runs = []
    for program_id, request in benchmark_programs().items():
        program = engine.compile(request)
        committed = {
            predictor: SpeculativeSimulator(
                program,
                cache_config=request.cache_config,
                speculation=request.speculation,
                predictor=make(),
            ).run().non_speculative_accesses()
            for predictor, make in PREDICTORS.items()
        }
        runs.append((program_id, request, program, committed))
    return engine, runs


def test_the_benchmark_programs_are_all_here():
    programs = benchmark_programs()
    assert len(programs) == 23
    assert len({request.source for request in programs.values()}) == 23


@pytest.mark.parametrize("predictor", PREDICTORS)
@pytest.mark.parametrize("strategy", list(MergeStrategy), ids=lambda s: s.value)
def test_must_hits_hit_on_every_committed_path(executions, strategy, predictor):
    engine, runs = executions
    checked = 0
    misses: list[str] = []
    for program_id, request, program, committed in runs:
        speculation = request.speculation.with_strategy(strategy)
        result = engine.run(
            AnalysisRequest.speculative(
                source=request.source,
                line_size=request.line_size,
                cache_config=request.cache_config,
                speculation=speculation,
            ),
            program=program,
        )
        must_hit = result.must_hit_sites()
        for access in committed[predictor]:
            if (access.block_name, access.instruction_index) not in must_hit:
                continue
            checked += 1
            if not access.hit:
                misses.append(
                    f"{program_id}: must-hit at "
                    f"{access.block_name}:{access.instruction_index} missed"
                )
    assert not misses, "\n".join(misses[:20])
    assert checked > 0, "no committed access reached a must-hit site"


@pytest.fixture(scope="module")
def figure2():
    """``(engine, request, program, committed)`` for the Figure 2/3
    program at 512 lines: ``committed`` holds the committed accesses of
    one opposing-predictor run per excursion length."""
    engine = AnalysisEngine()
    request = AnalysisRequest.speculative(
        source=motivating_example_source(num_lines=512, line_size=64),
        cache_config=CacheConfig.paper_default(),
        speculation=FIGURE2_SPECULATION,
    )
    program = engine.compile(request)
    committed = [
        access
        for length in FIGURE2_EXCURSIONS
        for access in SpeculativeSimulator(
            program,
            cache_config=request.cache_config,
            speculation=request.speculation,
            predictor=OpposingPredictor(),
            excursion_length=length,
        ).run().non_speculative_accesses()
    ]
    return engine, request, program, committed


def committed_misses(committed, sites: set[tuple[str, int]]) -> list[str]:
    """The committed accesses to ``sites`` that missed, as ``block:index``."""
    return [
        f"{access.block_name}:{access.instruction_index}"
        for access in committed
        if (access.block_name, access.instruction_index) in sites and not access.hit
    ]


@pytest.mark.parametrize("strategy", list(MergeStrategy), ids=lambda s: s.value)
def test_figure2_must_hits_hit_under_every_excursion(figure2, strategy):
    engine, request, program, committed = figure2
    result = engine.run(
        AnalysisRequest.speculative(
            source=request.source,
            cache_config=request.cache_config,
            speculation=request.speculation.with_strategy(strategy),
        ),
        program=program,
    )
    assert not committed_misses(committed, result.must_hit_sites())


def test_figure2_misses_at_a_non_speculative_must_hit(figure2):
    engine, request, program, committed = figure2
    baseline = engine.run(
        AnalysisRequest.baseline(source=request.source, cache_config=request.cache_config),
        program=program,
    )
    assert baseline.must_hit_sites()
    assert committed_misses(committed, baseline.must_hit_sites())

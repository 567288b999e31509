"""E5 — Table 5: execution-time estimation on the WCET benchmark set.

Runs the non-speculative and speculative analyses on all ten synthetic
Table-3 benchmarks and prints the Table-5 columns (analysis time, #Miss,
#SpMiss, #Branch, #Iteration).  The shape to reproduce: the speculative
analysis never reports fewer misses, reports strictly more on most
benchmarks, and takes longer.

All 20 analyses are submitted to a fresh :class:`AnalysisEngine` as one
batch, so each benchmark compiles once for both analyses.
"""

from repro.apps.report import format_comparison_table
from repro.bench.tables import generate_table5
from repro.engine import AnalysisEngine


def test_table5_execution_time_estimation(benchmark, once):
    engine = AnalysisEngine()
    rows = once(benchmark, generate_table5, engine=engine)

    print()
    print(format_comparison_table(rows, title="Table 5 — execution time estimation"))
    print(engine.stats)

    assert len(rows) == 10
    for row in rows:
        assert row.speculative.misses >= row.non_speculative.misses
    strictly_more = sum(
        1 for row in rows if row.speculative.misses > row.non_speculative.misses
    )
    assert strictly_more >= 7
    # The two small-working-set benchmarks agree, as in the paper.
    by_name = {row.name: row for row in rows}
    assert by_name["vga"].speculative.misses == by_name["vga"].non_speculative.misses
    assert by_name["jcphuff"].speculative.misses == by_name["jcphuff"].non_speculative.misses

#!/usr/bin/env python3
"""Comparing the merge strategies of Figure 6 (Table 6 scenario).

The script analyses the Figure 7 diamond and a few WCET kernels under all
four strategies, showing the precision/cost trade-off the paper discusses
(Just-in-Time merging is the recommended one), and prints the abstract
cache state at the merge point of the Figure 7 example for each strategy.

The four per-strategy analyses are submitted to the process-wide engine
as one batch, so the diamond compiles once and repeated requests are
answered from the engine's result cache.

Run with::

    python examples/merge_strategies.py
"""

from repro import AnalysisRequest, default_engine
from repro.apps.report import format_merge_table
from repro.bench.programs import figure7_source
from repro.bench.tables import generate_table6
from repro.cache.config import CacheConfig
from repro.speculation.config import SpeculationConfig
from repro.speculation.merge import MergeStrategy


def figure7_states() -> None:
    print("=== Figure 7: abstract state at the merge point (4-line cache) ===")
    source = figure7_source()
    cache = CacheConfig.small(num_lines=4)
    engine = default_engine()
    requests = [
        AnalysisRequest.speculative(
            source,
            cache_config=cache,
            speculation=SpeculationConfig(
                depth_miss=2, depth_hit=2, merge_strategy=strategy
            ),
            label=f"figure7-{strategy.name.lower()}",
        )
        for strategy in MergeStrategy
    ]
    program = engine.compile(requests[0])
    merge_block = [
        name
        for name in program.cfg.reachable_blocks()
        if any(ref.symbol == "a" for ref in program.cfg.block(name).memory_refs())
    ][-1]
    results = engine.run_batch(requests)
    for strategy, result in zip(MergeStrategy, results):
        state = result.entry_states[merge_block]
        cached = sorted(
            str(block) for block in state.cached_blocks() if not block.is_placeholder
        )
        hits = result.hit_count
        print(f"  {strategy.name:18s} ({strategy.figure_label}): "
              f"guaranteed cached at merge = {cached}  must-hits = {hits}")
    print()
    print("  non-speculatively, a/b/c are all cached at the merge point; a sound")
    print("  speculative analysis must drop 'a', and Just-in-Time merging keeps")
    print("  the precision on 'b' and 'c' (the Figure 7 bottom-right state).")
    print()


def table6() -> None:
    print("=== Table 6: merge-at-rollback vs Just-in-Time on the WCET set ===")
    rows = generate_table6(names=["adpcm", "susan", "jcmarker", "stc"])
    print(format_merge_table(rows, title=""))
    print()
    for name, rollback, jit in rows:
        better = "more precise" if jit.speculative.misses < rollback.speculative.misses else "equal"
        print(f"  {name}: JIT is {better} "
              f"({jit.speculative.misses} vs {rollback.speculative.misses} potential misses)")


def main() -> None:
    figure7_states()
    table6()
    print()
    print(default_engine().stats)


if __name__ == "__main__":
    main()

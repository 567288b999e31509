"""Driver for the speculative must-hit cache analysis (Algorithm 2/3).

The heavy lifting lives in
:class:`repro.analysis.multicolor.SpeculativeCacheAnalysis`; this module
provides the one-call entry point used by the applications, examples and
benchmarks, mirroring :func:`repro.analysis.baseline.analyze_baseline`.
"""

from __future__ import annotations

from repro.analysis.multicolor import SpeculativeCacheAnalysis
from repro.analysis.result import CacheAnalysisResult
from repro.cache.config import CacheConfig
from repro.frontend import CompiledProgram
from repro.speculation.config import SpeculationConfig
from repro.speculation.merge import MergeStrategy


def analyze_speculative(
    program: CompiledProgram,
    cache_config: CacheConfig | None = None,
    speculation: SpeculationConfig | None = None,
    merge_strategy: MergeStrategy | None = None,
    depth_miss: int | None = None,
    depth_hit: int | None = None,
    dynamic_depth_bounding: bool | None = None,
    use_shadow_state: bool | None = None,
    scenario_shards: int = 1,
    shard_backend: str | None = None,
) -> CacheAnalysisResult:
    """Run the speculation-sound must-hit analysis on ``program``.

    Either pass a full :class:`SpeculationConfig`, or override individual
    knobs (merge strategy, ``bm``/``bh`` depths, dynamic bounding, shadow
    state); unspecified knobs keep the paper's defaults.

    ``scenario_shards >= 2`` selects the scenario-sharded scheduler
    (groups of colors solved against an outer normal-state fixpoint
    loop); ``shard_backend`` picks where the shard fixpoints execute —
    ``"serial"`` (the default, also what None means) or ``"processes"``
    (bit-identical by construction; see the backend section of
    :mod:`repro.analysis.multicolor`).
    """
    config = speculation or SpeculationConfig.paper_default()
    if merge_strategy is not None:
        config = config.with_strategy(merge_strategy)
    if depth_miss is not None or depth_hit is not None:
        config = config.with_depths(
            depth_miss if depth_miss is not None else config.depth_miss,
            depth_hit if depth_hit is not None else config.depth_hit,
        )
    if dynamic_depth_bounding is not None or use_shadow_state is not None:
        config = SpeculationConfig(
            depth_miss=config.depth_miss,
            depth_hit=config.depth_hit,
            merge_strategy=config.merge_strategy,
            dynamic_depth_bounding=(
                config.dynamic_depth_bounding
                if dynamic_depth_bounding is None
                else dynamic_depth_bounding
            ),
            use_shadow_state=(
                config.use_shadow_state if use_shadow_state is None else use_shadow_state
            ),
        )
    engine = SpeculativeCacheAnalysis(
        program,
        cache_config=cache_config,
        speculation=config,
        scenario_shards=scenario_shards,
        shard_backend=shard_backend,
    )
    return engine.run()

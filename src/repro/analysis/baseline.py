"""Algorithm 1: the classical non-speculative must-hit cache analysis.

This is the state-of-the-art baseline the paper compares against
(Ferdinand & Wilhelm-style must analysis, as used by CacheAudit and the
program-repair work of [62]).  It is sound for processors without
speculative execution and — as the paper demonstrates — unsound with it.
"""

from __future__ import annotations

from repro.ai.solver import solve_forward
from repro.analysis.result import CacheAnalysisResult
from repro.analysis.transfer import (
    AccessTable,
    classify_block,
    new_bottom_state,
    new_entry_state,
    transfer_block,
)
from repro.cache.config import CacheConfig
from repro.frontend import CompiledProgram
from repro.obs import metrics, span


def analyze_baseline(
    program: CompiledProgram,
    cache_config: CacheConfig | None = None,
    use_shadow_state: bool = True,
) -> CacheAnalysisResult:
    """Run the non-speculative must-hit analysis on ``program``.

    Parameters
    ----------
    program:
        Output of :func:`repro.compile_source`.
    cache_config:
        Cache geometry; defaults to the paper's 512 x 64-byte LRU cache.
    use_shadow_state:
        Use the shadow-variable refined state (Section 6.3).  The paper
        applies the refinement to both the baseline and the speculative
        analysis; disable it to reproduce Figure 11's precision loss.
    """
    config = cache_config or CacheConfig.paper_default()
    cfg = program.cfg
    table = AccessTable(cfg, program.layout)
    secret_symbols = set(program.info.secret_symbols)

    # The public `analysis_time` is derived from the span's duration:
    # the span always times itself, sinks or not.
    with span("fixpoint", program=cfg.name, kind="baseline") as fixpoint_span:
        result = solve_forward(
            cfg,
            entry_state=new_entry_state(config, use_shadow_state, program.layout),
            bottom=new_bottom_state(config, use_shadow_state, program.layout),
            transfer=lambda name, state: transfer_block(state, table, name),
        )
        fixpoint_span.set(iterations=result.iterations, widenings=result.widenings)
    metrics().counter("fixpoint.pops").inc(result.iterations)
    metrics().counter("fixpoint.widenings").inc(result.widenings)

    analysis = CacheAnalysisResult(
        program_name=cfg.name,
        cache_config=config,
        speculation=None,
        entry_states=dict(result.entry_states),
        iterations=result.iterations,
        widenings=result.widenings,
        analysis_time=fixpoint_span.duration,
    )
    with span("classify", program=cfg.name) as classify_span:
        for block in cfg.graph().reachable:
            state = result.entry_states[block]
            if getattr(state, "is_bottom", False):
                continue
            analysis.classifications.extend(
                classify_block(state, table, block, secret_symbols)
            )
        classify_span.set(sites=len(analysis.classifications))
    return analysis

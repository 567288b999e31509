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
    CommittedTransfers,
    SiteFlags,
    access_table,
    new_bottom_state,
    new_entry_state,
    site_classifications,
)
from repro.cache.config import CacheConfig
from repro.errors import AnalysisError
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
    table = access_table(cfg, program.layout)
    # Each block's classifications are read off its last transfer: a
    # transfer runs again whenever the block's entry state grows, so the
    # last one saw the final state.  Every transfer goes through the
    # table's memo, shared with the program's speculative analyses.
    records: dict[str, tuple[SiteFlags, ...]] = {}
    committed = CommittedTransfers(table)

    def transfer(name: str, state):
        state_out, records[name] = committed.record(state, name)
        return state_out

    # The public `analysis_time` is derived from the span's duration:
    # the span always times itself, sinks or not.
    with span("fixpoint", program=cfg.name, kind="baseline") as fixpoint_span:
        result = solve_forward(
            cfg,
            entry_state=new_entry_state(config, use_shadow_state, program.layout),
            bottom=new_bottom_state(config, use_shadow_state, program.layout),
            transfer=transfer,
        )
        fixpoint_span.set(iterations=result.iterations, widenings=result.widenings)
    metrics().counter("fixpoint.pops").inc(result.iterations)
    metrics().counter("fixpoint.widenings").inc(result.widenings)
    committed.publish()

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
            if getattr(result.entry_states[block], "is_bottom", False):
                continue
            if block not in records:
                raise AnalysisError(
                    f"no transfer of {block!r} recorded its classifications"
                )
            analysis.classifications.extend(
                site_classifications(block, table.sites(block), records[block])
            )
        classify_span.set(sites=len(analysis.classifications))
    return analysis

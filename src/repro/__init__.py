"""repro — Abstract Interpretation under Speculative Execution.

A from-scratch Python reproduction of Wu & Wang, *Abstract Interpretation
under Speculative Execution* (PLDI 2019): a static cache analysis
(must-hit, LRU) that remains sound when the processor speculatively
executes mispredicted branches, plus the two applications the paper
evaluates — execution-time estimation and timing side-channel detection.

Typical usage::

    from repro import compile_source
    from repro.analysis import analyze_baseline, analyze_speculative

    program = compile_source(SOURCE)
    non_spec = analyze_baseline(program)
    spec = analyze_speculative(program)

For request/response traffic — many programs, repeated configurations —
submit through the engine service layer instead; it compiles each source
once and answers repeated requests from its result cache::

    from repro import AnalysisEngine, AnalysisRequest

    engine = AnalysisEngine()
    results = engine.run_batch(
        [AnalysisRequest.speculative(source) for source in sources]
    )
"""

from repro.frontend import CompiledProgram, compile_source
from repro.engine import AnalysisEngine, AnalysisKind, AnalysisRequest, default_engine

__version__ = "1.6.0"

__all__ = [
    "AnalysisEngine",
    "AnalysisKind",
    "AnalysisRequest",
    "CompiledProgram",
    "compile_source",
    "default_engine",
    "__version__",
]

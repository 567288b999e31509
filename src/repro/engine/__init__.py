"""The unified analysis engine.

This package is the scaling seam of the reproduction: every analysis in
the code base — the generic forward solver, the lifted multi-color
engine, the WCET and side-channel applications, and the table
generators — schedules and executes through it.

* :mod:`repro.engine.worklist` — the shared priority-worklist fixpoint
  kernel (heap-ordered reverse-postorder scheduling, widening policy,
  divergence guard);
* :mod:`repro.engine.request` — declarative, hashable, picklable
  analysis requests;
* :mod:`repro.engine.cache` — LRU caches with hit/miss accounting;
* :mod:`repro.engine.engine` — the :class:`AnalysisEngine` service layer
  resolving requests through a content-hash compile cache and a result
  cache.
"""

from repro.engine.worklist import (
    DEFAULT_WIDENING_DELAY,
    PriorityWorklist,
    WideningPolicy,
    run_fixpoint,
)
from repro.engine.cache import CacheStats, LRUCache
from repro.engine.request import AnalysisKind, AnalysisRequest, program_request
from repro.engine.engine import (
    AnalysisEngine,
    EngineStats,
    compile_request,
    default_engine,
    execute_request,
)

__all__ = [
    "AnalysisEngine",
    "AnalysisKind",
    "AnalysisRequest",
    "CacheStats",
    "DEFAULT_WIDENING_DELAY",
    "EngineStats",
    "LRUCache",
    "PriorityWorklist",
    "WideningPolicy",
    "compile_request",
    "default_engine",
    "execute_request",
    "program_request",
]

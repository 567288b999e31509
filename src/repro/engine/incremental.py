"""Retained analysis snapshots: the substrate of incremental re-analysis.

Every speculative run the engine executes leaves an
:class:`AnalysisSnapshot`: the identity of the producing request and the
configuration its states are valid under, plus the solver-facing
:class:`~repro.analysis.multicolor.WarmStartData`:

* the final fixpoint states — the per-block normal states and every
  speculative slot — as the live values the run produced (states are
  immutable, so a snapshot shares them rather than copying or encoding
  them);
* the vcfg skeleton (frozen scenarios) and the depth chooser's final
  per-color decisions;
* the run's classifications, reused verbatim for blocks an edit did not
  touch;
* the analysed CFG and the graph index the run read.  The per-block
  content fingerprints and line signatures a warm start diffs against
  (:func:`repro.ir.cfg.diff_cfgs`) are taken from that CFG on first use,
  so a run whose snapshot never seeds a warm start never hashes a block.
  A CFG edited before that first use is no longer the graph that was
  analysed: the snapshot is then *stale* and the warm start runs cold.

Snapshots live in a bounded :class:`SnapshotStore` LRU inside the
:class:`~repro.engine.engine.AnalysisEngine`, keyed by the producing
request's ``result_key()`` — the same lineage handle an edited request
passes back as its ``warm_from=``.  They are an in-process acceleration
structure only: never pickled, never persisted, and safe to drop at any
time (a missing or incompatible snapshot just means a cold run).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.multicolor import SpeculativeCacheAnalysis, WarmStartData
from repro.engine.cache import CacheStats, LRUCache
from repro.engine.request import AnalysisKind, AnalysisRequest
from repro.frontend import CompiledProgram
from repro.obs import span, stamp_for_request

#: Default capacity of the engine's snapshot LRU.  A snapshot pins the
#: live states and the CFG of one run; the store is bounded so a
#: long-lived daemon cannot grow without limit.
DEFAULT_SNAPSHOT_CACHE_SIZE = 64


@dataclass(frozen=True)
class AnalysisSnapshot:
    """One retained speculative fixpoint, ready to seed a warm re-run."""

    #: ``result_key()`` of the request that produced this snapshot — the
    #: lineage handle edited requests pass back via ``warm_from=``.
    result_key: str
    #: ``compile_key()`` of the producing request (observability only).
    compile_key: str
    #: Entry function name of the analysed program.
    entry: str
    #: Memory-layout fingerprint the retained states embed (states name
    #: symbols and memory blocks; a different layout makes them garbage).
    layout_fingerprint: str
    #: The resolved configs of the producing run.  A warm start is only
    #: sound against a request resolving to the *same* analysis.
    cache_config: object
    speculation: object
    #: Widening count of the producing run.  Retained states are only the
    #: exact least fixpoint — the thing warm exactness rests on — when the
    #: producing run never widened.
    widenings: int
    #: Secret annotations of the analysed program.  Fixpoint states do not
    #: depend on them, but retained classifications do — and they are not
    #: part of the layout fingerprint, so they gate compatibility here.
    secret_symbols: frozenset[str]
    #: What the solver seeds a warm start with.  Sharing the live states
    #: is safe: the solver treats states as immutable values and seeds
    #: fresh dicts rather than writing into these.
    warm: WarmStartData


def snapshot_from_analysis(
    request: AnalysisRequest, program: CompiledProgram, analysis, result
) -> AnalysisSnapshot:
    """Build a snapshot from a completed sparse speculative solve.

    ``analysis`` is the :class:`~repro.analysis.multicolor.SpeculativeCacheAnalysis`
    instance that just ran (its ``last_fixpoint`` holds the full state
    maps the result object does not carry); ``result`` the
    :class:`~repro.analysis.result.CacheAnalysisResult` it produced.
    Warm runs may be snapshotted too: their states are bit-identical to
    the cold fixpoint by construction.  Nothing is hashed here.
    """
    fixpoint = analysis.last_fixpoint
    if fixpoint is None:
        raise ValueError("analysis has no retained fixpoint to snapshot")
    depths, locked = analysis.chooser.export_state()
    return AnalysisSnapshot(
        result_key=request.result_key(),
        compile_key=request.compile_key(),
        entry=analysis.cfg.name,
        layout_fingerprint=program.layout_fingerprint(),
        cache_config=request.resolved_cache_config,
        speculation=request.resolved_speculation,
        widenings=result.widenings,
        secret_symbols=frozenset(program.info.secret_symbols),
        warm=WarmStartData(
            cfg=analysis.cfg,
            graph=analysis._graph,
            scenarios=tuple(analysis.vcfg.scenarios),
            normal=fixpoint.normal,
            slots=fixpoint.speculative,
            chooser_active_depths=depths,
            chooser_locked=locked,
            classifications=tuple(result.classifications),
        ),
    )


def snapshot_compatible(
    snapshot: AnalysisSnapshot, request: AnalysisRequest, program: CompiledProgram
) -> str | None:
    """None when ``snapshot`` may seed a warm run of ``request`` over
    ``program``; otherwise the rejection reason (a cold-fallback label).

    The checks mirror what warm exactness rests on: same resolved
    analysis configuration, same entry function, a memory layout whose
    symbols/blocks the retained states actually denote, a producing run
    that never widened (widened states sit above the least fixpoint, and
    a warm drain would never pull seeded blocks back down), and a
    retained CFG that still is the graph that was analysed.
    """
    if snapshot.widenings:
        return "baseline_widened"
    if snapshot.entry != program.cfg.name:
        return "entry_mismatch"
    if snapshot.layout_fingerprint != program.layout_fingerprint():
        return "layout_mismatch"
    if snapshot.secret_symbols != frozenset(program.info.secret_symbols):
        return "secret_symbols_mismatch"
    if snapshot.cache_config != request.resolved_cache_config:
        return "cache_config_mismatch"
    if snapshot.speculation != request.resolved_speculation:
        return "speculation_mismatch"
    if snapshot.warm.stale:
        return "snapshot_stale"
    return None


def snapshot_eligible(request: AnalysisRequest) -> bool:
    """May this request's run be snapshotted / warm-started at all?

    Only the speculative engine retains and consumes snapshots: the
    baseline analysis has no speculative slots to seed.
    """
    return request.kind is AnalysisKind.SPECULATIVE


def execute_retaining(
    request: AnalysisRequest, program: CompiledProgram, warm_start=None
):
    """Run one speculative request keeping the solver instance around.

    The speculative executor behind both the engine and
    :func:`repro.engine.engine.execute_request`: returns
    ``(result, analysis)`` so the caller can snapshot the final fixpoint
    states, which the result object deliberately does not carry.
    """
    with span(
        "analyze", kind=request.kind.value, label=request.label
    ) as analyze_span:
        analysis = SpeculativeCacheAnalysis(
            program,
            cache_config=request.cache_config,
            speculation=request.speculation,
            warm_start=warm_start,
        )
        result = analysis.run()
        result.provenance = stamp_for_request(request)
        analyze_span.set(
            result_key=request.result_key(), iterations=result.iterations
        )
    return result, analysis


@dataclass
class IncrementalStats:
    """Aggregate incremental-reuse accounting for one engine instance."""

    warm_hits: int = 0
    cold_fallbacks: int = 0
    snapshots_stored: int = 0
    seeded_slots: int = 0
    invalidated_blocks: int = 0
    snapshots: CacheStats = field(default_factory=CacheStats)
    #: How many snapshots are currently retained.
    retained: int = 0

    @property
    def warm_rate(self) -> float:
        """Warm hits over warm-or-fallback attempts (0.0 when none)."""
        attempts = self.warm_hits + self.cold_fallbacks
        return self.warm_hits / attempts if attempts else 0.0

    def to_wire(self) -> dict:
        """JSON-shaped form for the service stats payload."""
        return {
            "warm_hits": self.warm_hits,
            "cold_fallbacks": self.cold_fallbacks,
            "warm_rate": self.warm_rate,
            "snapshots_stored": self.snapshots_stored,
            "seeded_slots": self.seeded_slots,
            "invalidated_blocks": self.invalidated_blocks,
            "retained": self.retained,
            "snapshot_cache": vars(self.snapshots),
        }

    def __str__(self) -> str:
        return (
            f"incremental: {self.warm_hits} warm hits, "
            f"{self.cold_fallbacks} cold fallbacks "
            f"({self.warm_rate:.0%} warm), {self.retained} snapshots retained"
        )


class SnapshotStore:
    """A bounded LRU of :class:`AnalysisSnapshot` values keyed by the
    producing request's ``result_key()``."""

    def __init__(self, maxsize: int = DEFAULT_SNAPSHOT_CACHE_SIZE):
        self._cache = LRUCache(maxsize=maxsize)

    def get(self, result_key: str) -> AnalysisSnapshot | None:
        return self._cache.get(result_key)

    def put(self, snapshot: AnalysisSnapshot) -> None:
        self._cache.put(snapshot.result_key, snapshot)

    def __len__(self) -> int:
        return len(self._cache)

    def __contains__(self, result_key: str) -> bool:
        return result_key in self._cache

    def clear(self) -> None:
        self._cache.clear()

    @property
    def stats(self) -> CacheStats:
        return self._cache.stats.snapshot()

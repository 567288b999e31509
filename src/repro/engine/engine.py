"""The AnalysisEngine service layer.

One engine instance owns two LRU caches — compiled programs keyed by a
content hash of the source and front-end options, and analysis results
keyed by the full request — and resolves declarative
:class:`~repro.engine.request.AnalysisRequest` values through them.  All
applications (:mod:`repro.apps.wcet`, :mod:`repro.apps.sidechannel`) and
the table generators (:mod:`repro.bench.tables`) submit their work here,
so a batch that re-analyses the same program under several
configurations compiles it once, and repeated requests skip the front
end and the fixpoint entirely.

:func:`execute_request` is the cache-free core — a pure module-level
function so process-pool workers (see :mod:`repro.engine.batch`) can run
it by reference.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field, replace
from typing import Any

from repro.engine.cache import CacheStats, LRUCache
from repro.engine.incremental import (
    DEFAULT_SNAPSHOT_CACHE_SIZE,
    IncrementalStats,
    SnapshotStore,
    execute_retaining,
    snapshot_compatible,
    snapshot_eligible,
    snapshot_from_analysis,
    warm_start_from_snapshot,
)
from repro.engine.request import AnalysisKind, AnalysisRequest
from repro.frontend import CompiledProgram, compile_source
from repro.obs import metrics, span, stamp_for_request

#: Default capacity of the compile cache (compiled CFGs are the largest
#: objects the engine retains).
DEFAULT_COMPILE_CACHE_SIZE = 256

#: Default capacity of the result cache.
DEFAULT_RESULT_CACHE_SIZE = 1024

#: Environment knob enabling incremental re-analysis when the engine is
#: constructed without an explicit ``incremental=`` argument.
INCREMENTAL_ENV = "REPRO_INCREMENTAL"


def compile_request(request: AnalysisRequest) -> CompiledProgram:
    """Run the front end for ``request`` (no caching)."""
    return compile_source(
        request.source,
        entry=request.entry,
        line_size=request.line_size,
        unroll=request.unroll,
        inline=request.inline,
        max_unroll_iterations=request.max_unroll_iterations,
    )


def execute_request(
    request: AnalysisRequest, program: CompiledProgram | None = None
):
    """Compile (unless ``program`` is given) and analyse one request.

    This is deterministic and side-effect free, so sequential execution,
    cached replay and process-pool fan-out all produce bit-identical
    classifications for the same request.  (The attached provenance stamp
    carries a wall-clock timestamp, but it is observational —
    ``compare=False``, excluded from fingerprints — so determinism of the
    *verdict* is unaffected.)
    """
    # Imported lazily: the analyses' fixpoint loops import the worklist
    # kernel from this package, so a module-level import would be circular.
    from repro.analysis.baseline import analyze_baseline
    from repro.analysis.speculative import analyze_speculative

    with span(
        "analyze", kind=request.kind.value, label=request.label
    ) as analyze_span:
        if program is None:
            program = compile_request(request)
        if request.kind is AnalysisKind.BASELINE:
            result = analyze_baseline(
                program,
                cache_config=request.cache_config,
                use_shadow_state=request.use_shadow_state,
            )
        else:
            result = analyze_speculative(
                program,
                cache_config=request.cache_config,
                speculation=request.speculation,
            )
        result.provenance = stamp_for_request(request)
        analyze_span.set(
            result_key=request.result_key(), iterations=result.iterations
        )
    return result


@dataclass
class EngineStats:
    """Aggregate accounting for one engine instance."""

    compile: CacheStats = field(default_factory=CacheStats)
    results: CacheStats = field(default_factory=CacheStats)
    requests: int = 0
    batches: int = 0
    parallel_batches: int = 0
    #: Tier-2 (on-disk result store) statistics; None when no store is
    #: attached.  Duck-typed so the engine stays below the service layer.
    store: Any = None
    #: Incremental re-analysis accounting (always present; ``enabled``
    #: records whether the engine resolves ``warm_from=`` handles).
    incremental: IncrementalStats = field(default_factory=IncrementalStats)

    def __str__(self) -> str:
        lines = [
            f"engine: {self.requests} requests, {self.batches} batches "
            f"({self.parallel_batches} parallel)",
            f"  compile cache: {self.compile}",
            f"  result cache:  {self.results}",
        ]
        if self.store is not None:
            lines.append(f"  result store:  {self.store}")
        if self.incremental.enabled or self.incremental.snapshots_stored:
            lines.append(f"  {self.incremental}")
        return "\n".join(lines)


class AnalysisEngine:
    """Resolve analysis requests through compile and result caches."""

    def __init__(
        self,
        compile_cache_size: int = DEFAULT_COMPILE_CACHE_SIZE,
        result_cache_size: int = DEFAULT_RESULT_CACHE_SIZE,
        result_store: Any = None,
        incremental: bool | None = None,
        snapshot_cache_size: int = DEFAULT_SNAPSHOT_CACHE_SIZE,
    ):
        self._compile_cache = LRUCache(maxsize=compile_cache_size)
        self._result_cache = LRUCache(maxsize=result_cache_size)
        self._result_store = result_store
        self._requests = 0
        self._batches = 0
        self._parallel_batches = 0
        #: None defers to the REPRO_INCREMENTAL environment variable at
        #: each run (so a long-lived default engine follows the knob).
        self._incremental = incremental
        self._snapshots = SnapshotStore(maxsize=snapshot_cache_size)
        self._warm_hits = 0
        self._cold_fallbacks = 0
        self._snapshots_stored = 0
        self._seeded_slots = 0
        self._invalidated_blocks = 0

    @property
    def incremental_enabled(self) -> bool:
        """Whether runs retain snapshots and resolve ``warm_from=`` handles."""
        if self._incremental is not None:
            return self._incremental
        return os.environ.get(INCREMENTAL_ENV, "").strip().lower() in (
            "1",
            "true",
            "yes",
            "on",
        )

    # ------------------------------------------------------------------
    # Single-request API
    # ------------------------------------------------------------------
    def compile(self, request: AnalysisRequest) -> CompiledProgram:
        """Return the compiled program for ``request``, caching by the
        content hash of the source and front-end options."""
        return self._compile_cache.get_or_compute(
            request.compile_key(), lambda: compile_request(request)
        )

    def run(
        self, request: AnalysisRequest, program: CompiledProgram | None = None
    ):
        """Resolve one request to a :class:`CacheAnalysisResult`.

        ``program`` optionally supplies an already-compiled program for
        this request's source (it must match; callers that hold one avoid
        the compile-cache round trip).  The returned result is a copy —
        mutating it never corrupts the cache — and cache hits are marked
        ``from_cache`` (their ``analysis_time`` reports the original
        computation, not the lookup).
        """
        self._requests += 1
        with span("engine.run", kind=request.kind.value) as run_span:
            cached = self._lookup_result(request)
            if cached is not None:
                run_span.set(cache_hit=True)
                return _copy_result(cached, from_cache=True)
            if self.incremental_enabled and snapshot_eligible(request):
                result, warm = self._run_incremental(request, program)
                run_span.set(cache_hit=False, warm=warm)
                # Warm results are bit-identical to cold ones, but their
                # observational fields (iterations, analysis_time) are
                # not — and result fingerprints include iterations, so a
                # cached warm result could fail a later `submit --verify`
                # replay.  Only cold runs populate the result tiers.
                if not warm:
                    self._store_result(request, result)
                return _copy_result(result)
            result = execute_request(
                request, program=program or self.compile(request)
            )
            self._store_result(request, result)
            run_span.set(cache_hit=False)
        return _copy_result(result)

    def _resolve_warm_start(self, request: AnalysisRequest, program: CompiledProgram):
        """``(warm_start, fallback_reason)`` for one eligible request —
        warm_start is None (with the reason) when the warm_from snapshot is
        absent or incompatible, and ``(None, None)`` when the request has
        no warm_from handle at all."""
        if request.warm_from is None:
            return None, None
        snapshot = self._snapshots.get(request.warm_from)
        if snapshot is None:
            return None, "snapshot_missing"
        reason = snapshot_compatible(snapshot, request, program)
        if reason is not None:
            return None, reason
        return warm_start_from_snapshot(snapshot, program.layout.lanes), None

    def _note_warm_outcome(
        self, request: AnalysisRequest, analysis, seeded: bool, fallback: str | None
    ) -> bool:
        """Account one warm attempt; returns whether the run was warm."""
        warm_info = analysis.warm_info or {}
        warm = bool(warm_info.get("used"))
        if seeded and not warm:
            # The solver itself declined the seed (widening-active
            # program, or a non-canonical scheduler slipped through).
            fallback = warm_info.get("fallback", "plan")
        if request.warm_from is None:
            return warm
        registry = metrics()
        if warm:
            self._warm_hits += 1
            self._seeded_slots += warm_info.get("seeded_slots", 0)
            self._invalidated_blocks += warm_info.get("invalidated_blocks", 0)
            registry.counter("incremental.warm_hits").inc()
            registry.counter("incremental.seeded_slots").inc(
                warm_info.get("seeded_slots", 0)
            )
            registry.counter("incremental.invalidated_blocks").inc(
                warm_info.get("invalidated_blocks", 0)
            )
            registry.counter("incremental.classifications_reused").inc(
                warm_info.get("classifications_reused", 0)
            )
        else:
            self._cold_fallbacks += 1
            registry.counter("incremental.cold_fallbacks").inc()
            registry.counter(f"incremental.fallback.{fallback}").inc()
        return warm

    def _run_incremental(
        self, request: AnalysisRequest, program: CompiledProgram | None
    ) -> tuple[Any, bool]:
        """Execute one snapshot-eligible request, warm-starting from its
        ``warm_from`` snapshot when possible and retaining a snapshot of
        the run either way.  Returns ``(result, ran_warm)``."""
        program = program or self.compile(request)
        warm_start, fallback = self._resolve_warm_start(request, program)
        result, analysis = execute_retaining(request, program, warm_start=warm_start)
        warm = self._note_warm_outcome(
            request, analysis, warm_start is not None, fallback
        )
        # compact=False: in the interactive edit loop the very next
        # request warm-starts from this snapshot, so a codec encode here
        # costs more per edit than the warm solve saves on small kernels.
        # The LRU store bounds how many live state graphs stay pinned.
        self._snapshots.put(
            snapshot_from_analysis(request, program, analysis, result, compact=False)
        )
        self._snapshots_stored += 1
        return result, warm

    def run_ephemeral(
        self,
        request: AnalysisRequest,
        program: CompiledProgram,
        retain: bool = False,
    ):
        """Resolve one snapshot-eligible request against an externally
        patched program, bypassing the result-cache tiers.

        The mitigation loop scores fence candidates through here:
        ``program`` is an IR-patched twin of what ``request.source``
        compiles to — verdict-identical, but its inserted fences carry
        line 0 while recompiling the source would shift later statements'
        lines.  Such *results* must never be stored under the request's
        keys, where a later genuine run would replay them; warm-starting
        from ``request.warm_from`` still applies, and content-keyed reuse
        (vcfg windows, per-block states) is line-insensitive by design, so
        the speedup survives the quarantine.

        ``retain=True`` additionally stores a *snapshot* of the run, so a
        later candidate can chain its warm start off this one (the greedy
        synthesiser's round-N placements extend round-(N-1)'s, and the
        nearest scored relative has the smallest diff).  Unlike the result
        quarantine this is sound: snapshot states are line-independent
        (bit-identical to a source-faithful recompile's), and the stored
        per-block line signatures are the IR twin's, so classification
        reuse — the one line-sensitive part — simply never triggers for a
        source-faithful descendant (signature mismatch forces recompute).
        """
        if not snapshot_eligible(request):
            raise ValueError(
                "ephemeral runs require a speculative request "
                f"(got {request.describe()})"
            )
        self._requests += 1
        with span("engine.run", kind=request.kind.value, ephemeral=True) as run_span:
            warm_start, fallback = self._resolve_warm_start(request, program)
            result, analysis = execute_retaining(
                request, program, warm_start=warm_start
            )
            warm = self._note_warm_outcome(
                request, analysis, warm_start is not None, fallback
            )
            if retain:
                # compact=False: chaining snapshots skip the codec pass and
                # carry their live states pre-decoded — the next candidate
                # reads them back within milliseconds, and an encode per
                # scored candidate would cost more than chaining saves.
                self._snapshots.put(
                    snapshot_from_analysis(
                        request, program, analysis, result, compact=False
                    )
                )
                self._snapshots_stored += 1
            run_span.set(warm=warm)
        return result

    def ensure_snapshot(self, request: AnalysisRequest):
        """Resolve ``request`` guaranteeing a retained snapshot afterwards.

        Interactive loops call this on the *unpatched* program before
        scoring edits against it: a plain cached :meth:`run` hit replays
        the stored result without re-running the solver, which would
        leave nothing to warm-start from.  Returns the result (the cached
        copy when both the snapshot and the cached result already exist).
        """
        if not snapshot_eligible(request):
            raise ValueError(
                "snapshots require a speculative request "
                f"(got {request.describe()})"
            )
        key = request.result_key()
        if key in self._snapshots:
            cached = self._lookup_result(request)
            if cached is not None:
                return _copy_result(cached, from_cache=True)
        self._requests += 1
        with span("engine.run", kind=request.kind.value, seed=True):
            program = self.compile(request)
            result, analysis = execute_retaining(request, program)
            self._store_result(request, result)
            self._snapshots.put(
                snapshot_from_analysis(request, program, analysis, result)
            )
            self._snapshots_stored += 1
        return _copy_result(result)

    def seed_program(self, request: AnalysisRequest, program: CompiledProgram) -> None:
        """Pre-populate the compile cache with an already-compiled program.

        ``program`` must be what :func:`compile_request` would produce for
        ``request`` — callers holding a compiled program use this so a
        subsequent batch over the same source skips the front end.
        """
        self._compile_cache.put(request.compile_key(), program)

    def run_batch(self, requests, max_workers: int | None = None) -> list:
        """Resolve many requests, optionally fanning out over a process
        pool; results come back in request order regardless of worker
        scheduling.  See :func:`repro.engine.batch.run_batch`."""
        from repro.engine.batch import run_batch

        return run_batch(self, requests, max_workers=max_workers)

    # ------------------------------------------------------------------
    # Introspection / maintenance
    # ------------------------------------------------------------------
    @property
    def stats(self) -> EngineStats:
        store = self._result_store
        return EngineStats(
            compile=self._compile_cache.stats.snapshot(),
            results=self._result_cache.stats.snapshot(),
            requests=self._requests,
            batches=self._batches,
            parallel_batches=self._parallel_batches,
            store=store.stats.snapshot() if store is not None else None,
            incremental=IncrementalStats(
                enabled=self.incremental_enabled,
                warm_hits=self._warm_hits,
                cold_fallbacks=self._cold_fallbacks,
                snapshots_stored=self._snapshots_stored,
                seeded_slots=self._seeded_slots,
                invalidated_blocks=self._invalidated_blocks,
                snapshots=self._snapshots.stats,
                retained=len(self._snapshots),
            ),
        )

    def clear_caches(self) -> None:
        """Drop the in-memory tiers.  An attached result store is *not*
        cleared — surviving process restarts is its entire purpose."""
        self._compile_cache.clear()
        self._result_cache.clear()
        self._snapshots.clear()

    # ------------------------------------------------------------------
    # Second-tier (persistent) result store
    # ------------------------------------------------------------------
    @property
    def result_store(self) -> Any:
        return self._result_store

    def attach_result_store(self, store: Any) -> None:
        """Attach a persistent second cache tier behind the result LRU.

        ``store`` is duck-typed (``get(key)`` / ``put(key, value)`` /
        ``stats``) so the engine layer stays independent of
        :mod:`repro.service`; in practice it is a
        :class:`repro.service.store.ResultStore`.  Results found in the
        store are promoted into the LRU; fresh results are written
        through to both tiers.
        """
        self._result_store = store

    # ------------------------------------------------------------------
    # Internal hooks used by the batch executor
    # ------------------------------------------------------------------
    def _lookup_result(self, request: AnalysisRequest):
        """Two-tier result lookup: the in-memory LRU first, then the
        attached store (tier-2 hits are promoted into the LRU).  Returns
        the cached instance, not a copy; None on miss in both tiers."""
        key = request.result_key()
        cached = self._result_cache.get(key)
        if cached is not None:
            return cached
        if self._result_store is not None:
            stored = self._result_store.get(key)
            if stored is not None:
                self._result_cache.put(key, stored)
                return stored
        return None

    def _cached_result(self, request: AnalysisRequest):
        """Result lookup through both tiers (counts hits/misses); None on
        miss."""
        cached = self._lookup_result(request)
        return _copy_result(cached, from_cache=True) if cached is not None else None

    def _store_result(self, request: AnalysisRequest, result) -> None:
        key = request.result_key()
        self._result_cache.put(key, result)
        if self._result_store is not None:
            try:
                with span("store.write", key=key[:16]):
                    self._result_store.put(key, result)
            except OSError:
                # Tier 2 is best-effort: a full or read-only disk must
                # not fail a request whose result is already in hand.
                pass

    def _note_batch(self, parallel: bool, requests: int = 0) -> None:
        """``requests`` is passed by batch paths that bypass run() (which
        counts requests itself)."""
        self._batches += 1
        if parallel:
            self._parallel_batches += 1
        self._requests += requests

    def _note_parallel_work(
        self, compiles: int, compile_reuses: int, duplicate_hits: int
    ) -> None:
        """Mirror sequential accounting for work done outside run():
        logical compile misses/reuses performed by pool workers, and
        result-cache hits for in-batch duplicate requests."""
        self._compile_cache.stats.misses += compiles
        self._compile_cache.stats.hits += compile_reuses
        self._result_cache.stats.hits += duplicate_hits


def _copy_result(result, from_cache: bool = False):
    """Shallow-copy a result's mutable containers (their elements — abstract
    states, classifications — are immutable values), marking cache replays."""
    return replace(
        result,
        entry_states=dict(result.entry_states),
        classifications=list(result.classifications),
        from_cache=from_cache or result.from_cache,
    )


# ----------------------------------------------------------------------
# Process-wide default engine
# ----------------------------------------------------------------------
_default_engine: AnalysisEngine | None = None
_default_engine_lock = threading.Lock()


def default_engine() -> AnalysisEngine:
    """The process-wide engine shared by the applications and table
    generators when no explicit engine is passed."""
    global _default_engine
    with _default_engine_lock:
        if _default_engine is None:
            _default_engine = AnalysisEngine()
        return _default_engine

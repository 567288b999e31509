"""Retained analysis snapshots: the substrate of incremental re-analysis.

An :class:`AnalysisSnapshot` captures everything a later run needs to
warm-start the sparse speculative fixpoint against an *edited* program:

* the per-block content fingerprints and successor lists of the analysed
  CFG (what :func:`repro.ir.cfg.diff_cfgs` maps the edit onto);
* the final fixpoint states — the per-block normal states and every
  speculative slot — codec-compressed via :mod:`repro.cache.codec`
  (lane bytes, far denser than retaining the live object graph);
* the vcfg skeleton (frozen scenarios) and the depth chooser's final
  per-color decisions;
* the run's classifications plus per-block *line* signatures, so
  classification of untouched blocks can be reused verbatim when the
  edit did not shift their source lines.

Snapshots live in a bounded :class:`SnapshotStore` LRU inside the
:class:`~repro.engine.engine.AnalysisEngine`, keyed by the producing
request's ``result_key()`` — the same lineage handle an edited request
passes back as its ``warm_from=``.  They are an in-process acceleration
structure only: never pickled, never persisted, and safe to drop at any
time (a missing or incompatible snapshot just means a cold run).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.codec import decode_state_map, encode_state_map
from repro.engine.cache import CacheStats, LRUCache
from repro.engine.request import AnalysisKind, AnalysisRequest
from repro.frontend import CompiledProgram
from repro.obs import span, stamp_for_request

#: Default capacity of the engine's snapshot LRU.  Snapshots are a few
#: KB each for the paper's kernels (codec-compressed states dominate);
#: the store is bounded regardless so a long-lived daemon cannot grow
#: without limit.
DEFAULT_SNAPSHOT_CACHE_SIZE = 64

#: Separator used to flatten ``(block, slot)`` composite keys into the
#: single string key space of :func:`repro.cache.codec.encode_state_map`.
#: Block names and slot kinds come from the lowering pipeline's
#: identifier alphabet and can never contain a unit separator.
_KEY_SEP = "\x1f"


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
    #: Per-block content fingerprints of the analysed CFG.
    block_fingerprints: dict[str, str]
    #: Per-block source-line signatures (classification reuse gate).
    block_line_signatures: dict[str, str]
    #: Successor lists of the analysed CFG (diff closure needs to know
    #: where removed/rewritten blocks used to deliver).
    old_successors: dict[str, tuple[str, ...]]
    #: The vcfg skeleton: frozen scenarios of the producing run.
    scenarios: tuple
    #: Final depth-chooser decisions: ``{color: active depth}``, locked colors.
    chooser_active_depths: dict[int, int]
    chooser_locked: frozenset[int]
    #: Codec blobs: the normal-state map and the flattened slot map.
    normal_blob: bytes
    slots_blob: bytes
    #: Widening count of the producing run.  Retained states are only the
    #: exact least fixpoint — the thing warm exactness rests on — when the
    #: producing run never widened.
    widenings: int
    #: Secret annotations of the analysed program.  Fixpoint states do not
    #: depend on them, but retained classifications do — and they are not
    #: part of the layout fingerprint, so they gate compatibility here.
    secret_symbols: frozenset[str] = frozenset()
    #: The producing run's classifications (for per-block reuse).
    classifications: tuple = ()

    @property
    def nbytes(self) -> int:
        """Approximate retained size (the codec blobs dominate)."""
        return len(self.normal_blob) + len(self.slots_blob)


def _flatten_slots(speculative: dict[str, dict]) -> dict[str, object]:
    flat: dict[str, object] = {}
    for block, slots in speculative.items():
        for slot, state in slots.items():
            parts = [block, slot[0], str(slot[1])]
            parts.extend(str(extra) for extra in slot[2:])
            flat[_KEY_SEP.join(parts)] = state
    return flat


def _unflatten_slots(flat: dict[str, object]) -> dict[str, dict]:
    speculative: dict[str, dict] = {}
    for key, state in flat.items():
        block, kind, color, *extra = key.split(_KEY_SEP)
        slot = (kind, int(color), *extra)
        speculative.setdefault(block, {})[slot] = state
    return speculative


def snapshot_from_analysis(
    request: AnalysisRequest,
    program: CompiledProgram,
    analysis,
    result,
    compact: bool = True,
) -> AnalysisSnapshot:
    """Build a snapshot from a completed sparse speculative solve.

    ``analysis`` is the :class:`~repro.analysis.multicolor.SpeculativeCacheAnalysis`
    instance that just ran (its ``last_fixpoint`` holds the full state
    maps the result object does not carry); ``result`` the
    :class:`~repro.analysis.result.CacheAnalysisResult` it produced.
    Warm runs may be snapshotted too: their states are bit-identical to
    the cold fixpoint by construction.

    ``compact=False`` skips the codec pass: the live state maps are
    attached directly as the pre-decoded warm data (they are immutable to
    the solver) and the blobs stay empty.  The mitigation loop retains a
    chaining snapshot per scored candidate this way — paying an encode it
    would decode milliseconds later, per candidate, would cost more than
    the chained warm start saves.  The trade is memory footprint:
    non-compact snapshots pin the live object graph until evicted, which
    is fine for an interactive loop's transient chain and wrong for a
    long-lived daemon's baseline store.
    """
    fixpoint = analysis.last_fixpoint
    if fixpoint is None:
        raise ValueError("analysis has no retained fixpoint to snapshot")
    cfg = program.cfg
    depths, locked = analysis.chooser.export_state()
    if compact:
        with span("snapshot.encode", program=cfg.name) as encode_span:
            normal_blob = encode_state_map(fixpoint.normal)
            slots_blob = encode_state_map(_flatten_slots(fixpoint.speculative))
            encode_span.set(bytes=len(normal_blob) + len(slots_blob))
    else:
        normal_blob = b""
        slots_blob = b""
    fingerprints = cfg.block_fingerprints()
    line_signatures = cfg.block_line_signatures()
    # Prime the program's content caches: the mitigation loop derives every
    # candidate's fingerprints from these by delta, and later warm runs
    # against the same resident program skip the full canonicalisation pass.
    cfg.attach_content_caches(fingerprints, line_signatures)
    snapshot = AnalysisSnapshot(
        result_key=request.result_key(),
        compile_key=request.compile_key(),
        entry=cfg.name,
        layout_fingerprint=program.layout_fingerprint(),
        cache_config=request.resolved_cache_config,
        speculation=request.resolved_speculation,
        block_fingerprints=fingerprints,
        block_line_signatures=line_signatures,
        old_successors=dict(cfg.graph().successors),
        scenarios=tuple(analysis.vcfg.scenarios),
        chooser_active_depths=depths,
        chooser_locked=locked,
        normal_blob=normal_blob,
        slots_blob=slots_blob,
        widenings=result.widenings,
        secret_symbols=frozenset(program.info.secret_symbols),
        classifications=tuple(result.classifications),
    )
    if not compact:
        from repro.analysis.multicolor import WarmStartData

        warm = WarmStartData(
            block_fingerprints=snapshot.block_fingerprints,
            old_successors=snapshot.old_successors,
            scenarios=snapshot.scenarios,
            normal=dict(fixpoint.normal),
            slots={name: dict(slots) for name, slots in fixpoint.speculative.items()},
            chooser_active_depths=snapshot.chooser_active_depths,
            chooser_locked=snapshot.chooser_locked,
            classifications=snapshot.classifications,
            block_line_signatures=snapshot.block_line_signatures,
        )
        object.__setattr__(snapshot, "_decoded_warm", warm)
    return snapshot


def warm_start_from_snapshot(snapshot: AnalysisSnapshot, lanes=None):
    """Decode a snapshot into the solver's :class:`WarmStartData`.

    The decoded value is memoised on the snapshot itself (and thus evicted
    with it): an interactive loop warm-starting many candidate edits from
    one baseline decodes the blobs once.  Sharing is safe because the
    solver treats states as immutable values — ``join``/``access`` return
    fresh states and seeded dict entries are only ever *replaced*.
    ``lanes`` (the warm program's lane table) lets the decoded states
    share that table object.
    """
    from repro.analysis.multicolor import WarmStartData

    memo = getattr(snapshot, "_decoded_warm", None)
    if memo is not None:
        return memo

    with span("snapshot.decode", bytes=snapshot.nbytes):
        normal = decode_state_map(snapshot.normal_blob, lanes)
        slots = _unflatten_slots(decode_state_map(snapshot.slots_blob, lanes))
    warm = WarmStartData(
        block_fingerprints=snapshot.block_fingerprints,
        old_successors=snapshot.old_successors,
        scenarios=snapshot.scenarios,
        normal=normal,
        slots=slots,
        chooser_active_depths=snapshot.chooser_active_depths,
        chooser_locked=snapshot.chooser_locked,
        classifications=snapshot.classifications,
        block_line_signatures=snapshot.block_line_signatures,
    )
    object.__setattr__(snapshot, "_decoded_warm", warm)
    return warm


def snapshot_compatible(
    snapshot: AnalysisSnapshot, request: AnalysisRequest, program: CompiledProgram
) -> str | None:
    """None when ``snapshot`` may seed a warm run of ``request`` over
    ``program``; otherwise the rejection reason (a cold-fallback label).

    The checks mirror what warm exactness rests on: same resolved
    analysis configuration, same entry function, a memory layout whose
    symbols/blocks the retained states actually denote, and a producing
    run that never widened (widened states sit above the least fixpoint,
    and a warm drain would never pull seeded blocks back down).
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

    The cache-free twin of :func:`repro.engine.engine.execute_request`
    for the speculative kind: identical result (same spans, same
    provenance stamping), but returns ``(result, analysis)`` so the
    caller can snapshot the final fixpoint states — which the plain
    result object deliberately does not carry.
    """
    from repro.analysis.multicolor import SpeculativeCacheAnalysis

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

    enabled: bool = False
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
            "enabled": self.enabled,
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
            f"incremental: {'on' if self.enabled else 'off'}, "
            f"{self.warm_hits} warm hits, {self.cold_fallbacks} cold fallbacks "
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

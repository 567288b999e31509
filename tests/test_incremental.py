"""Differential tests for incremental re-analysis.

The contract under test: a warm-started sparse fixpoint seeded from a
retained :class:`~repro.engine.incremental.AnalysisSnapshot` is
*bit-identical* to a cold solve of the edited program — same
classifications, same entry states, same aggregate counters — across
edit shapes, cache geometries and merge strategies.  Only observational
fields (iterations, analysis_time) may differ.

Also pinned here: the ``warm_from=`` lineage handle never perturbs
request identity or caching; every incompatibility degrades to a
counted cold fallback rather than an error; snapshot codec round-trips;
ephemeral (IR-patched) runs never pollute the result tiers; and the
IR-level fence patching used by the incremental mitigation loop is
verdict-equivalent to source-level patching.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.cache.config import CacheConfig
from repro.engine.engine import AnalysisEngine, execute_request
from repro.engine.incremental import (
    _flatten_slots,
    _unflatten_slots,
    execute_retaining,
    snapshot_compatible,
    snapshot_eligible,
    snapshot_from_analysis,
    warm_start_from_snapshot,
)
from repro.engine.request import AnalysisKind, AnalysisRequest
from repro.frontend import compile_source
from repro.ir.cfg import diff_cfgs
from repro.ir.memory import MemoryBlock
from repro.ir.printer import program_to_source
from repro.lang.parser import parse_program
from repro.mitigation.patch import apply_fence_points, apply_fence_points_ir
from repro.mitigation.synthesis import synthesize_mitigation
from repro.service.wire import WireError, request_from_wire, request_to_wire
from repro.speculation.config import SpeculationConfig
from repro.speculation.merge import MergeStrategy

# ----------------------------------------------------------------------
# Edited-program pairs
# ----------------------------------------------------------------------
BASE_SOURCE = """
char table[1024];
char cnd[256];
secret int key;
int k;
int main() {
    int x;
    x = 0;
    if (cnd[0] > 0) {
        x = x + table[64];
    }
    if (k > 0) {
        x = x + table[128];
    }
    x = x + table[key];
    return x;
}
"""

#: Each edit maps the base source to an edited source; the warm run
#: re-analyses the edited program seeded from the base snapshot.
EDITS = {
    # A fence inserted into a branch arm (what the mitigation loop does).
    "fence_insert": BASE_SOURCE.replace(
        "x = x + table[64];", "fence;\n        x = x + table[64];"
    ),
    # A fence *removed* again: the reverse direction of the edit loop.
    # (Realised by warm-starting the base from the fenced variant below.)
    "condition_change": BASE_SOURCE.replace("cnd[0]", "cnd[1]"),
    # New accesses appear in an existing block.
    "statement_add": BASE_SOURCE.replace(
        "x = x + table[128];",
        "x = x + table[128];\n        x = x + table[192];",
    ),
    # A whole conditional disappears: blocks removed, successors rewired.
    "branch_delete": BASE_SOURCE.replace(
        "    if (k > 0) {\n        x = x + table[128];\n    }\n", ""
    ),
}

GEOMETRIES = [
    CacheConfig(num_lines=4, line_size=64),
    CacheConfig(num_lines=8, line_size=64, associativity=2, policy="fifo"),
]


def _request(source: str, geometry: CacheConfig, **kwargs) -> AnalysisRequest:
    return AnalysisRequest.speculative(source, cache_config=geometry, **kwargs)


def assert_semantically_identical(warm, cold) -> None:
    """Bit-identity on everything except the observational fields."""
    assert warm.classifications == cold.classifications
    assert warm.entry_states == cold.entry_states
    assert warm.hit_count == cold.hit_count
    assert warm.miss_count == cold.miss_count
    assert warm.speculative_miss_count == cold.speculative_miss_count
    assert warm.leak_site_count == cold.leak_site_count
    assert warm.widenings == cold.widenings


def warm_vs_cold(base_source: str, edited_source: str, geometry, **kwargs):
    """Run the edit warm (seeded from the base snapshot) and cold
    (cache-free), returning ``(warm, cold, engine)``."""
    engine = AnalysisEngine(incremental=True)
    base = _request(base_source, geometry, **kwargs)
    engine.ensure_snapshot(base)
    edited = _request(
        edited_source, geometry, warm_from=base.result_key(), **kwargs
    )
    warm = engine.run(edited)
    cold = execute_request(edited)
    return warm, cold, engine


# ----------------------------------------------------------------------
# Warm-vs-cold differential matrix
# ----------------------------------------------------------------------
class TestWarmColdIdentity:
    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=["paper-lru", "fifo-2way"])
    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_edit_matrix(self, edit, geometry):
        warm, cold, engine = warm_vs_cold(BASE_SOURCE, EDITS[edit], geometry)
        assert engine.stats.incremental.warm_hits == 1, (
            f"edit {edit!r} fell back cold"
        )
        assert_semantically_identical(warm, cold)

    @pytest.mark.parametrize("strategy", list(MergeStrategy))
    def test_merge_strategies(self, strategy):
        speculation = SpeculationConfig(
            depth_miss=64, depth_hit=16, merge_strategy=strategy
        )
        warm, cold, engine = warm_vs_cold(
            BASE_SOURCE,
            EDITS["fence_insert"],
            GEOMETRIES[0],
            speculation=speculation,
        )
        assert engine.stats.incremental.warm_hits == 1
        assert_semantically_identical(warm, cold)

    def test_fence_remove(self):
        """The reverse edit: base warm-started from the fenced variant."""
        warm, cold, engine = warm_vs_cold(
            EDITS["fence_insert"], BASE_SOURCE, GEOMETRIES[0]
        )
        assert engine.stats.incremental.warm_hits == 1
        assert_semantically_identical(warm, cold)

    def test_noop_reemit(self):
        """A printer round-trip changes the text (and the line numbers)
        but not the content fingerprints: the warm run must still match
        the re-emitted program's own cold analysis."""
        reemitted = program_to_source(parse_program(BASE_SOURCE))
        assert reemitted != BASE_SOURCE
        warm, cold, engine = warm_vs_cold(BASE_SOURCE, reemitted, GEOMETRIES[0])
        assert engine.stats.incremental.warm_hits == 1
        assert_semantically_identical(warm, cold)
        base_cfg = compile_source(BASE_SOURCE).cfg
        reemitted_cfg = compile_source(reemitted).cfg
        assert diff_cfgs(base_cfg, reemitted_cfg).is_identical


# ----------------------------------------------------------------------
# The warm_from lineage handle
# ----------------------------------------------------------------------
class TestWarmFromHandle:
    def test_never_affects_identity_or_keys(self):
        plain = AnalysisRequest.speculative(BASE_SOURCE)
        hinted = replace(plain, warm_from="0" * 64)
        assert plain == hinted
        assert plain.result_key() == hinted.result_key()
        assert plain.compile_key() == hinted.compile_key()

    def test_baseline_classmethod_survives(self):
        """``baseline`` is a constructor, not the lineage field (the
        field is ``warm_from``); both must coexist."""
        request = AnalysisRequest.baseline(BASE_SOURCE)
        assert request.kind is AnalysisKind.BASELINE
        assert request.warm_from is None

    def test_wire_round_trip(self):
        request = replace(
            AnalysisRequest.speculative(BASE_SOURCE), warm_from="ab" * 32
        )
        decoded = request_from_wire(request_to_wire(request))
        assert decoded.warm_from == request.warm_from
        assert decoded.result_key() == request.result_key()

    def test_wire_legacy_and_malformed(self):
        wire = request_to_wire(AnalysisRequest.speculative(BASE_SOURCE))
        del wire["warm_from"]
        assert request_from_wire(wire).warm_from is None
        wire["warm_from"] = 7
        with pytest.raises(WireError, match="warm_from"):
            request_from_wire(wire)

    def test_cached_result_ignores_handle(self):
        """A result cached under the plain request replays for the hinted
        twin (same key), and vice versa — the handle is execution advice,
        not identity."""
        engine = AnalysisEngine(incremental=True)
        request = AnalysisRequest.speculative(BASE_SOURCE)
        engine.ensure_snapshot(request)
        hinted = replace(request, warm_from="not-a-real-key")
        replayed = engine.run(hinted)
        assert replayed.from_cache
        # The replay never attempted (and never counted) a warm start.
        assert engine.stats.incremental.cold_fallbacks == 0


# ----------------------------------------------------------------------
# Fallbacks: every incompatibility degrades to a counted cold run
# ----------------------------------------------------------------------
class TestColdFallbacks:
    def _warm_attempt(self, engine, base, edited_source, **overrides):
        edited = replace(
            _request(edited_source, GEOMETRIES[0]),
            warm_from=base.result_key(),
            **overrides,
        )
        result = engine.run(edited)
        cold = execute_request(replace(edited, warm_from=None))
        assert_semantically_identical(result, cold)
        return engine.stats.incremental

    def test_missing_snapshot(self):
        engine = AnalysisEngine(incremental=True)
        request = replace(
            _request(EDITS["fence_insert"], GEOMETRIES[0]), warm_from="9" * 64
        )
        result = engine.run(request)
        assert_semantically_identical(result, execute_request(request))
        stats = engine.stats.incremental
        assert stats.cold_fallbacks == 1
        assert stats.warm_hits == 0

    def test_geometry_mismatch(self):
        engine = AnalysisEngine(incremental=True)
        base = _request(BASE_SOURCE, GEOMETRIES[0])
        engine.ensure_snapshot(base)
        edited = replace(
            _request(EDITS["fence_insert"], GEOMETRIES[1]),
            warm_from=base.result_key(),
        )
        result = engine.run(edited)
        assert_semantically_identical(result, execute_request(edited))
        assert engine.stats.incremental.cold_fallbacks == 1

    def test_secret_symbols_gate(self):
        """Fixpoint states do not depend on secret annotations but the
        retained classifications do: flipping an annotation must reject
        the snapshot, not silently reuse leak verdicts."""
        engine = AnalysisEngine(incremental=True)
        base = _request(BASE_SOURCE, GEOMETRIES[0])
        engine.ensure_snapshot(base)
        desecreted = BASE_SOURCE.replace("secret int key;", "int key;")
        stats = self._warm_attempt(engine, base, desecreted)
        assert stats.cold_fallbacks == 1
        assert stats.warm_hits == 0

    def test_lru_eviction_means_cold(self):
        engine = AnalysisEngine(incremental=True, snapshot_cache_size=1)
        base = _request(BASE_SOURCE, GEOMETRIES[0])
        engine.ensure_snapshot(base)
        evictor = _request(EDITS["condition_change"], GEOMETRIES[0])
        engine.ensure_snapshot(evictor)  # capacity 1: evicts the base
        assert engine.stats.incremental.retained == 1
        stats = self._warm_attempt(engine, base, EDITS["fence_insert"])
        assert stats.cold_fallbacks == 1

    def test_compatibility_reasons(self):
        program = compile_source(BASE_SOURCE)
        request = _request(BASE_SOURCE, GEOMETRIES[0])
        result, analysis = execute_retaining(request, program)
        snapshot = snapshot_from_analysis(request, program, analysis, result)
        assert snapshot_compatible(snapshot, request, program) is None
        other_geometry = _request(BASE_SOURCE, GEOMETRIES[1])
        assert (
            snapshot_compatible(snapshot, other_geometry, program)
            == "cache_config_mismatch"
        )
        widened = replace(snapshot, widenings=3)
        assert snapshot_compatible(widened, request, program) == "baseline_widened"

    def test_eligibility(self):
        assert snapshot_eligible(AnalysisRequest.speculative(BASE_SOURCE))
        assert not snapshot_eligible(AnalysisRequest.baseline(BASE_SOURCE))

    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=["paper-lru", "fifo-2way"])
    def test_loop_that_survives_unrolling_falls_back_cold(self, geometry):
        """A breaking loop keeps a widening point, and widening timing
        depends on visit counts, so the warm plan declines with the
        ``widening`` label and the run is the cold solve."""
        from repro.obs import metrics

        base_source = BASE_SOURCE.replace(
            "    x = 0;\n",
            "    x = 0;\n"
            "    for (k = 0; k < 8; k = k + 1) {\n"
            "        x = x + table[256];\n"
            "        if (cnd[k] > 0) break;\n"
            "    }\n",
        )
        edited_source = base_source.replace(
            "x = x + table[128];", "x = x + table[128];\n        x = x + table[192];"
        )
        label = metrics().counter("incremental.fallback.widening")
        before = label.value
        warm, cold, engine = warm_vs_cold(base_source, edited_source, geometry)
        assert engine.stats.incremental.warm_hits == 0
        assert engine.stats.incremental.cold_fallbacks == 1
        assert label.value == before + 1
        assert_semantically_identical(warm, cold)
        assert warm.iterations == cold.iterations


# ----------------------------------------------------------------------
# Snapshot codec
# ----------------------------------------------------------------------
class TestSnapshotCodec:
    def _retained(self, compact: bool):
        program = compile_source(BASE_SOURCE)
        request = _request(BASE_SOURCE, GEOMETRIES[0])
        result, analysis = execute_retaining(request, program)
        snapshot = snapshot_from_analysis(
            request, program, analysis, result, compact=compact
        )
        return snapshot, analysis.last_fixpoint

    @staticmethod
    def _nonempty(slots):
        # The flat encoding has no way to say "this block has zero slots",
        # so empty per-block dicts vanish in the round trip; a missing
        # block and an empty one mean the same thing to the warm planner.
        return {name: per for name, per in slots.items() if per}

    def test_blob_round_trip(self):
        snapshot, fixpoint = self._retained(compact=True)
        assert snapshot.nbytes > 0
        warm = warm_start_from_snapshot(snapshot)
        assert warm.normal == fixpoint.normal
        assert warm.slots == self._nonempty(fixpoint.speculative)
        # The decode is memoised on the snapshot (same object back).
        assert warm_start_from_snapshot(snapshot) is warm

    def test_flatten_unflatten_inverse(self):
        _, fixpoint = self._retained(compact=True)
        assert fixpoint.speculative, "test program produced no slots"
        flat = _flatten_slots(fixpoint.speculative)
        assert _unflatten_slots(flat) == self._nonempty(fixpoint.speculative)

    def test_non_compact_skips_encode(self):
        """Chaining snapshots carry their states pre-decoded with empty
        blobs; the decoded view must equal the compact round-trip's."""
        snapshot, fixpoint = self._retained(compact=False)
        assert snapshot.nbytes == 0
        warm = warm_start_from_snapshot(snapshot)
        assert warm.normal == fixpoint.normal
        assert warm.slots == fixpoint.speculative


# ----------------------------------------------------------------------
# Ephemeral runs: the IR-patch quarantine
# ----------------------------------------------------------------------
LEAKY_POINTS_SOURCE = BASE_SOURCE  # branch arms exist at lines 10 and 13


def _first_arm_points(source: str):
    from repro.mitigation.patch import enumerate_fence_points

    return (enumerate_fence_points(parse_program(source))[0],)


class TestEphemeralQuarantine:
    def test_results_never_enter_the_cache(self):
        engine = AnalysisEngine(incremental=True)
        base = _request(BASE_SOURCE, GEOMETRIES[0])
        engine.ensure_snapshot(base)
        program = engine.compile(base)
        points = _first_arm_points(BASE_SOURCE)
        patched_ast = apply_fence_points(parse_program(BASE_SOURCE), points)
        source = program_to_source(patched_ast)
        patched_program = apply_fence_points_ir(program, points, source)
        assert patched_program is not None
        patched_request = replace(
            base, source=source, warm_from=base.result_key()
        )
        ephemeral = engine.run_ephemeral(patched_request, patched_program)
        # A later genuine run of the same request must recompute from the
        # *source-faithful* program, not replay the IR twin's result.
        genuine = engine.run(patched_request)
        assert not genuine.from_cache
        # Verdicts agree even though the line-carrying fields may not.
        assert ephemeral.leak_site_count == genuine.leak_site_count
        assert ephemeral.hit_count == genuine.hit_count
        assert ephemeral.miss_count == genuine.miss_count

    def test_retention_enables_chaining(self):
        engine = AnalysisEngine(incremental=True)
        base = _request(BASE_SOURCE, GEOMETRIES[0])
        engine.ensure_snapshot(base)
        before = engine.stats.incremental.retained
        program = engine.compile(base)
        points = _first_arm_points(BASE_SOURCE)
        patched_ast = apply_fence_points(parse_program(BASE_SOURCE), points)
        source = program_to_source(patched_ast)
        patched_program = apply_fence_points_ir(program, points, source)
        patched_request = replace(
            base, source=source, warm_from=base.result_key()
        )
        engine.run_ephemeral(patched_request, patched_program, retain=True)
        assert engine.stats.incremental.retained == before + 1

    def test_rejects_ineligible_requests(self):
        engine = AnalysisEngine(incremental=True)
        request = AnalysisRequest.baseline(BASE_SOURCE)
        with pytest.raises(ValueError, match="speculative"):
            engine.run_ephemeral(request, compile_source(BASE_SOURCE))


# ----------------------------------------------------------------------
# IR-level patching equals source-level patching (real kernel)
# ----------------------------------------------------------------------
class TestIRPatchEquivalence:
    def test_des_candidates(self):
        from repro.bench.tables import table7_client_request
        from repro.mitigation.synthesis import _candidate_groups

        request = replace(
            table7_client_request("des"), kind=AnalysisKind.SPECULATIVE
        )
        engine = AnalysisEngine(incremental=True)
        engine.ensure_snapshot(request)
        program = engine.compile(request)
        program_ast = parse_program(request.source)
        groups = _candidate_groups(program, request)
        assert groups, "no candidates for des"
        for points in groups:
            patched_ast = apply_fence_points(program_ast, points)
            source = program_to_source(patched_ast)
            patched_program = apply_fence_points_ir(program, points, source)
            if patched_program is None:
                continue  # no IR image (caller takes the source path)
            patched_request = replace(
                request, source=source, warm_from=request.result_key()
            )
            warm = engine.run_ephemeral(patched_request, patched_program)
            cold = execute_request(patched_request)
            assert warm.leak_site_count == cold.leak_site_count, points
            assert warm.hit_count == cold.hit_count, points
            assert warm.miss_count == cold.miss_count, points
            assert warm.speculative_miss_count == cold.speculative_miss_count, (
                points
            )


# ----------------------------------------------------------------------
# Incremental mitigation synthesis: identical placements, fewer cycles
# ----------------------------------------------------------------------
class TestIncrementalSynthesis:
    @pytest.mark.parametrize("kernel", ["des", "encoder"])
    def test_verdict_equivalence(self, kernel):
        from repro.bench.tables import table7_client_request

        request = table7_client_request(kernel)
        cold = synthesize_mitigation(
            request, engine=AnalysisEngine(incremental=False)
        )
        warm = synthesize_mitigation(
            request, engine=AnalysisEngine(incremental=True)
        )
        assert not cold.incremental and warm.incremental
        assert cold.chosen == warm.chosen
        assert cold.leak_sites_before == warm.leak_sites_before
        cold_sel, warm_sel = cold.selected(), warm.selected()
        assert (cold_sel is None) == (warm_sel is None)
        if cold_sel is not None:
            assert cold_sel.points == warm_sel.points
            assert cold_sel.leak_sites_after == warm_sel.leak_sites_after
            assert cold_sel.verified == warm_sel.verified
            assert cold_sel.wcet_cycles == warm_sel.wcet_cycles
            assert cold_sel.patched_source == warm_sel.patched_source


# ----------------------------------------------------------------------
# MemoryBlock fast dunders stay faithful to the dataclass semantics
# ----------------------------------------------------------------------
class TestMemoryBlockDunders:
    def test_equality_and_hash(self):
        a, b = MemoryBlock("table", 3), MemoryBlock("table", 3)
        assert a == b and hash(a) == hash(b)
        assert a != MemoryBlock("table", 4)
        assert a != MemoryBlock("elbat", 3)
        assert a != "table"
        assert len({a, b, MemoryBlock("table", 4)}) == 2

    def test_ordering_preserved(self):
        blocks = [MemoryBlock("b", 1), MemoryBlock("a", 2), MemoryBlock("a", 1)]
        assert sorted(blocks) == [
            MemoryBlock("a", 1),
            MemoryBlock("a", 2),
            MemoryBlock("b", 1),
        ]

    def test_pickle_carries_fields_only(self):
        """A pickled block rebuilds equal, with an equal hash."""
        block = MemoryBlock("sbox", -2)
        clone = pickle.loads(pickle.dumps(block))
        assert clone == block and hash(clone) == hash(block)
        assert clone.is_placeholder

"""Differential tests for incremental re-analysis.

The contract under test: a warm-started sparse fixpoint seeded from a
retained :class:`~repro.engine.incremental.AnalysisSnapshot` is
*bit-identical* to a cold solve of the edited program — same
classifications, same entry states, same aggregate counters — across
edit shapes, cache geometries and merge strategies.  Only observational
fields (iterations, analysis_time) may differ.

Also pinned here: every engine is incremental, with no knob to turn it
off; snapshots fingerprint their CFG on first use, once, and never
describe a CFG edited after its run; the ``warm_from=`` lineage handle
never perturbs request identity or caching; every incompatibility
degrades to a counted cold fallback rather than an error; ephemeral
(IR-patched) runs never pollute the result tiers; and the IR-level fence
patching used by the mitigation loop is verdict-equivalent to
source-level patching.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.analysis.multicolor import SpeculativeCacheAnalysis
from repro.cache.config import CacheConfig
from repro.engine.engine import AnalysisEngine, execute_request
from repro.engine.incremental import (
    execute_retaining,
    snapshot_compatible,
    snapshot_eligible,
    snapshot_from_analysis,
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

import classify_reference
from cold_reference import ColdScoringEngine

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
    engine = AnalysisEngine()
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


#: Four diamonds in a row; short windows keep each branch's rollbacks
#: local, so an edit at the end leaves the first diamond unaffected.
FOUR_DIAMONDS_SOURCE = """
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
    x = x + table[key];
    if (k > 0) {
        x = x + table[128];
    }
    x = x + table[192];
    if (cnd[64] > 0) {
        x = x + table[256];
    }
    x = x + table[320];
    if (cnd[128] > 0) {
        x = x + table[448];
    }
    x = x + table[384];
    return x;
}
"""


class TestWarmClassificationSources:
    def test_line_shift_outside_the_edit_refuses_reuse(self):
        """An edit at the end plus a blank line in the first branch arm:
        the drain records the affected blocks and the frontier, the entry
        block reuses the predecessor's classifications, and the arm below
        the blank line is unaffected but carries shifted lines, so the
        reuse gate refuses it and it is walked.  The result equals the
        cold run's, element by element."""
        geometry = GEOMETRIES[0]
        speculation = SpeculationConfig(depth_miss=8, depth_hit=4)
        edited_source = FOUR_DIAMONDS_SOURCE.replace(
            "    if (cnd[0] > 0) {\n", "    if (cnd[0] > 0) {\n\n"
        ).replace("table[384]", "table[512]")
        base = _request(FOUR_DIAMONDS_SOURCE, geometry, speculation=speculation)
        base_program = compile_source(FOUR_DIAMONDS_SOURCE)
        result, analysis = execute_retaining(base, base_program)
        warm_start = snapshot_from_analysis(base, base_program, analysis, result).warm

        program = compile_source(edited_source)
        warm = SpeculativeCacheAnalysis(
            program, cache_config=geometry, speculation=speculation, warm_start=warm_start
        )
        warm_result = warm.run()
        cold_result = SpeculativeCacheAnalysis(
            program, cache_config=geometry, speculation=speculation
        ).run()

        assert warm.warm_info["used"]
        old_lines = warm_start.block_line_signatures
        new_lines = program.cfg.block_line_signatures()
        affected = warm._warm_plan.affected
        shifted = {
            block
            for block, lines in new_lines.items()
            if block in old_lines and old_lines[block] != lines
        }
        assert affected, "the edit must leave blocks for the drain to record"
        assert shifted - affected, "the blank line must shift an unaffected block"
        assert warm.warm_info["classifications_reused"] > 0
        classify_reference.assert_same_classifications(
            warm_result.classifications, cold_result.classifications
        )
        assert warm_result.entry_states == cold_result.entry_states


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
        engine = AnalysisEngine()
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
        engine = AnalysisEngine()
        request = replace(
            _request(EDITS["fence_insert"], GEOMETRIES[0]), warm_from="9" * 64
        )
        result = engine.run(request)
        assert_semantically_identical(result, execute_request(request))
        stats = engine.stats.incremental
        assert stats.cold_fallbacks == 1
        assert stats.warm_hits == 0

    def test_geometry_mismatch(self):
        engine = AnalysisEngine()
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
        engine = AnalysisEngine()
        base = _request(BASE_SOURCE, GEOMETRIES[0])
        engine.ensure_snapshot(base)
        desecreted = BASE_SOURCE.replace("secret int key;", "int key;")
        stats = self._warm_attempt(engine, base, desecreted)
        assert stats.cold_fallbacks == 1
        assert stats.warm_hits == 0

    def test_lru_eviction_means_cold(self):
        engine = AnalysisEngine(snapshot_cache_size=1)
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
# Ephemeral runs: the IR-patch quarantine
# ----------------------------------------------------------------------
LEAKY_POINTS_SOURCE = BASE_SOURCE  # branch arms exist at lines 10 and 13


def _first_arm_points(source: str):
    from repro.mitigation.patch import enumerate_fence_points

    return (enumerate_fence_points(parse_program(source))[0],)


class TestEphemeralQuarantine:
    def test_results_never_enter_the_cache(self):
        engine = AnalysisEngine()
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
        engine = AnalysisEngine()
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
        engine = AnalysisEngine()
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
        engine = AnalysisEngine()
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
    @pytest.mark.parametrize("kernel", ["des", "encoder", "hash", "chacha20", "ocb"])
    def test_verdict_equivalence(self, kernel):
        """Warm-started candidate scoring chooses what cold scoring of
        every patched source chooses."""
        from repro.bench.tables import table7_client_request

        request = table7_client_request(kernel)
        cold_engine, warm_engine = ColdScoringEngine(), AnalysisEngine()
        cold = synthesize_mitigation(request, engine=cold_engine)
        warm = synthesize_mitigation(request, engine=warm_engine)
        assert cold_engine.stats.incremental.warm_hits == 0
        assert warm_engine.stats.incremental.warm_hits > 0
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

    @pytest.mark.parametrize("kernel", ["des", "encoder"])
    def test_fence_every_branch_equivalence(self, kernel):
        """The yardstick placement (``optimize=False``) scores the same
        warm as cold; its unrolled-loop arms take the source path."""
        from repro.bench.tables import table7_client_request

        request = table7_client_request(kernel)
        cold = synthesize_mitigation(
            request, engine=ColdScoringEngine(), optimize=False
        ).baseline
        engine = AnalysisEngine()
        warm = synthesize_mitigation(request, engine=engine, optimize=False).baseline
        assert engine.stats.incremental.warm_hits == 1
        assert engine.stats.incremental.cold_fallbacks == 0
        assert (cold.points, cold.source_fences, cold.ir_fences) == (
            warm.points,
            warm.source_fences,
            warm.ir_fences,
        )
        assert cold.leak_sites_after == warm.leak_sites_after == 0
        assert cold.wcet_cycles == warm.wcet_cycles
        assert cold.patched_source == warm.patched_source


# ----------------------------------------------------------------------
# One engine: incremental re-analysis has no off switch
# ----------------------------------------------------------------------
def _warm_edit(engine: AnalysisEngine):
    base = _request(BASE_SOURCE, GEOMETRIES[0])
    engine.run(base)
    edited = _request(
        EDITS["statement_add"], GEOMETRIES[0], warm_from=base.result_key()
    )
    return engine.run(edited), execute_request(edited)


class TestAlwaysIncremental:
    def test_engine_takes_no_incremental_argument(self):
        with pytest.raises(TypeError, match="incremental"):
            AnalysisEngine(incremental=True)

    def test_serve_has_no_incremental_flag(self):
        from repro.service.cli import build_parser

        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", "--incremental"])
        assert excinfo.value.code == 2

    def test_default_engine_warm_starts(self, monkeypatch):
        monkeypatch.delenv("REPRO_INCREMENTAL", raising=False)
        engine = AnalysisEngine()
        warm, cold = _warm_edit(engine)
        assert engine.stats.incremental.warm_hits == 1
        assert_semantically_identical(warm, cold)

    def test_removed_environment_variable_does_not_disable_warm_starts(
        self, monkeypatch
    ):
        monkeypatch.setenv("REPRO_INCREMENTAL", "0")
        engine = AnalysisEngine()
        warm, cold = _warm_edit(engine)
        assert engine.stats.incremental.warm_hits == 1
        assert engine.stats.incremental.cold_fallbacks == 0
        assert_semantically_identical(warm, cold)

    def test_baseline_requests_retain_no_snapshot(self):
        engine = AnalysisEngine()
        engine.run(AnalysisRequest.baseline(BASE_SOURCE))
        assert engine.stats.incremental.retained == 0

    def test_wire_forms_carry_no_switch(self):
        from repro.engine.incremental import IncrementalStats
        from repro.mitigation.synthesis import MitigationResult

        assert "enabled" not in IncrementalStats().to_wire()
        assert " on," not in str(IncrementalStats())
        wire = MitigationResult(name="p", leak_sites_before=0, secret_sites=0).to_wire()
        assert "incremental" not in wire

    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=["paper-lru", "fifo-2way"])
    def test_warm_runs_seed_the_next_edit(self, geometry):
        """A warm run's snapshot seeds the next edit of an edit chain."""
        engine = AnalysisEngine()
        previous = _request(BASE_SOURCE, geometry)
        engine.run(previous)
        chain = (
            EDITS["fence_insert"],
            EDITS["fence_insert"].replace("cnd[0]", "cnd[1]"),
            EDITS["condition_change"],
        )
        for source in chain:
            edited = _request(source, geometry, warm_from=previous.result_key())
            assert_semantically_identical(engine.run(edited), execute_request(edited))
            previous = edited
        assert engine.stats.incremental.warm_hits == len(chain)

    def test_batches_answer_warm_from_snapshots_like_cold_runs(self):
        """A batch is a loop over ``run``: its ``warm_from`` requests
        start from the base's snapshot and answer what cold runs do."""
        engine = AnalysisEngine()
        base = _request(BASE_SOURCE, GEOMETRIES[0])
        batch = [
            _request(EDITS[edit], GEOMETRIES[0], warm_from=base.result_key())
            for edit in ("fence_insert", "statement_add")
        ]
        engine.run(base)
        results = engine.run_batch(batch)
        assert engine.stats.incremental.warm_hits == len(batch)
        assert engine.stats.incremental.cold_fallbacks == 0
        for warm, request in zip(results, batch):
            assert_semantically_identical(warm, execute_request(request))


# ----------------------------------------------------------------------
# Fingerprints on first use, and never of the wrong CFG
# ----------------------------------------------------------------------
@pytest.fixture
def hashed_blocks(monkeypatch):
    """A list that records every block :func:`block_fingerprint` hashes."""
    from repro.ir import cfg as cfg_module

    hashed: list[str] = []
    original = cfg_module.block_fingerprint

    def counting(block):
        hashed.append(block.name)
        return original(block)

    monkeypatch.setattr(cfg_module, "block_fingerprint", counting)
    return hashed


def _add_block(cfg, mark: int):
    from repro.ir.basicblock import BasicBlock
    from repro.ir.instructions import Return

    cfg.add_block(BasicBlock(name=f"orphan{mark}", terminator=Return(line=mark)))


def _assign_instructions(cfg, mark: int):
    from repro.ir.instructions import Fence

    block = cfg.blocks[cfg.entry]
    block.instructions = [Fence(line=mark), *block.instructions]


def _append(cfg, mark: int):
    from repro.ir.instructions import Fence

    cfg.blocks[cfg.entry].append(Fence(line=mark))


def _assign_terminator(cfg, mark: int):
    from repro.ir.instructions import Return

    cfg.blocks[cfg.entry].terminator = Return(line=mark)


class TestContentCaches:
    @pytest.mark.parametrize(
        "edit", [_add_block, _assign_instructions, _append, _assign_terminator]
    )
    def test_edits_drop_computed_and_attached_maps(self, edit):
        """Content maps live with the graph index: an edit the index sees
        drops them, whether computed or attached by a trusted producer."""
        from repro.ir.cfg import block_fingerprint, block_line_signature

        def fresh(cfg):
            return (
                {name: block_fingerprint(block) for name, block in cfg.blocks.items()},
                {name: block_line_signature(block) for name, block in cfg.blocks.items()},
            )

        cfg = compile_source(BASE_SOURCE).cfg
        before = cfg.content_fingerprint()
        edit(cfg, 1)
        assert (cfg.block_fingerprints(), cfg.block_line_signatures()) == fresh(cfg)
        assert cfg.content_fingerprint() != before
        stale = {name: "stale" for name in cfg.blocks}
        cfg.attach_content_caches(stale, stale)
        assert cfg.block_fingerprints() == stale
        edit(cfg, 2)
        assert (cfg.block_fingerprints(), cfg.block_line_signatures()) == fresh(cfg)


class TestLazyFingerprints:
    def test_cold_run_hashes_no_block(self, hashed_blocks):
        engine = AnalysisEngine()
        engine.run(_request(BASE_SOURCE, GEOMETRIES[0]))
        assert engine.stats.incremental.retained == 1
        assert hashed_blocks == []

    def test_first_warm_start_hashes_each_snapshot_once(self, hashed_blocks):
        engine = AnalysisEngine()
        base = _request(BASE_SOURCE, GEOMETRIES[0])
        engine.run(base)
        base_blocks = len(engine.compile(base).cfg.blocks)
        for number, edit in enumerate(("statement_add", "condition_change")):
            hashed_blocks.clear()
            edited = _request(EDITS[edit], GEOMETRIES[0], warm_from=base.result_key())
            engine.run(edited)
            edited_blocks = len(engine.compile(edited).cfg.blocks)
            # The edited program is hashed once; the snapshot only the
            # first time anything diffs against it.
            assert len(hashed_blocks) == edited_blocks + (base_blocks if number == 0 else 0)
        assert engine.stats.incremental.warm_hits == 2

    def test_chained_candidate_hashes_only_its_patched_blocks(self, hashed_blocks):
        from repro.mitigation.patch import enumerate_fence_points

        engine = AnalysisEngine()
        base = _request(BASE_SOURCE, GEOMETRIES[0])
        engine.run(base)
        program = engine.compile(base)
        program_ast = parse_program(BASE_SOURCE)
        first, second = enumerate_fence_points(program_ast)[:2]
        warm_from = base.result_key()
        for number, points in enumerate(((first,), (first, second))):
            hashed_blocks.clear()
            source = program_to_source(apply_fence_points(program_ast, points))
            patched = apply_fence_points_ir(program, points, source)
            request = replace(base, source=source, warm_from=warm_from)
            engine.run_ephemeral(request, patched, retain=True)
            patched_blocks = {
                name
                for name, block in patched.cfg.blocks.items()
                if block.instructions != program.cfg.blocks[name].instructions
            }
            # The first candidate hashes the unpatched program once (the
            # base every candidate derives from); each candidate hashes
            # only the blocks it patched, and its warm start none.
            base_blocks = set(program.cfg.blocks) if number == 0 else set()
            assert sorted(hashed_blocks) == sorted([*base_blocks, *patched_blocks])
            warm_from = request.result_key()
        assert engine.stats.incremental.warm_hits == 2

    def _fence_like_the_edit(self, program, edited_source):
        """Edit ``program``'s CFG in place into the fenced edit's CFG."""
        fenced = compile_source(edited_source).cfg
        cfg = program.cfg
        assert set(fenced.blocks) == set(cfg.blocks)
        for name, block in fenced.blocks.items():
            cfg.blocks[name].instructions = list(block.instructions)
            cfg.blocks[name].terminator = block.terminator

    def test_cfg_edited_after_its_snapshot_runs_cold(self):
        """The snapshot's states describe the CFG as analysed.  Hashing
        the edited CFG would make the fenced edit look unchanged and seed
        every state of the unfenced run."""
        from repro.obs import metrics

        engine = AnalysisEngine()
        base = _request(BASE_SOURCE, GEOMETRIES[0])
        engine.run(base)
        self._fence_like_the_edit(engine.compile(base), EDITS["fence_insert"])
        stale = metrics().counter("incremental.fallback.snapshot_stale")
        before = stale.value
        edited = _request(
            EDITS["fence_insert"], GEOMETRIES[0], warm_from=base.result_key()
        )
        result = engine.run(edited)
        assert_semantically_identical(result, execute_request(edited))
        assert engine.stats.incremental.cold_fallbacks == 1
        assert stale.value == before + 1

    def test_stale_retained_states_never_seed_a_solver(self):
        """Outside the engine too: a solver handed the states of a CFG
        edited since its run refuses them rather than hash the edit."""
        from repro.analysis.multicolor import SpeculativeCacheAnalysis

        program = compile_source(BASE_SOURCE)
        request = _request(BASE_SOURCE, GEOMETRIES[0])
        result, analysis = execute_retaining(request, program)
        snapshot = snapshot_from_analysis(request, program, analysis, result)
        self._fence_like_the_edit(program, EDITS["fence_insert"])
        assert snapshot.warm.stale
        assert snapshot_compatible(snapshot, request, program) == "snapshot_stale"
        with pytest.raises(ValueError, match="edited after its analysis"):
            SpeculativeCacheAnalysis(
                compile_source(EDITS["fence_insert"]),
                cache_config=GEOMETRIES[0],
                warm_start=snapshot.warm,
            )

    def test_cfg_edited_after_first_use_keeps_its_fingerprints(self):
        engine = AnalysisEngine()
        base = _request(BASE_SOURCE, GEOMETRIES[0])
        engine.run(base)
        engine.run(_request(EDITS["statement_add"], GEOMETRIES[0], warm_from=base.result_key()))
        self._fence_like_the_edit(engine.compile(base), EDITS["fence_insert"])
        edited = _request(
            EDITS["fence_insert"], GEOMETRIES[0], warm_from=base.result_key()
        )
        result = engine.run(edited)
        assert engine.stats.incremental.warm_hits == 2
        assert_semantically_identical(result, execute_request(edited))


# ----------------------------------------------------------------------
# Incremental vcfg rebuilds
# ----------------------------------------------------------------------
class TestIncrementalVCFG:
    @pytest.mark.parametrize("edit", sorted(EDITS))
    def test_rebuild_equals_cold_build(self, edit):
        from repro.speculation.vcfg import (
            VCFGBaseline,
            _vcfg_memo,
            build_vcfg,
            build_vcfg_incremental,
        )

        config = SpeculationConfig(depth_miss=12, depth_hit=4)
        base = compile_source(BASE_SOURCE).cfg
        edited = compile_source(EDITS[edit]).cfg
        baseline = VCFGBaseline(
            block_fingerprints=base.block_fingerprints(),
            scenarios=tuple(build_vcfg(base, config).scenarios),
        )
        _vcfg_memo.clear()
        vcfg, stats = build_vcfg_incremental(edited, config, baseline)
        assert vcfg.scenarios == build_vcfg(edited, config).scenarios
        assert stats["memo_hit"] == 0
        assert stats["windows_reused"] + stats["windows_recomputed"] == 2 * len(
            vcfg.scenarios
        )
        if edit == "fence_insert":
            assert stats["windows_reused"] > 0
        again, stats = build_vcfg_incremental(edited, config, baseline)
        assert stats["memo_hit"] == 1
        assert again.scenarios == vcfg.scenarios


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

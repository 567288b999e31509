"""The mitigation-synthesis subsystem: patching, placement, the greedy
minimiser + verification loop, and the service surface (RPC + caching)."""

from __future__ import annotations

import pytest

from repro.cache.config import CacheConfig
from repro.engine.engine import AnalysisEngine
from repro.engine.request import AnalysisKind, AnalysisRequest
from repro.frontend import compile_source
from repro.ir.printer import program_to_source
from repro.lang import ast
from repro.lang.parser import parse_program
from repro.mitigation import (
    FencePoint,
    MitigationError,
    apply_fence_points,
    count_fence_statements,
    enumerate_fence_points,
    hoist_points,
    mitigation_key,
    surviving_branch_points,
    synthesize_mitigation,
)
from repro.service.client import ServiceClient
from repro.service.server import ReproServer

#: Speculation-only leak at an 11-line cache (see tests/test_fence.py).
SPEC_LEAK = """
char sbox[256];
char pad_a[192];
char pad_b[192];
secret int key;
int mode;

int main() {
  reg int i;
  reg int t;
  for (i = 0; i < 256; i = i + 64) { t = sbox[i]; }
  if (mode > 0) {
    t = pad_a[0] + pad_a[64] + pad_a[128];
  } else {
    t = pad_b[0] + pad_b[64] + pad_b[128];
  }
  t = sbox[key];
  return t;
}
"""

LEAK_CACHE = CacheConfig(num_lines=11, line_size=64)

#: Leaks even without speculation (the S-box never fully fits): no fence
#: placement can close it.
UNMITIGABLE = """
char sbox[256];
secret int key;
int main() {
  reg int i;
  int t;
  for (i = 0; i < 128; i = i + 64) { t = sbox[i]; }
  t = sbox[key];
  return t;
}
"""

SAFE = "char a[64]; int main() { int t; t = a[0]; return t; }"


def leak_request(source: str = SPEC_LEAK, cache: CacheConfig = LEAK_CACHE):
    return AnalysisRequest.speculative(source, cache_config=cache, label="toy")


class TestFencePoints:
    def test_enumerate_covers_every_branch_arm(self):
        program = parse_program(SPEC_LEAK)
        points = enumerate_fence_points(program)
        # One `for` plus one `if`, two arms each.
        assert len(points) == 4
        assert {p.kind for p in points} == {"taken", "fallthrough"}

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            FencePoint("sideways", 3)

    def test_taken_point_prepends_to_then_body(self):
        program = parse_program("int p; int main() { if (p > 0) { p = 1; } return p; }")
        if_stmt = next(
            s
            for s in ast.walk_statements(program.function("main").body)
            if isinstance(s, ast.If)
        )
        patched = apply_fence_points(program, [FencePoint("taken", if_stmt.line)])
        patched_if = next(
            s
            for s in ast.walk_statements(patched.function("main").body)
            if isinstance(s, ast.If)
        )
        assert isinstance(patched_if.then_body.statements[0], ast.Fence)
        assert count_fence_statements(patched) == 1
        # The original AST is untouched.
        assert count_fence_statements(program) == 0

    def test_fallthrough_point_without_else_inserts_after(self):
        program = parse_program("int p; int main() { if (p > 0) { p = 1; } return p; }")
        if_stmt = next(
            s
            for s in ast.walk_statements(program.function("main").body)
            if isinstance(s, ast.If)
        )
        patched = apply_fence_points(program, [FencePoint("fallthrough", if_stmt.line)])
        body = patched.function("main").body.statements
        if_index = next(
            index for index, s in enumerate(body) if isinstance(s, ast.If)
        )
        assert isinstance(body[if_index + 1], ast.Fence)

    def test_loop_points_land_on_body_and_exit(self):
        program = parse_program(
            "int p; int main() { while (p > 0) { p = p - 1; } return p; }"
        )
        loop = next(
            s
            for s in ast.walk_statements(program.function("main").body)
            if isinstance(s, ast.While)
        )
        patched = apply_fence_points(
            program,
            [FencePoint("taken", loop.line), FencePoint("fallthrough", loop.line)],
        )
        main = patched.function("main").body.statements
        loop_index = next(i for i, s in enumerate(main) if isinstance(s, ast.While))
        assert isinstance(main[loop_index].body.statements[0], ast.Fence)
        assert isinstance(main[loop_index + 1], ast.Fence)

    def test_before_point_inserts_ahead_of_statement(self):
        source = "int p; int main() { p = 1; p = 2; return p; }"
        program = parse_program(source)
        second = program.function("main").body.statements[1]
        patched = apply_fence_points(program, [FencePoint("before", second.line)])
        statements = patched.function("main").body.statements
        # Both assignments share a line in this one-line body; the fence
        # goes before the first statement carrying it, exactly once.
        assert count_fence_statements(patched) == 1
        assert isinstance(statements[0], ast.Fence)

    def test_patched_source_compiles_and_contains_fences(self):
        program = parse_program(SPEC_LEAK)
        points = enumerate_fence_points(program)
        source = program_to_source(apply_fence_points(program, points))
        compiled = compile_source(source)
        assert source.count("fence;") == len(points)
        assert compiled.cfg is not None


class TestPlacementCandidates:
    def test_surviving_branch_points_skip_unrolled_loops(self):
        program = compile_source(SPEC_LEAK)
        points = surviving_branch_points(program)
        # The preload loop fully unrolls; only the if survives.
        lines = {p.line for p in points}
        assert len(lines) == 1
        assert {p.kind for p in points} == {"taken", "fallthrough"}

    def test_hoist_points_are_before_points(self):
        program = compile_source(SPEC_LEAK)
        for point in hoist_points(program):
            assert point.kind == "before"
            assert point.line > 0

    def test_surviving_branch_points_order_by_line_taken_first(self):
        source = (
            "char a[64]; char b[64]; int p; int q;\n"
            "int main() {\n"
            "  if (q > 0) { b[0]; } else { a[0]; }\n"
            "  if (p > 0) { a[0]; }\n"
            "  return 0;\n"
            "}\n"
        )
        assert surviving_branch_points(compile_source(source)) == [
            FencePoint("taken", 3),
            FencePoint("fallthrough", 3),
            FencePoint("taken", 4),
            FencePoint("fallthrough", 4),
        ]

    def test_candidate_groups_list_hoists_then_arms_then_whole_branches(self):
        from repro.mitigation.synthesis import _candidate_groups

        program = compile_source(SPEC_LEAK)
        request = leak_request()
        hoists = hoist_points(program, request.resolved_speculation)
        arms = surviving_branch_points(program)
        assert hoists and len(arms) == 2
        # The hoist sits below the branch, yet it is tried first.
        assert hoists[0].line > arms[0].line
        assert _candidate_groups(program, request) == (
            [(point,) for point in hoists] + [(point,) for point in arms] + [tuple(arms)]
        )

    def test_synthesis_runs_no_taint_pass(self, monkeypatch):
        from repro.analysis import taint

        def refuse(self):
            raise AssertionError("fence placement ran the taint pass")

        monkeypatch.setattr(taint.TaintAnalysis, "solve", refuse)
        result = synthesize_mitigation(leak_request(), engine=AnalysisEngine())
        assert result.chosen == "optimized"
        assert result.selected().leak_sites_after == 0


class TestSynthesis:
    def test_closes_speculation_only_leak(self):
        engine = AnalysisEngine()
        result = synthesize_mitigation(leak_request(), engine=engine)
        assert result.leak_sites_before == 1
        assert result.leak_sites[0].symbol == "sbox"
        assert result.chosen == "optimized"
        selected = result.selected()
        assert selected is not None and selected.verified
        assert selected.leak_sites_after == 0
        assert "fence;" in selected.patched_source
        # Analysis-guided placement beats fence-every-branch.
        if result.baseline is not None:
            assert selected.source_fences < result.baseline.source_fences
            assert result.baseline.verified
        else:
            # The incremental loop (REPRO_INCREMENTAL=1) skips scoring the
            # strawman once the optimizer verified; its placement would
            # have fenced every enumerated branch-arm point.
            strawman = len(enumerate_fence_points(parse_program(SPEC_LEAK)))
            assert selected.source_fences < strawman

    def test_patched_source_recompiles_and_stays_clean(self):
        from repro.analysis.speculative import analyze_speculative

        engine = AnalysisEngine()
        result = synthesize_mitigation(leak_request(), engine=engine)
        patched = compile_source(result.selected().patched_source)
        verdict = analyze_speculative(
            patched, cache_config=LEAK_CACHE,
            speculation=leak_request().resolved_speculation,
        )
        assert not verdict.leak_detected

    def test_already_safe_program(self):
        result = synthesize_mitigation(
            AnalysisRequest.speculative(SAFE, cache_config=LEAK_CACHE),
            engine=AnalysisEngine(),
        )
        assert result.already_safe
        assert result.chosen == "none"
        assert result.selected() is None
        assert result.baseline is None and result.optimized is None
        assert result.analyses_run == 1

    def test_unmitigable_leak_raises(self):
        request = AnalysisRequest.speculative(
            UNMITIGABLE, cache_config=CacheConfig(num_lines=4, line_size=64)
        )
        with pytest.raises(MitigationError):
            synthesize_mitigation(request, engine=AnalysisEngine())

    def test_baseline_kind_is_normalised_to_speculative(self):
        request = AnalysisRequest(
            source=SPEC_LEAK, kind=AnalysisKind.BASELINE, cache_config=LEAK_CACHE
        )
        result = synthesize_mitigation(request, engine=AnalysisEngine())
        assert result.leak_sites_before == 1

    def test_optimize_false_evaluates_baseline_only(self):
        result = synthesize_mitigation(
            leak_request(), engine=AnalysisEngine(), optimize=False
        )
        assert result.optimized is None
        assert result.chosen == "baseline"
        assert result.baseline.verified

    def test_wire_form_is_json_safe(self):
        import json

        result = synthesize_mitigation(leak_request(), engine=AnalysisEngine())
        wire = json.loads(json.dumps(result.to_wire()))
        assert wire["chosen"] == "optimized"
        assert wire["optimized"]["leak_sites_after"] == 0
        assert wire["optimized"]["points"]
        assert wire["leak_sites"][0]["symbol"] == "sbox"

    def test_mitigation_key_is_store_compatible(self):
        key = mitigation_key(leak_request())
        assert len(key) == 64 and set(key) <= set("0123456789abcdef")
        assert key != mitigation_key(leak_request(), optimize=False)
        assert key == mitigation_key(leak_request())

    def test_mitigation_key_normalises_kind_and_keeps_speculation(self):
        from dataclasses import replace

        from repro.speculation.config import SpeculationConfig

        # A BASELINE-kind request keys identically to its normalised
        # speculative form (synthesis normalises the kind the same way)...
        base_kind = replace(leak_request(), kind=AnalysisKind.BASELINE)
        assert mitigation_key(base_kind) == mitigation_key(leak_request())
        # ...and different speculation configs must NOT collide, even when
        # the incoming kind is BASELINE (whose own result key ignores them).
        shallow = replace(
            base_kind, speculation=SpeculationConfig.paper_default().with_depths(5, 5)
        )
        assert mitigation_key(shallow) != mitigation_key(base_kind)


class TestMitigateRPC:
    @pytest.fixture
    def server(self, tmp_path):
        srv = ReproServer(
            store_dir=str(tmp_path / "store"), port=0, max_workers=1
        ).start()
        yield srv
        srv.stop()

    def test_mitigate_over_the_wire(self, server, tmp_path):
        request = leak_request()
        with ServiceClient(port=server.port) as client:
            first = client.mitigate(request)
            second = client.mitigate(request)
        assert first["chosen"] == "optimized"
        assert first["optimized"]["verified"]
        assert not first["from_cache"]
        assert second["from_cache"]
        stripped = {k: v for k, v in first.items() if k != "from_cache"}
        assert stripped == {k: v for k, v in second.items() if k != "from_cache"}

        # A fresh daemon over the same store serves the memoised synthesis
        # from tier 2.
        restarted = ReproServer(
            store_dir=str(tmp_path / "store"), port=0, max_workers=1
        ).start()
        try:
            with ServiceClient(port=restarted.port) as client:
                replayed = client.mitigate(request)
            assert replayed["from_cache"]
            assert {k: v for k, v in replayed.items() if k != "from_cache"} == stripped
        finally:
            restarted.stop()

    def test_concurrent_identical_requests_coalesce(self, server):
        import threading

        request = leak_request()
        results: list[dict | None] = [None] * 4

        def hit(index: int) -> None:
            with ServiceClient(port=server.port) as client:
                results[index] = client.mitigate(request)

        threads = [threading.Thread(target=hit, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(r is not None and r["chosen"] == "optimized" for r in results)
        # Exactly one connection synthesised; the rest waited on the
        # per-key lock and were served the memoised result.
        assert sum(1 for r in results if not r["from_cache"]) == 1

    def test_cached_replay_uses_the_callers_label(self, server):
        from dataclasses import replace

        with ServiceClient(port=server.port) as client:
            first = client.mitigate(leak_request())
            replay = client.mitigate(replace(leak_request(), label="renamed"))
        assert first["name"] == "toy"
        assert replay["from_cache"]
        assert replay["name"] == "renamed"

    def test_unmitigable_reported_as_error(self, server):
        request = AnalysisRequest.speculative(
            UNMITIGABLE, cache_config=CacheConfig(num_lines=4, line_size=64)
        )
        with ServiceClient(port=server.port) as client:
            with pytest.raises(Exception) as info:
                client.mitigate(request)
        assert "MitigationError" in str(info.value) or "leak" in str(info.value)


class TestMitigateCLI:
    def test_local_mitigate_json(self, tmp_path, capsys):
        import json

        from repro.service.cli import main

        source_file = tmp_path / "leaky.mc"
        source_file.write_text(SPEC_LEAK)
        # The bench cache (64 lines) hides this toy's leak, so drive the
        # CLI through a kernel instead: des leaks with a zero-byte buffer.
        code = main(
            [
                "mitigate",
                "des",
                "--local",
                "--store-dir",
                str(tmp_path / "store"),
                "--json",
                "--emit-dir",
                str(tmp_path / "patched"),
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["name"] == "des"
        assert payload[0]["chosen"] == "optimized"
        emitted = tmp_path / "patched" / "des.mitigated.mc"
        assert emitted.exists()
        assert "fence;" in emitted.read_text()

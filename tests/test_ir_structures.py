"""Unit tests for CFG structure, dominators, loops, unrolling, inlining,
memory layout, and the IR printer."""

import dataclasses

import pytest

from repro import compile_source
from repro.analysis.baseline import analyze_baseline
from repro.analysis.speculative import analyze_speculative
from repro.errors import CFGError, ConfigError
from repro.ir.basicblock import BasicBlock
from repro.ir.cfg import CFG
from repro.ir.inline import inline_calls
from repro.ir.instructions import CallInstr, CondBranch, Const, Jump, MemoryRef, Return, Temp
from repro.ir.lowering import lower_program
from repro.ir.memory import AccessKind, MemoryBlock, MemoryLayout, placeholder_blocks
from repro.ir.printer import format_cfg, format_instruction, format_memory_summary
from repro.ir.unroll import unroll_fixed_loops
from repro.lang import ast
from repro.lang.parser import parse_program
from repro.lang.typecheck import check_program


def build_diamond() -> CFG:
    """entry -> (left | right) -> join -> exit(return)."""
    cfg = CFG(name="diamond")
    entry = cfg.add_block(BasicBlock("entry"))
    left = cfg.add_block(BasicBlock("left"))
    right = cfg.add_block(BasicBlock("right"))
    join = cfg.add_block(BasicBlock("join"))
    entry.terminator = CondBranch(cond=Temp("c"), true_target="left", false_target="right")
    left.terminator = Jump(target="join")
    right.terminator = Jump(target="join")
    join.terminator = Return(value=Const(0))
    return cfg


def build_loop() -> CFG:
    """entry -> header -> body -> header, header -> exit."""
    cfg = CFG(name="loop")
    entry = cfg.add_block(BasicBlock("entry"))
    header = cfg.add_block(BasicBlock("header"))
    body = cfg.add_block(BasicBlock("body"))
    exit_block = cfg.add_block(BasicBlock("exit"))
    entry.terminator = Jump(target="header")
    header.terminator = CondBranch(cond=Temp("c"), true_target="body", false_target="exit")
    body.terminator = Jump(target="header")
    exit_block.terminator = Return(value=None)
    return cfg


class TestCFG:
    def test_successors_and_predecessors(self):
        cfg = build_diamond()
        assert set(cfg.successors("entry")) == {"left", "right"}
        assert set(cfg.predecessors("join")) == {"left", "right"}
        assert cfg.predecessors("entry") == []

    def test_edges_are_labelled(self):
        cfg = build_diamond()
        labels = {(e.source, e.target): e.taken for e in cfg.edges()}
        assert labels[("entry", "left")] is True
        assert labels[("entry", "right")] is False
        assert labels[("left", "join")] is None

    def test_exit_and_conditional_blocks(self):
        cfg = build_diamond()
        assert cfg.exit_blocks() == ["join"]
        assert cfg.conditional_blocks() == ["entry"]

    def test_reverse_postorder_starts_at_entry(self):
        cfg = build_diamond()
        rpo = cfg.reverse_postorder()
        assert rpo[0] == "entry"
        assert rpo.index("join") > rpo.index("left")
        assert rpo.index("join") > rpo.index("right")

    def test_reachable_blocks_excludes_orphans(self):
        cfg = build_diamond()
        orphan = cfg.add_block(BasicBlock("orphan"))
        orphan.terminator = Return(value=None)
        assert "orphan" not in cfg.reachable_blocks()

    def test_duplicate_block_rejected(self):
        cfg = build_diamond()
        with pytest.raises(CFGError):
            cfg.add_block(BasicBlock("entry"))

    def test_unknown_block_rejected(self):
        cfg = build_diamond()
        with pytest.raises(CFGError):
            cfg.block("nope")

    def test_validate_catches_dangling_target(self):
        cfg = build_diamond()
        cfg.block("left").terminator = Jump(target="missing")
        with pytest.raises(CFGError):
            cfg.validate()

    def test_validate_catches_missing_terminator(self):
        cfg = build_diamond()
        cfg.block("left").terminator = None
        with pytest.raises(CFGError):
            cfg.validate()

    def test_instruction_count_includes_terminators(self):
        cfg = build_diamond()
        assert cfg.instruction_count == 4


class TestDominators:
    def test_entry_dominates_everything(self):
        graph = build_diamond().graph()
        for block in graph.reachable:
            assert "entry" in graph.dominator_chain(block)

    def test_branch_sides_do_not_dominate_join(self):
        chain = build_diamond().graph().dominator_chain("join")
        assert "left" not in chain
        assert "right" not in chain

    def test_immediate_dominators(self):
        idom = build_diamond().graph().idom
        assert idom["join"] == "entry"
        assert idom["left"] == "entry"
        assert idom["entry"] is None

    def test_postdominators_join_postdominates_sides(self):
        graph = build_diamond().graph()
        assert "join" in graph.postdominator_chain("left")
        assert "join" in graph.postdominator_chain("entry")

    def test_immediate_postdominator_of_branch_is_join(self):
        assert build_diamond().graph().ipdom["entry"] == "join"

    def test_loop_header_postdominates_body(self):
        assert "header" in build_loop().graph().postdominator_chain("body")


class TestLoops:
    def test_natural_loop_detection(self):
        graph = build_loop().graph()
        (loop,) = graph.loops
        assert loop.header == "header"
        assert loop.blocks == {"header", "body"}
        exits = {
            successor
            for block in loop.blocks
            for successor in graph.successors[block]
            if successor not in loop.blocks
        }
        assert exits == {"exit"}

    def test_loop_body_excludes_unreachable_blocks(self):
        # An unreachable block that jumps into the body is outside the
        # header's dominance region, so it is not part of the loop.
        cfg = build_loop()
        orphan = cfg.add_block(BasicBlock("orphan"))
        orphan.terminator = Jump(target="body")
        (loop,) = cfg.graph().loops
        assert loop.blocks == {"header", "body"}
        assert loop.back_edges == (("body", "header"),)

    def test_no_loops_in_diamond(self):
        assert build_diamond().graph().loops == ()

    def test_nested_loop_bodies_nest(self):
        """entry -> outer -> inner <-> body, inner -> latch -> outer,
        outer -> exit: the inner loop's body lies inside the outer's, and
        the exit lies in neither."""
        cfg = CFG(name="nested")
        blocks = {
            name: cfg.add_block(BasicBlock(name))
            for name in ("entry", "outer", "inner", "body", "latch", "exit")
        }
        blocks["entry"].terminator = Jump(target="outer")
        blocks["outer"].terminator = CondBranch(
            cond=Temp("c"), true_target="inner", false_target="exit"
        )
        blocks["inner"].terminator = CondBranch(
            cond=Temp("d"), true_target="body", false_target="latch"
        )
        blocks["body"].terminator = Jump(target="inner")
        blocks["latch"].terminator = Jump(target="outer")
        blocks["exit"].terminator = Return(value=None)
        graph = cfg.graph()
        by_header = {loop.header: loop for loop in graph.loops}
        assert set(by_header) == {"outer", "inner"} == graph.loop_headers
        assert by_header["inner"].blocks == {"inner", "body"}
        assert by_header["outer"].blocks == {"outer", "inner", "body", "latch"}
        innermost = min(
            (loop for loop in graph.loops if "body" in loop.blocks),
            key=lambda loop: len(loop.blocks),
        )
        assert innermost.header == "inner"
        assert not any("exit" in loop.blocks for loop in graph.loops)

    def test_rolled_counter_loop_is_one_natural_loop(self):
        source = (
            "int a[64]; int s; int main() { reg int i; reg int x; x = 0;"
            "  for (i = 0; i < 10; i++) { s = s + 1; }"
            "  return x; }"
        )
        program, stats = unroll_fixed_loops(parse_program(source), max_iterations=0)
        assert stats.loops_unrolled == 0
        cfg = lower_program(check_program(program))["main"]
        (loop,) = cfg.graph().loops
        assert len(loop.back_edges) == 1
        assert loop.back_edges[0][1] == loop.header

    def test_quantl_search_loop_stays_rolled(self):
        """quantl's search loop breaks on a data-dependent test, so the
        compiled program keeps it as the one loop the analyses iterate."""
        from repro.bench.programs import quantl_client_source

        program = compile_source(quantl_client_source())
        assert program.unroll_stats.loops_seen == 1
        assert program.unroll_stats.loops_unrolled == 0
        (loop,) = program.cfg.graph().loops
        assert loop.header in program.cfg.graph().loop_headers


class TestUnrolling:
    def test_fixed_loop_fully_unrolled(self):
        source = "char a[256]; int main() { reg int i; for (i = 0; i < 4; i++) { a[i * 64]; } return 0; }"
        program, stats = unroll_fixed_loops(parse_program(source))
        assert stats.loops_unrolled == 1
        assert stats.iterations_emitted == 4
        cfgs = lower_program(check_program(program))
        refs = [r for r in cfgs["main"].all_memory_refs() if r.symbol == "a"]
        assert sorted(r.index_const for r in refs) == [0, 64, 128, 192]

    def test_loop_with_break_not_unrolled(self):
        source = (
            "int a[64]; int w; int main() { int i;"
            "  for (i = 0; i < 30; i++) { if (a[i] > w) break; } return i; }"
        )
        program, stats = unroll_fixed_loops(parse_program(source))
        assert stats.loops_unrolled == 0

    def test_data_dependent_bound_not_unrolled(self):
        source = "int n; int s; int main() { int i; for (i = 0; i < n; i++) { s = s + 1; } return s; }"
        _, stats = unroll_fixed_loops(parse_program(source))
        assert stats.loops_unrolled == 0

    def test_too_many_iterations_not_unrolled(self):
        source = "int s; int main() { int i; for (i = 0; i < 100; i++) { s = s + 1; } return s; }"
        _, stats = unroll_fixed_loops(parse_program(source), max_iterations=10)
        assert stats.loops_unrolled == 0

    def test_nested_fixed_loops_unrolled(self):
        source = (
            "char a[1024]; int main() { reg int i; reg int j;"
            "  for (i = 0; i < 2; i++) { for (j = 0; j < 2; j++) { a[i * 128 + j * 64]; } }"
            "  return 0; }"
        )
        program, stats = unroll_fixed_loops(parse_program(source))
        assert stats.loops_unrolled == 2  # the inner loop is unrolled once, then the outer
        cfgs = lower_program(check_program(program))
        refs = [r.index_const for r in cfgs["main"].all_memory_refs() if r.symbol == "a"]
        assert sorted(refs) == [0, 64, 128, 192]

    def test_downward_counting_loop(self):
        source = "char a[256]; int main() { reg int i; for (i = 192; i >= 0; i -= 64) { a[i]; } return 0; }"
        program, stats = unroll_fixed_loops(parse_program(source))
        assert stats.iterations_emitted == 4

    @pytest.mark.parametrize(
        "loop, access, index",
        [
            ("for (i = 0; i < 3; i++)", "a[i * 64]", 192),
            # A single iteration still moves the counter by the step (C
            # leaves i == 64 here, a different block than a[0]) ...
            ("for (i = 0; i < 1; i = i + 64)", "a[i]", 64),
            # ... and a downward loop moves it down.
            ("for (i = 5; i > 4; i = i - 3)", "a[i]", 2),
        ],
        ids=["three-iterations", "one-iteration", "downward"],
    )
    def test_counter_value_after_loop_usable_as_index(self, loop, access, index):
        source = f"char a[256]; int main() {{ reg int i; {loop} {{ a[0]; }} {access}; return 0; }}"
        program, _ = unroll_fixed_loops(parse_program(source))
        cfgs = lower_program(check_program(program))
        refs = [r.index_const for r in cfgs["main"].all_memory_refs() if r.symbol == "a"]
        # The post-loop access resolves because the unrolling pass leaves
        # the counter where C does: one step past the last iteration.
        assert refs[-1] == index

    def test_iterations_share_one_body(self):
        source = "char a[256]; int main() { reg int i; for (i = 0; i < 4; i++) { a[i * 64]; } return 0; }"
        program, _ = unroll_fixed_loops(parse_program(source))
        bodies = [s for s in program.functions[0].body.statements if isinstance(s, ast.Block)]
        assert len(bodies) == 4
        assert all(body is bodies[0] for body in bodies)

    def test_input_program_is_left_intact(self):
        source = (
            "char a[1024]; int k; int main() { reg int i; reg int j;"
            "  for (i = 0; i < 2; i++) { for (j = 0; j < 2; j++) { a[i * 128 + j * 64]; } }"
            "  if (k > 0) { for (i = 0; i < 2; i++) { a[i]; } }"
            "  while (k > 0) { for (i = 0; i < 2; i++) { a[i]; } k = k - 1; }"
            "  return 0; }"
        )
        program = parse_program(source)
        unroll_fixed_loops(program)
        assert program == parse_program(source)

    @pytest.mark.parametrize(
        "source, indices",
        [
            (
                "int a[64]; int s; int main() { int i;"
                "  for (i = 0; i < 2; i++) { int t; t = a[i * 16]; s = s + t; } return s; }",
                [0, 16],
            ),
            (
                "char a[1024]; int main() { reg int i;"
                "  for (i = 0; i < 2; i++) { for (int j = 0; j < 2; j++) { a[i * 128 + j * 64]; } }"
                "  return 0; }",
                [0, 64, 128, 192],
            ),
        ],
        ids=["local", "nested-counter"],
    )
    def test_declaration_in_unrolled_body_compiles(self, source, indices):
        program = compile_source(source)
        assert program.unroll_stats.iterations_emitted >= 2
        refs = [r.index_const for r in program.cfg.all_memory_refs() if r.symbol == "a"]
        assert refs == indices

    def test_local_in_unrolled_body_analyses_like_a_hoisted_one(self):
        inside = (
            "char a[1024]; char b[1024]; int s; int k; int main() { int i;"
            "  for (i = 0; i < 2; i++) { int t; t = a[i * 64];"
            "    if (t > k) { s = s + b[i * 64]; } else { s = s + b[512]; } }"
            "  s = s + a[0] + b[0]; return s; }"
        )
        hoisted = inside.replace("int t; ", "").replace("int i;", "int i; int t;")
        assert hoisted != inside
        for analyse in (analyze_baseline, analyze_speculative):
            expected = analyse(compile_source(hoisted)).classifications
            assert expected
            assert analyse(compile_source(inside)).classifications == expected


class TestInlining:
    def test_call_is_inlined_into_main(self):
        source = (
            "int t[64];"
            "int helper(int x) { return t[0] + x; }"
            "int main() { return helper(2); }"
        )
        program = compile_source(source)
        assert program.cfg.name == "main"
        symbols = program.cfg.referenced_symbols()
        assert "t" in symbols
        assert not any(
            getattr(i, "callee", None) == "helper"
            for block in program.cfg.blocks.values()
            for i in block.instructions
        )

    def test_argument_passing_touches_memory_parameters(self):
        source = (
            "int kernel(int el) { return el + 1; }"
            "int main() { return kernel(5); }"
        )
        program = compile_source(source)
        writes = [r for r in program.cfg.all_memory_refs() if r.symbol == "el" and r.is_write]
        assert writes

    def test_multiple_call_sites_each_inlined(self):
        source = (
            "int f(int x) { return x * 2; }"
            "int main() { return f(1) + f(2); }"
        )
        program = compile_source(source)
        program.cfg.validate()
        assert len(program.cfg.blocks) >= 5

    def test_recursion_detected(self):
        source = "int f(int x) { return f(x - 1); } int main() { return f(3); }"
        from repro.errors import LoweringError

        with pytest.raises(LoweringError):
            compile_source(source)

    CALLS = (
        "int t[64];"
        "int twice(int x) { return x * 2; }"
        "int helper(int x) { if (x > 1) { return t[x] + twice(x); } return t[0]; }"
        "int main() { int s; s = helper(2) + helper(3); return s; }"
    )

    def test_inlining_leaves_the_lowered_cfgs_intact(self):
        program = compile_source(self.CALLS)
        assert any(
            isinstance(instruction, CallInstr)
            for block in program.cfgs["main"].blocks.values()
            for instruction in block.instructions
        )
        before = compile_source(self.CALLS, inline=False)
        for name in ("twice", "helper", "main"):
            assert str(program.cfgs[name]) == str(before.cfgs[name])

    def test_inlining_twice_gives_equal_cfgs(self):
        program = compile_source(self.CALLS)
        again = inline_calls(program.cfgs, "main", program.info)
        assert again == inline_calls(program.cfgs, "main", program.info)
        assert again == program.cfg


@pytest.mark.parametrize("node", ["statement", "instruction", "terminator"])
def test_ast_and_ir_nodes_are_frozen(node):
    source = TestInlining.CALLS
    if node == "statement":
        target = parse_program(source).function("main").body.statements[0]
    else:
        block = compile_source(source).cfg.block("entry")
        target = block.instructions[0] if node == "instruction" else block.terminator
    with pytest.raises(dataclasses.FrozenInstanceError):
        target.line = 99


class TestMemoryLayout:
    def _layout(self, source: str, line_size: int = 64) -> MemoryLayout:
        info = check_program(parse_program(source))
        return MemoryLayout.from_program(info, line_size=line_size)

    def test_scalar_occupies_one_block(self):
        layout = self._layout("int x; int main() { return x; }")
        assert layout.object("x").num_blocks == 1

    def test_array_block_count_rounds_up(self):
        layout = self._layout("char a[130]; int main() { return 0; }")
        assert layout.object("a").num_blocks == 3

    def test_reg_symbols_have_no_layout(self):
        layout = self._layout("reg int i; int main() { return i; }")
        assert not layout.has_symbol("i")

    def test_total_blocks(self):
        layout = self._layout("char a[128]; int x; int main() { return x; }")
        assert layout.total_blocks == 3

    def test_concrete_resolution(self):
        layout = self._layout("int a[64]; int main() { return 0; }")
        ref = MemoryRef(symbol="a", index_const=17, element_size=4)
        access = layout.resolve(ref)
        assert access.kind is AccessKind.CONCRETE
        assert access.concrete_block == MemoryBlock("a", 1)

    def test_unknown_resolution_covers_all_blocks(self):
        layout = self._layout("int a[64]; int main() { return 0; }")
        ref = MemoryRef(symbol="a", index_const=None, element_size=4)
        access = layout.resolve(ref)
        assert access.kind is AccessKind.UNKNOWN
        assert len(access.blocks) == 4

    def test_secret_resolution(self):
        layout = self._layout("int a[64]; int main() { return 0; }")
        ref = MemoryRef(symbol="a", index_const=None, index_secret=True, element_size=4)
        assert layout.resolve(ref).kind is AccessKind.SECRET

    def test_out_of_range_index_clamped(self):
        layout = self._layout("int a[16]; int main() { return 0; }")
        ref = MemoryRef(symbol="a", index_const=400, element_size=4)
        access = layout.resolve(ref)
        assert access.concrete_block.index == 0  # single-block array

    def test_unknown_symbol_raises(self):
        layout = self._layout("int x; int main() { return x; }")
        with pytest.raises(ConfigError):
            layout.object("nope")

    def test_invalid_line_size(self):
        info = check_program(parse_program("int main() { return 0; }"))
        with pytest.raises(ConfigError):
            MemoryLayout.from_program(info, line_size=0)

    def test_lane_table_is_per_layout(self):
        """Lanes cover every real block in sorted order plus placeholder
        lines only for objects the compiled code indexes with an unknown
        index; compiling the same source again gives an equal (not the
        same) table, and resolved accesses carry their lanes."""
        source = (
            "char t[128]; char u[128]; int n;"
            "int main() { t[n]; u[64]; return 0; }"
        )
        first, second = compile_source(source), compile_source(source)
        lanes = first.layout.lanes
        assert first.layout.unknown_indexed == frozenset({"t"})
        assert list(lanes.blocks) == sorted(
            first.layout.all_blocks() + placeholder_blocks("t", 2)
        )
        assert lanes == second.layout.lanes and lanes is not second.layout.lanes
        assert first.layout.lanes is lanes  # built once per layout
        access = first.layout.resolve(MemoryRef(symbol="u", index_const=64, element_size=1))
        assert access.lanes == (lanes.lane(MemoryBlock("u", 1)),)

    def test_placeholder_blocks_are_distinct_and_flagged(self):
        placeholders = placeholder_blocks("a", 3)
        assert len(set(placeholders)) == 3
        assert all(p.is_placeholder for p in placeholders)
        assert not MemoryBlock("a", 0).is_placeholder

    def test_placeholder_str_uses_paper_notation(self):
        assert str(MemoryBlock("decis_levl", -1)) == "decis_levl[1*]"

    def test_describe_mentions_every_object(self):
        layout = self._layout("char a[128]; int x; int main() { return x; }")
        text = layout.describe()
        assert "a" in text and "x" in text


class TestPrinter:
    def test_format_cfg_contains_blocks_and_instructions(self, quantl_program):
        text = format_cfg(quantl_program.cfgs["quantl"])
        assert "function quantl" in text
        assert "decis_levl" in text
        assert "br " in text

    def test_format_instruction(self):
        assert "bb1" in format_instruction(Jump(target="bb1"))
        assert format_instruction(Return(value=None)) == "ret"
        assert "load x" in str(MemoryRef(symbol="x", element_size=0))

    def test_memory_summary_counts(self, figure7_program):
        text = format_memory_summary(figure7_program.cfg)
        assert "a: 2" in text

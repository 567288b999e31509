"""Unit tests for the AST-to-IR lowering."""

import pytest

from repro.errors import LoweringError
from repro.ir.cfg import CFG
from repro.ir.instructions import (
    BinOp,
    CallInstr,
    CondBranch,
    Const,
    Copy,
    Jump,
    Load,
    Return,
    Store,
)
from repro.ir.lowering import lower_program
from repro.lang.parser import parse_program
from repro.lang.typecheck import check_program


def lower(source: str) -> dict[str, CFG]:
    return lower_program(check_program(parse_program(source)))


def main_cfg(source: str) -> CFG:
    return lower(source)["main"]


class TestBasicLowering:
    def test_entry_block_and_return(self):
        cfg = main_cfg("int main() { return 3; }")
        cfg.validate()
        assert cfg.entry == "entry"
        terminator = cfg.block("entry").terminator
        assert isinstance(terminator, Return)
        assert terminator.value == Const(3)

    def test_missing_return_synthesised(self):
        cfg = main_cfg("int x; int main() { x = 1; }")
        assert cfg.exit_blocks()

    def test_scalar_read_emits_load(self):
        cfg = main_cfg("int x; int main() { return x; }")
        loads = [i for i in cfg.block("entry").instructions if isinstance(i, Load)]
        assert len(loads) == 1
        assert loads[0].ref.symbol == "x"
        assert loads[0].ref.index_const == 0

    def test_scalar_write_emits_store(self):
        cfg = main_cfg("int x; int main() { x = 7; return 0; }")
        stores = [i for i in cfg.block("entry").instructions if isinstance(i, Store)]
        assert len(stores) == 1
        assert stores[0].ref.is_write

    def test_reg_variable_emits_no_memory_access(self):
        cfg = main_cfg("reg int i; int main() { i = 3; return i; }")
        assert cfg.all_memory_refs() == []
        copies = [i for i in cfg.block("entry").instructions if isinstance(i, Copy)]
        assert copies

    def test_array_constant_index_resolved(self):
        cfg = main_cfg("char a[256]; int main() { a[130]; return 0; }")
        (ref,) = cfg.all_memory_refs()
        assert ref.symbol == "a"
        assert ref.index_const == 130

    def test_array_unknown_index(self):
        cfg = main_cfg("int a[64]; int n; int main() { a[n]; return 0; }")
        refs = [r for r in cfg.all_memory_refs() if r.symbol == "a"]
        assert refs[0].index_const is None

    def test_secret_index_flagged(self):
        cfg = main_cfg("secret int k; char t[256]; int main() { t[k]; return 0; }")
        refs = [r for r in cfg.all_memory_refs() if r.symbol == "t"]
        assert refs[0].index_secret

    def test_constant_folding_in_index(self):
        cfg = main_cfg("char a[256]; int main() { reg int i; i = 64; a[i + 64]; return 0; }")
        refs = [r for r in cfg.all_memory_refs() if r.symbol == "a"]
        assert refs[0].index_const == 128

    def test_intrinsic_call(self):
        cfg = main_cfg("int main() { return my_abs(0 - 4); }")
        calls = [i for i in cfg.block("entry").instructions if isinstance(i, CallInstr)]
        assert calls and calls[0].callee == "my_abs"

    def test_pure_constant_expression_folds_away(self):
        cfg = main_cfg("reg int x; int main() { x = 2 * 3 + 1; return x; }")
        binops = [i for i in cfg.block("entry").instructions if isinstance(i, BinOp)]
        assert binops == []


class TestControlFlow:
    def test_if_else_creates_diamond(self):
        cfg = main_cfg(
            "int p; int x; int main() { if (p == 0) x = 1; else x = 2; return x; }"
        )
        branches = cfg.conditional_blocks()
        assert len(branches) == 1
        terminator = cfg.block(branches[0]).terminator
        assert isinstance(terminator, CondBranch)
        assert terminator.true_target != terminator.false_target

    def test_condition_refs_recorded(self):
        cfg = main_cfg("int p; int main() { if (p == 0) { return 1; } return 0; }")
        terminator = cfg.block(cfg.conditional_blocks()[0]).terminator
        assert [ref.symbol for ref in terminator.cond_refs] == ["p"]

    def test_register_condition_has_no_refs(self):
        cfg = main_cfg("reg int p; int main() { if (p == 0) { return 1; } return 0; }")
        terminator = cfg.block(cfg.conditional_blocks()[0]).terminator
        assert terminator.cond_refs == ()

    def test_while_loop_has_back_edge(self):
        cfg = main_cfg(
            "int n; int main() { reg int i; i = 0; while (i < n) { i = i + 1; } return i; }"
        )
        assert len(cfg.graph().loops) == 1

    def test_for_loop_with_break(self):
        cfg = main_cfg(
            "int a[64]; int w; int main() { int i;"
            "for (i = 0; i < 30; i++) { if (a[i] > w) break; } return i; }"
        )
        cfg.validate()
        assert len(cfg.conditional_blocks()) == 2

    def test_break_outside_loop_rejected(self):
        with pytest.raises(LoweringError):
            main_cfg("int main() { break; return 0; }")

    def test_continue_outside_loop_rejected(self):
        with pytest.raises(LoweringError):
            main_cfg("int main() { continue; return 0; }")

    def test_unreachable_code_pruned(self):
        cfg = main_cfg("int x; int main() { return 1; x = 2; return x; }")
        for name in cfg.blocks:
            assert name in cfg.reachable_blocks()

    def test_nested_if(self):
        cfg = main_cfg(
            "int a; int b; int main() {"
            "  if (a > 0) { if (b > 0) { return 1; } return 2; }"
            "  return 3; }"
        )
        cfg.validate()
        assert len(cfg.conditional_blocks()) == 2

    def test_array_used_as_scalar_rejected(self):
        with pytest.raises(LoweringError):
            main_cfg("int t[4]; int main() { return t; }")


class TestConstantEnvironment:
    def test_constants_merge_at_join_when_equal(self):
        cfg = main_cfg(
            "char a[256]; int p; int main() { reg int i; i = 64;"
            "  if (p) { p = 1; } else { p = 2; }"
            "  a[i]; return 0; }"
        )
        refs = [r for r in cfg.all_memory_refs() if r.symbol == "a"]
        assert refs[0].index_const == 64

    def test_constants_dropped_when_diverging(self):
        cfg = main_cfg(
            "char a[256]; int p; int main() { reg int i;"
            "  if (p) { i = 0; } else { i = 64; }"
            "  a[i]; return 0; }"
        )
        refs = [r for r in cfg.all_memory_refs() if r.symbol == "a"]
        assert refs[0].index_const is None

    def test_constants_invalidated_by_loop(self):
        cfg = main_cfg(
            "char a[256]; int n; int main() { reg int i; i = 0;"
            "  while (i < n) { i = i + 64; }"
            "  a[i]; return 0; }"
        )
        refs = [r for r in cfg.all_memory_refs() if r.symbol == "a"]
        assert refs[0].index_const is None

    def test_initialized_global_array_value_propagates(self):
        cfg = main_cfg(
            "int t[4] = {0, 64, 128, 192}; char a[256];"
            "int main() { a[t[1]]; return 0; }"
        )
        refs = [r for r in cfg.all_memory_refs() if r.symbol == "a"]
        assert refs[0].index_const == 64


class TestWholeProgramLowering:
    def test_all_functions_lowered(self):
        cfgs = lower("int f() { return 1; } int g() { return 2; } int main() { return 0; }")
        assert set(cfgs) == {"f", "g", "main"}

    def test_every_cfg_validates(self):
        from repro.bench.programs import quantl_client_source

        for cfg in lower(quantl_client_source()).values():
            cfg.validate()

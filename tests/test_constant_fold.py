"""One constant fold, with C's semantics, for the parser, unrolling,
lowering and the simulator (``repro.lang.fold``); and condition refs
that do not depend on ``PYTHONHASHSEED``."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ParseError, ReproError
from repro.frontend import compile_source
from repro.ir.instructions import BinOp, CondBranch, Const, Load
from repro.lang.fold import c_div, c_mod, fold_binary, fold_unary
from repro.lang.parser import parse_program
from repro.lang.typecheck import check_program
from repro.speculation.predictor import PerfectPredictor
from repro.speculation.simulator import SpeculativeSimulator

SRC = Path(__file__).resolve().parent.parent / "src"


def element_loads(program, symbol: str) -> list[int | None]:
    return [
        instruction.ref.index_const
        for block in program.cfg.blocks.values()
        for instruction in block.instructions
        if type(instruction) is Load and instruction.ref.symbol == symbol
    ]


def simulated(program) -> int:
    return SpeculativeSimulator(program, predictor=PerfectPredictor()).run().return_value


class TestCSemantics:
    @pytest.mark.parametrize(
        "left, right, quotient, remainder",
        [
            (7, 2, 3, 1),
            (-7, 2, -3, -1),
            (7, -2, -3, 1),
            (-7, -2, 3, -1),
            (6, 3, 2, 0),
            (0, -5, 0, 0),
        ],
    )
    def test_division_truncates_toward_zero(self, left, right, quotient, remainder):
        assert c_div(left, right) == quotient
        assert c_mod(left, right) == remainder
        assert fold_binary("/", left, right) == quotient
        assert fold_binary("%", left, right) == remainder

    def test_division_is_exact_on_large_integers(self):
        rng = random.Random(7)
        for _ in range(500):
            left = rng.randrange(-(1 << 80), 1 << 80)
            right = rng.choice([-1, 1]) * rng.randrange(1, 1 << rng.randrange(1, 70))
            quotient, remainder = c_div(left, right), c_mod(left, right)
            assert quotient * right + remainder == left
            assert abs(remainder) < abs(right)
            assert remainder == 0 or (remainder < 0) == (left < 0)

    def test_what_is_not_a_constant(self):
        assert fold_binary("/", 1, 0) is None
        assert fold_binary("%", 1, 0) is None
        assert fold_binary("<<", 1, -1) is None
        assert fold_binary("<<", 1, 64) is None
        assert fold_binary(">>", 1, 64) is None
        assert fold_binary("<<", 1, 63) == 1 << 63
        assert fold_binary(">>", -8, 0) == -8
        assert fold_binary("?", 1, 1) is None
        assert fold_unary("!", 5) == 0
        assert fold_unary("+", 5) is None

    def test_the_simulator_divides_the_same_way(self):
        binop = SpeculativeSimulator._binop
        assert binop("/", -7, 2) == -3
        assert binop("%", -7, 2) == -1
        assert binop("/", 1152921504606846977, 3) == 384307168202282325
        assert binop("/", 5, 0) == 0


class TestReproducers:
    def test_loop_start_rounds_toward_zero(self):
        """``-7 / 2`` is -3: three iterations (``a[5..7]``), as C and the
        simulator run the loop."""
        source = """
int a[8]; int s;
int main() {
  reg int n;
  n = 0;
  for (int i = -7 / 2; i < 0; i++) { s = s + a[i + 8]; n = n + 1; }
  return n;
}
"""
        program = compile_source(source)
        assert program.unroll_stats.iterations_emitted == 3
        assert element_loads(program, "a") == [5, 6, 7]
        assert simulated(program) == 3
        assert simulated(compile_source(source, unroll=False)) == 3

    def test_array_initialiser_rounds_toward_zero(self):
        source = "int a[4] = { -7 / 2, -7 % 2, 2, 3 }; int main() { return a[0]; }"
        info = check_program(parse_program(source))
        assert info.array_initializers["a"] == [-3, -1, 2, 3]

    def test_lowering_divides_large_constants_exactly(self):
        program = compile_source(
            """
int a[4];
int main() {
  reg int x;
  x = 1152921504606846977 / 3;
  return a[x - 384307168202282325];
}
"""
        )
        assert element_loads(program, "a") == [0]

    def test_negative_shift_in_an_array_length_is_not_a_constant(self):
        with pytest.raises(ParseError, match="expected a constant expression"):
            compile_source("int a[1 << -1]; int main() { return a[0]; }")

    def test_negative_shift_in_a_loop_bound_leaves_the_loop_rolled(self):
        program = compile_source(
            """
int a[4]; int s;
int main() {
  reg int i;
  for (i = 0; i < (1 << -1); i = i + 1) { s = s + a[0]; }
  return s;
}
"""
        )
        assert program.unroll_stats.loops_seen == 1
        assert program.unroll_stats.loops_unrolled == 0
        shifts = [
            instruction
            for block in program.cfg.blocks.values()
            for instruction in block.instructions
            if type(instruction) is BinOp and instruction.op == "<<"
        ]
        assert [(shift.left, shift.right) for shift in shifts] == [(Const(1), Const(-1))]

    def test_no_bare_value_error_from_compile_source(self):
        for source in (
            "int a[1 << -1]; int main() { return 0; }",
            "int a[2] = { 1 >> -2, 0 }; int main() { return 0; }",
        ):
            with pytest.raises(ReproError):
                compile_source(source)


SPREAD_CONDITION = """int x;
int a[4];
int main() {
  int s;
  s = 0;
  if (x
      + x
      + x
      + x > 3) {
    s = a[1];
  }
  return s;
}
"""

CONDITION_REFS = (
    "import sys\n"
    "from repro.frontend import compile_source\n"
    "program = compile_source(sys.stdin.read())\n"
    "print(repr([block.terminator for block in program.cfg.blocks.values()]))\n"
)


class TestConditionRefs:
    def test_refs_that_print_alike_keep_evaluation_order(self):
        branch = compile_source(SPREAD_CONDITION).cfg.block("entry").terminator
        assert type(branch) is CondBranch
        assert [str(ref) for ref in branch.cond_refs] == ["load x[0]"] * 4
        assert [ref.line for ref in branch.cond_refs] == [6, 7, 8, 9]

    def test_repeated_refs_are_recorded_once(self):
        branch = compile_source(
            "int x; int main() { if (x + x > 1) { return 1; } return 0; }"
        ).cfg.block("entry").terminator
        assert [str(ref) for ref in branch.cond_refs] == ["load x[0]"]

    def test_the_ir_does_not_depend_on_the_hash_seed(self):
        reprs = set()
        for seed in ("1", "2", "3", "4"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
            completed = subprocess.run(
                [sys.executable, "-c", CONDITION_REFS],
                input=SPREAD_CONDITION,
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            reprs.add(completed.stdout)
        assert len(reprs) == 1

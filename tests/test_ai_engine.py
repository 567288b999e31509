"""Unit tests for the generic forward solver, over a small test lattice
and over the cache domain."""

import math

import pytest

from repro import compile_source
from repro.ai.solver import solve_forward
from repro.cache.abstract import CacheState
from repro.ir.instructions import BinOp, Const, Copy, Temp
from repro.ir.memory import MemoryBlock
from repro.analysis.transfer import AccessTable, transfer_block


class UpperBounds:
    """Test lattice: an upper bound per temporary, ordered pointwise.

    A temporary without an entry is unbounded, and ``bounds=None`` is ⊥.
    A counter in a loop raises its bound forever, so only widening (which
    drops every bound that grew) makes such a loop converge.
    """

    def __init__(self, bounds: dict[str, float] | None = None):
        self.bounds = bounds

    @property
    def is_bottom(self) -> bool:
        return self.bounds is None

    def join(self, other: "UpperBounds") -> "UpperBounds":
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        return UpperBounds({
            temp: max(bound, other.bounds[temp])
            for temp, bound in self.bounds.items()
            if temp in other.bounds
        })

    def leq(self, other: "UpperBounds") -> bool:
        if self.is_bottom:
            return True
        if other.is_bottom:
            return False
        return all(
            self.bounds.get(temp, math.inf) <= bound
            for temp, bound in other.bounds.items()
        )

    def widen(self, previous: "UpperBounds") -> "UpperBounds":
        if self.is_bottom or previous.is_bottom:
            return self
        return UpperBounds({
            temp: bound
            for temp, bound in self.bounds.items()
            if bound <= previous.bounds.get(temp, math.inf)
        })

    def bound(self, operand) -> float:
        if isinstance(operand, Const):
            return operand.value
        if isinstance(operand, Temp):
            return self.bounds.get(operand.name, math.inf)
        return math.inf


def solve_upper_bounds(source: str, **solver_options):
    """Solve :class:`UpperBounds` over ``source``'s CFG (copies and
    additions are tracked; every other definition is unbounded)."""
    cfg = compile_source(source).cfg

    def transfer(name: str, state: UpperBounds) -> UpperBounds:
        if state.is_bottom:
            return state
        current = state
        for instruction in cfg.block(name).instructions:
            dest = instruction.defined_temp()
            if dest is None:
                continue
            if isinstance(instruction, Copy):
                value = current.bound(instruction.src)
            elif isinstance(instruction, BinOp) and instruction.op == "+":
                value = current.bound(instruction.left) + current.bound(instruction.right)
            else:
                value = math.inf
            bounds = {temp: b for temp, b in current.bounds.items() if temp != dest.name}
            if value < math.inf:
                bounds[dest.name] = value
            current = UpperBounds(bounds)
        return current

    result = solve_forward(
        cfg,
        entry_state=UpperBounds({}),
        bottom=UpperBounds(),
        transfer=transfer,
        **solver_options,
    )
    return cfg, result


COUNTING_LOOP = (
    "int n; int main() { reg int i; i = 0; while (i < n) { i = i + 1; } return i; }"
)


class TestSolverOnTestLattice:
    def test_bounds_propagate_through_copies(self):
        _, result = solve_upper_bounds(
            "int main() { reg int x; reg int y; x = 4; y = x + 1; return y; }"
        )
        assert result.exit_states["entry"].bounds["r_y"] == 5

    def test_branch_join_takes_the_larger_bound(self):
        cfg, result = solve_upper_bounds(
            "int p; int main() { reg int x; if (p > 0) { x = 1; } else { x = 10; } return x; }"
        )
        (exit_block,) = cfg.exit_blocks()
        assert result.entry_states[exit_block].bounds["r_x"] == 10

    def test_loop_terminates_through_widening(self):
        cfg, result = solve_upper_bounds(COUNTING_LOOP)
        assert result.widenings >= 1
        assert result.iterations < 100
        (exit_block,) = cfg.exit_blocks()
        assert "r_i" not in result.entry_states[exit_block].bounds

    def test_loop_diverges_without_widening(self):
        from repro.errors import AnalysisError

        with pytest.raises(AnalysisError):
            solve_upper_bounds(COUNTING_LOOP, widening_points=set(), max_visits=1000)

    def test_lattice_order_join_and_widen(self):
        bottom, top = UpperBounds(), UpperBounds({})
        low, high = UpperBounds({"a": 1}), UpperBounds({"a": 5})
        assert bottom.leq(top) and not top.leq(bottom)
        assert bottom.join(low) is low
        assert low.leq(high) and not high.leq(low)
        assert low.join(high).bounds == {"a": 5}
        assert high.widen(low).bounds == {}
        assert low.widen(high).bounds == {"a": 1}


class TestGenericSolver:
    def test_cache_fixpoint_on_straightline_program(self):
        program = compile_source("char a[64]; char b[64]; int main() { a[0]; b[0]; a[0]; return 0; }")
        table = AccessTable(program.cfg, program.layout)
        result = solve_forward(
            program.cfg,
            entry_state=CacheState.empty(4, program.layout.lanes),
            bottom=CacheState.bottom(4, program.layout.lanes),
            transfer=lambda name, state: transfer_block(state, table, name),
        )
        exit_state = result.exit_states[program.cfg.exit_blocks()[0]]
        assert exit_state.must_hit(MemoryBlock("a", 0))
        assert exit_state.must_hit(MemoryBlock("b", 0))

    def test_unreachable_blocks_stay_bottom(self):
        program = compile_source(
            "char a[64]; int main() { return 0; }"
        )
        table = AccessTable(program.cfg, program.layout)
        result = solve_forward(
            program.cfg,
            entry_state=CacheState.empty(4, program.layout.lanes),
            bottom=CacheState.bottom(4, program.layout.lanes),
            transfer=lambda name, state: transfer_block(state, table, name),
        )
        assert result.iterations >= 1

    def test_loop_reaches_fixpoint(self):
        program = compile_source(
            "char a[256]; int n; int main() { reg int i; i = 0;"
            "  while (i < n) { a[0]; i = i + 1; } a[0]; return 0; }"
        )
        table = AccessTable(program.cfg, program.layout)
        result = solve_forward(
            program.cfg,
            entry_state=CacheState.empty(8, program.layout.lanes),
            bottom=CacheState.bottom(8, program.layout.lanes),
            transfer=lambda name, state: transfer_block(state, table, name),
        )
        exit_state = result.exit_states[program.cfg.exit_blocks()[0]]
        assert exit_state.must_hit(MemoryBlock("a", 0))

    def test_max_visits_guard(self):
        program = compile_source("int main() { return 0; }")
        table = AccessTable(program.cfg, program.layout)
        from repro.errors import AnalysisError

        class NonConverging(CacheState):
            pass

        with pytest.raises(AnalysisError):
            # A transfer that always reports "changed" state via a broken
            # ordering would loop; the visit guard catches it.
            solve_forward(
                program.cfg,
                entry_state=CacheState.empty(4, program.layout.lanes),
                bottom=CacheState.bottom(4, program.layout.lanes),
                transfer=lambda name, state: state,
                max_visits=0,
            )

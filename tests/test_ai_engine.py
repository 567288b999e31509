"""Unit tests for the generic solver and the interval domain."""

import pytest

from repro import compile_source
from repro.ai.interval import Interval, IntervalState, analyze_intervals
from repro.ai.solver import solve_forward
from repro.cache.abstract import CacheState
from repro.ir.memory import MemoryBlock
from repro.analysis.transfer import AccessTable, transfer_block


class TestInterval:
    def test_constants_and_top(self):
        assert Interval.const(5).is_constant
        assert not Interval.top().is_constant
        assert Interval(3, 1).is_empty

    def test_join_and_meet(self):
        assert Interval(0, 3).join(Interval(2, 5)) == Interval(0, 5)
        assert Interval(0, 3).meet(Interval(2, 5)) == Interval(2, 3)
        assert Interval(0, 1).meet(Interval(3, 4)).is_empty

    def test_leq(self):
        assert Interval(1, 2).leq(Interval(0, 5))
        assert not Interval(0, 5).leq(Interval(1, 2))
        assert Interval(3, 1).leq(Interval(0, 0))

    def test_widen_unbounds_growing_sides(self):
        widened = Interval(0, 5).widen(Interval(0, 3))
        assert widened.lo == 0
        assert widened.hi == float("inf")

    def test_arithmetic(self):
        assert Interval(1, 2).add(Interval(3, 4)) == Interval(4, 6)
        assert Interval(1, 2).sub(Interval(0, 1)) == Interval(0, 2)
        assert Interval(-1, 2).mul(Interval(3, 3)) == Interval(-3, 6)
        assert Interval(1, 2).neg() == Interval(-2, -1)

    def test_contains(self):
        assert Interval(0, 10).contains(5)
        assert not Interval(0, 10).contains(11)

    def test_paper_widening_example(self):
        """Section 6.3: widening [0,5] against previous [0,3] gives [0,+inf)."""
        previous = Interval(0, 3)
        current = Interval(0, 5)
        assert current.widen(previous).hi == float("inf")


class TestIntervalAnalysis:
    def test_constant_propagation_through_copies(self):
        program = compile_source(
            "int main() { reg int x; reg int y; x = 4; y = x + 1; return y; }"
        )
        result = analyze_intervals(program.cfg)
        exit_state = result.exit_states["entry"]
        values = [v for v in exit_state.values.values() if v.is_constant]
        assert any(v.lo == 5 for v in values)

    def test_branch_join_widens_range(self):
        program = compile_source(
            "int p; int main() { reg int x; if (p > 0) { x = 1; } else { x = 10; } return x; }"
        )
        result = analyze_intervals(program.cfg)
        exits = [result.exit_states[b] for b in program.cfg.exit_blocks()]
        assert exits and not exits[0].is_bottom

    def test_loop_terminates_with_widening(self):
        program = compile_source(
            "int n; int main() { reg int i; i = 0; while (i < n) { i = i + 1; } return i; }"
        )
        result = analyze_intervals(program.cfg)
        assert result.iterations < 100

    def test_interval_state_lattice(self):
        bottom = IntervalState.bottom()
        entry = IntervalState.entry()
        assert bottom.leq(entry)
        assert bottom.join(entry) == entry or bottom.join(entry).leq(entry)


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

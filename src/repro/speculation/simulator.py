"""Concrete speculative executor — the repository's GEM5 substitute.

The simulator interprets the IR with concrete values, models a concrete
LRU cache, and — crucially — performs *speculative excursions*: when the
branch predictor mispredicts, it executes the wrong path for a bounded
number of instructions, touching the cache, then rolls back every
register and memory value but **not** the cache.  This is exactly the
behaviour that makes classical cache analyses unsound and that the
paper's analysis models abstractly.

It is used to (a) validate the soundness of the abstract analyses
(an access the analysis classifies as a must hit may never miss
concretely), and (b) produce the concrete miss counts quoted in the
motivating example (Figures 2 and 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.concrete import CacheStats, ConcreteCache
from repro.cache.config import CacheConfig
from repro.errors import SimulationError
from repro.frontend import CompiledProgram
from repro.ir.cfg import CFG
from repro.ir.instructions import (
    BinOp,
    CallInstr,
    CondBranch,
    Const,
    Copy,
    Fence,
    Jump,
    Load,
    MemoryRef,
    Operand,
    Return,
    Store,
    Temp,
    UnOp,
)
from repro.ir.memory import MemoryBlock, MemoryLayout
from repro.lang.fold import c_div, c_mod
from repro.speculation.config import SpeculationConfig
from repro.speculation.predictor import (
    BranchPredictor,
    OpposingPredictor,
    PerfectPredictor,
)

#: Default bound on interpreted instructions, to catch runaway loops.
DEFAULT_MAX_STEPS = 2_000_000


@dataclass(frozen=True)
class AccessRecord:
    """One dynamic memory access."""

    block_name: str
    instruction_index: int
    memory_block: MemoryBlock
    hit: bool
    speculative: bool


@dataclass
class SimulationResult:
    """Outcome of one concrete run."""

    stats: CacheStats
    steps: int = 0
    mispredictions: int = 0
    speculative_excursions: int = 0
    return_value: int | None = None
    accesses: list[AccessRecord] = field(default_factory=list)

    @property
    def misses(self) -> int:
        return self.stats.misses

    @property
    def observable_misses(self) -> int:
        return self.stats.observable_misses

    @property
    def hits(self) -> int:
        return self.stats.hits

    def non_speculative_accesses(self) -> list[AccessRecord]:
        return [record for record in self.accesses if not record.speculative]


class _Machine:
    """Mutable interpreter state (registers plus data memory values)."""

    def __init__(self, initializers: dict[str, list[int]], inputs: dict[str, int]):
        self.temps: dict[Temp, int] = {}
        self.scalars: dict[str, int] = dict(inputs)
        self.arrays: dict[tuple[str, int], int] = {}
        for name, values in initializers.items():
            for index, value in enumerate(values):
                self.arrays[(name, index)] = value

    def snapshot(self) -> tuple[dict, dict, dict]:
        return (dict(self.temps), dict(self.scalars), dict(self.arrays))

    def restore(self, snapshot: tuple[dict, dict, dict]) -> None:
        self.temps, self.scalars, self.arrays = (
            dict(snapshot[0]),
            dict(snapshot[1]),
            dict(snapshot[2]),
        )


class SpeculativeSimulator:
    """Interprets a compiled program with speculative execution."""

    def __init__(
        self,
        program: CompiledProgram,
        cache_config: CacheConfig | None = None,
        speculation: SpeculationConfig | None = None,
        predictor: BranchPredictor | None = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        record_accesses: bool = True,
        excursion_length: int | None = None,
    ):
        """``excursion_length`` overrides the bh/bm heuristic with an exact
        number of instructions speculated on every misprediction.  On real
        hardware the rollback point is determined by when the branch
        resolves (a timing accident); fixing it makes experiments such as
        the Figure 3 trace reproducible."""
        self.program = program
        self.cfg: CFG = program.cfg
        self.layout: MemoryLayout = program.layout
        self.cache_config = cache_config or CacheConfig.paper_default()
        self.speculation = speculation or SpeculationConfig.paper_default()
        self.predictor = predictor if predictor is not None else OpposingPredictor()
        self.max_steps = max_steps
        self.record_accesses = record_accesses
        self.excursion_length = excursion_length
        self._current_block_misses: set[MemoryBlock] = set()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, inputs: dict[str, int] | None = None) -> SimulationResult:
        """Execute the program once with the given scalar inputs."""
        machine = _Machine(self.program.info.array_initializers, inputs or {})
        cache = ConcreteCache(config=self.cache_config)
        result = SimulationResult(stats=cache.stats)
        self.predictor.reset()

        block_name = self.cfg.entry
        while True:
            block = self.cfg.block(block_name)
            self._current_block_misses = set()
            for index, instruction in enumerate(block.instructions):
                self._step(result)
                self._execute(
                    instruction, machine, cache, result, block_name, index, speculative=False
                )
            terminator = block.terminator
            self._step(result)
            if isinstance(terminator, Return):
                result.return_value = (
                    self._value(terminator.value, machine) if terminator.value is not None else None
                )
                break
            if isinstance(terminator, Jump):
                block_name = terminator.target
                continue
            if isinstance(terminator, CondBranch):
                block_name = self._execute_branch(
                    block_name, terminator, machine, cache, result
                )
                continue
            raise SimulationError(f"block {block_name!r} has no terminator")
        result.stats = cache.stats
        return result

    # ------------------------------------------------------------------
    # Branches and speculation
    # ------------------------------------------------------------------
    def _execute_branch(
        self,
        block_name: str,
        terminator: CondBranch,
        machine: _Machine,
        cache: ConcreteCache,
        result: SimulationResult,
    ) -> str:
        actual_taken = self._value(terminator.cond, machine) != 0
        actual_target = terminator.true_target if actual_taken else terminator.false_target

        if isinstance(self.predictor, PerfectPredictor):
            return actual_target

        if self.speculation.disabled and self.excursion_length is None:
            # Speculation turned off entirely (depth 0): behave exactly like
            # a sequential machine — no predictor traffic, no misprediction
            # accounting, no excursion machinery.
            return actual_target

        if isinstance(self.predictor, OpposingPredictor):
            self.predictor.prime(actual_taken)
        predicted_taken = self.predictor.predict(block_name)
        self.predictor.update(block_name, actual_taken)

        if predicted_taken == actual_taken:
            return actual_target

        result.mispredictions += 1
        if self.excursion_length is not None:
            depth = self.excursion_length
        else:
            depth = self._speculation_depth(terminator, cache)
        if depth > 0:
            result.speculative_excursions += 1
            wrong_target = terminator.true_target if predicted_taken else terminator.false_target
            self._speculate(wrong_target, depth, machine, cache, result)
        return actual_target

    def _speculation_depth(self, terminator: CondBranch, cache: ConcreteCache) -> int:
        """If any load feeding the condition missed, the branch takes long to
        resolve and the excursion may run for ``bm`` instructions; otherwise
        it resolves quickly (``bh``)."""
        if not terminator.cond_refs:
            return self.speculation.depth_hit
        for ref in terminator.cond_refs:
            if self._ref_missed_in_current_block(ref, cache):
                return self.speculation.depth_miss
        return self.speculation.depth_hit

    def _ref_missed_in_current_block(self, ref: MemoryRef, cache: ConcreteCache) -> bool:
        access = self.layout.resolve(ref)
        if any(block in self._current_block_misses for block in access.blocks):
            return True
        return not all(cache.probe(block) for block in access.blocks)

    def _speculate(
        self,
        start_block: str,
        depth: int,
        machine: _Machine,
        cache: ConcreteCache,
        result: SimulationResult,
    ) -> None:
        """Execute up to ``depth`` instructions from ``start_block`` and roll
        back every architectural effect except the cache."""
        snapshot = machine.snapshot()
        block_name = start_block
        budget = depth
        while budget > 0:
            block = self.cfg.block(block_name)
            for index, instruction in enumerate(block.instructions):
                if budget <= 0:
                    break
                if isinstance(instruction, Fence):
                    # A fence stalls the pipeline until the mispredicted
                    # branch resolves; the excursion ends here, before the
                    # fence retires anything speculatively.
                    budget = 0
                    break
                budget -= 1
                self._step(result)
                self._execute(
                    instruction, machine, cache, result, block_name, index, speculative=True
                )
            if budget <= 0:
                break
            terminator = block.terminator
            budget -= 1
            self._step(result)
            if isinstance(terminator, Return):
                break
            if isinstance(terminator, Jump):
                block_name = terminator.target
            elif isinstance(terminator, CondBranch):
                # Nested speculation is not modelled: the excursion simply
                # follows the concrete outcome of the nested branch.
                taken = self._value(terminator.cond, machine) != 0
                block_name = terminator.true_target if taken else terminator.false_target
            else:  # pragma: no cover - defensive
                break
        machine.restore(snapshot)

    # ------------------------------------------------------------------
    # Instruction execution
    # ------------------------------------------------------------------
    def _execute(
        self,
        instruction,
        machine: _Machine,
        cache: ConcreteCache,
        result: SimulationResult,
        block_name: str,
        index: int,
        speculative: bool,
    ) -> None:
        if isinstance(instruction, Load):
            element = self._element_index(instruction.ref, instruction.index_operand, machine)
            value = self._read_memory(instruction.ref.symbol, element, machine)
            machine.temps[instruction.dest] = value
            self._touch(instruction.ref, element, cache, result, block_name, index, speculative)
        elif isinstance(instruction, Store):
            element = self._element_index(instruction.ref, instruction.index_operand, machine)
            value = self._value(instruction.value, machine)
            self._write_memory(instruction.ref.symbol, element, value, machine)
            self._touch(instruction.ref, element, cache, result, block_name, index, speculative)
        elif isinstance(instruction, BinOp):
            machine.temps[instruction.dest] = self._binop(
                instruction.op,
                self._value(instruction.left, machine),
                self._value(instruction.right, machine),
            )
        elif isinstance(instruction, UnOp):
            operand = self._value(instruction.operand, machine)
            machine.temps[instruction.dest] = self._unop(instruction.op, operand)
        elif isinstance(instruction, Copy):
            machine.temps[instruction.dest] = self._value(instruction.src, machine)
        elif isinstance(instruction, CallInstr):
            value = self._intrinsic(instruction.callee, [
                self._value(arg, machine) for arg in instruction.args
            ])
            if instruction.dest is not None:
                machine.temps[instruction.dest] = value
        elif isinstance(instruction, Fence):
            # Architecturally a no-op; its speculation-barrier effect is
            # enforced in _speculate, which never executes past a fence.
            pass

    def _touch(
        self,
        ref: MemoryRef,
        element: int,
        cache: ConcreteCache,
        result: SimulationResult,
        block_name: str,
        index: int,
        speculative: bool,
    ) -> None:
        obj = self.layout.object(ref.symbol)
        byte_offset = element * max(ref.element_size, 1)
        block_index = min(max(byte_offset // self.layout.line_size, 0), obj.num_blocks - 1)
        memory_block = MemoryBlock(ref.symbol, block_index)
        hit = cache.access(memory_block, speculative=speculative)
        if not hit and not speculative:
            self._current_block_misses.add(memory_block)
        if self.record_accesses:
            result.accesses.append(
                AccessRecord(
                    block_name=block_name,
                    instruction_index=index,
                    memory_block=memory_block,
                    hit=hit,
                    speculative=speculative,
                )
            )

    # ------------------------------------------------------------------
    # Values and memory
    # ------------------------------------------------------------------
    def _element_index(self, ref: MemoryRef, index_operand: Operand | None, machine: _Machine) -> int:
        if ref.index_const is not None:
            return ref.index_const
        if index_operand is not None:
            return self._value(index_operand, machine)
        return 0

    def _value(self, operand: Operand, machine: _Machine) -> int:
        if isinstance(operand, Const):
            return operand.value
        if isinstance(operand, Temp):
            return machine.temps.get(operand, 0)
        raise SimulationError(f"cannot evaluate operand {operand!r}")

    def _read_memory(self, symbol: str, element: int, machine: _Machine) -> int:
        obj = self.layout.objects.get(symbol)
        if obj is not None and obj.symbol.is_array:
            return machine.arrays.get((symbol, element), 0)
        return machine.scalars.get(symbol, 0)

    def _write_memory(self, symbol: str, element: int, value: int, machine: _Machine) -> None:
        obj = self.layout.objects.get(symbol)
        if obj is not None and obj.symbol.is_array:
            machine.arrays[(symbol, element)] = value
        else:
            machine.scalars[symbol] = value

    @staticmethod
    def _binop(op: str, left: int, right: int) -> int:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return c_div(left, right) if right != 0 else 0
        if op == "%":
            return c_mod(left, right) if right != 0 else 0
        if op == "<<":
            return left << (right & 63)
        if op == ">>":
            return left >> (right & 63)
        if op == "&":
            return left & right
        if op == "|":
            return left | right
        if op == "^":
            return left ^ right
        if op == "<":
            return int(left < right)
        if op == "<=":
            return int(left <= right)
        if op == ">":
            return int(left > right)
        if op == ">=":
            return int(left >= right)
        if op == "==":
            return int(left == right)
        if op == "!=":
            return int(left != right)
        if op == "&&":
            return int(bool(left) and bool(right))
        if op == "||":
            return int(bool(left) or bool(right))
        raise SimulationError(f"unknown binary operator {op!r}")

    @staticmethod
    def _unop(op: str, operand: int) -> int:
        if op == "-":
            return -operand
        if op == "~":
            return ~operand
        if op == "!":
            return int(not operand)
        raise SimulationError(f"unknown unary operator {op!r}")

    @staticmethod
    def _intrinsic(name: str, args: list[int]) -> int:
        if name in ("my_abs", "abs") and args:
            return abs(args[0])
        if name == "min" and len(args) >= 2:
            return min(args[0], args[1])
        if name == "max" and len(args) >= 2:
            return max(args[0], args[1])
        if name in ("nondet", "input"):
            return 0
        return 0

    def _step(self, result: SimulationResult) -> None:
        result.steps += 1
        if result.steps > self.max_steps:
            raise SimulationError(
                f"simulation exceeded {self.max_steps} steps; the program may not terminate"
            )

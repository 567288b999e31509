"""Natural-loop detection and simple trip-count inference on the IR."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.cfg import CFG
from repro.ir.instructions import BinOp, CondBranch, Const, Copy, Load, Temp


@dataclass
class Loop:
    """A natural loop: a header plus the set of blocks that can reach the
    back edge without leaving the header's dominance region."""

    header: str
    blocks: set[str] = field(default_factory=set)
    back_edges: list[tuple[str, str]] = field(default_factory=list)

    def contains(self, block: str) -> bool:
        return block in self.blocks

    def exits(self, cfg: CFG) -> list[str]:
        """Blocks outside the loop that are targets of edges from inside it."""
        successors = cfg.graph().successors
        result: list[str] = []
        for block in self.blocks:
            for successor in successors[block]:
                if successor not in self.blocks and successor not in result:
                    result.append(successor)
        return result


def find_natural_loops(cfg: CFG) -> list[Loop]:
    """Find all natural loops of ``cfg`` (one per header, back edges merged).

    Read from the graph index; each call returns fresh :class:`Loop`
    objects.
    """
    return [
        Loop(header=loop.header, blocks=set(loop.blocks), back_edges=list(loop.back_edges))
        for loop in cfg.graph().loops
    ]


def loop_of_block(loops: list[Loop], block: str) -> Loop | None:
    """Return the innermost loop containing ``block`` (smallest body)."""
    candidates = [loop for loop in loops if loop.contains(block)]
    if not candidates:
        return None
    return min(candidates, key=lambda loop: len(loop.blocks))


def infer_trip_count(cfg: CFG, loop: Loop) -> int | None:
    """Best-effort trip-count inference for counter-controlled loops.

    Recognises the pattern produced by lowering a ``for`` loop over a
    register counter: the header ends in ``br (i OP c) ? body : exit``
    where ``i`` is a register temp (or a load of a scalar) initialised to a
    constant before the loop and incremented by a constant inside it.
    Returns ``None`` when the pattern does not match — the analysis then
    relies on widening instead (Section 6.3).
    """
    header_block = cfg.block(loop.header)
    terminator = header_block.terminator
    if not isinstance(terminator, CondBranch) or not isinstance(terminator.cond, Temp):
        return None
    compare = _defining_binop(cfg, loop.header, terminator.cond)
    if compare is None or compare.op not in ("<", "<=", ">", ">="):
        return None
    if not isinstance(compare.right, Const):
        return None
    bound = compare.right.value
    counter = compare.left
    if not isinstance(counter, Temp):
        return None
    counter_symbol = _counter_symbol(header_block, counter)
    start = _initial_value(cfg, loop, counter, counter_symbol)
    step = _step_value(cfg, loop, counter, counter_symbol)
    if start is None or step is None or step == 0:
        return None
    count = 0
    value = start
    limit = 1_000_000
    while count < limit:
        if compare.op == "<" and not value < bound:
            break
        if compare.op == "<=" and not value <= bound:
            break
        if compare.op == ">" and not value > bound:
            break
        if compare.op == ">=" and not value >= bound:
            break
        value += step
        count += 1
    if count >= limit:
        return None
    return count


def _defining_binop(cfg: CFG, block_name: str, temp: Temp) -> BinOp | None:
    for instruction in reversed(cfg.block(block_name).instructions):
        if isinstance(instruction, BinOp) and instruction.dest == temp:
            return instruction
    return None


def _counter_symbol(header_block, counter: Temp) -> str | None:
    """If the counter temp is a load of a scalar, return the scalar's name."""
    for instruction in header_block.instructions:
        if isinstance(instruction, Load) and instruction.dest == counter:
            return instruction.ref.symbol
    return None


def _initial_value(cfg: CFG, loop: Loop, counter: Temp, symbol: str | None) -> int | None:
    """Find a constant assigned to the counter before entering the loop."""
    for block_name in cfg.graph().reachable:
        if block_name in loop.blocks:
            continue
        for instruction in cfg.block(block_name).instructions:
            value = _constant_written(instruction, counter, symbol)
            if value is not None:
                return value
    return None


def _step_value(cfg: CFG, loop: Loop, counter: Temp, symbol: str | None) -> int | None:
    """Find a constant increment of the counter inside the loop."""
    for block_name in loop.blocks:
        block = cfg.block(block_name)
        for index, instruction in enumerate(block.instructions):
            if not isinstance(instruction, BinOp) or instruction.op not in ("+", "-"):
                continue
            sources = _reads_counter(block, index, instruction, counter, symbol)
            if not sources:
                continue
            if isinstance(instruction.right, Const):
                step = instruction.right.value
                return step if instruction.op == "+" else -step
    return None


def _reads_counter(block, index: int, instruction: BinOp, counter: Temp, symbol: str | None) -> bool:
    if instruction.left == counter:
        return True
    if symbol is None:
        return False
    # The left operand may be a fresh load of the counter's backing scalar.
    for earlier in block.instructions[:index]:
        if (
            isinstance(earlier, Load)
            and earlier.dest == instruction.left
            and earlier.ref.symbol == symbol
        ):
            return True
    return False


def _constant_written(instruction, counter: Temp, symbol: str | None) -> int | None:
    if isinstance(instruction, Copy) and instruction.dest == counter:
        if isinstance(instruction.src, Const):
            return instruction.src.value
    if symbol is not None and hasattr(instruction, "ref"):
        ref = getattr(instruction, "ref")
        if getattr(ref, "symbol", None) == symbol and getattr(ref, "is_write", False):
            value = getattr(instruction, "value", None)
            if isinstance(value, Const):
                return value.value
    return None
